"""Left-modular labellings, EL and interpolating properties, descriptive
labellings, semidistributive labellings, kappa, and canonical
representations."""

from __future__ import annotations

from itertools import permutations

import pytest

from trimlat import (
    Chain,
    NotSemidistributive,
    ThreeWayMismatch,
    boolean,
    canonical_join_rep,
    canonical_meet_rep,
    decompose,
    down_up_labels,
    fixture,
    index_irreducibles,
    is_EL,
    is_descriptive,
    is_interpolating,
    is_semidistributive,
    is_trim,
    is_trim_definitional,
    lattice_from_poset,
    left_modular_labelling,
    order_ideals,
    poset_from_relations,
    semidistributive_labelling,
    tamari,
    weak_order_S,
)
from trimlat.labelling import CoverLabelling
from conftest import (
    brute_canonical_join_rep,
    count_increasing,
    dual_poset,
    eager_lattice,
    oracle_count_increasing,
)

V_POSET = poset_from_relations(3, [(0, 2), (1, 2)])


def chain_lattice(n_elems: int):
    return lattice_from_poset(
        poset_from_relations(n_elems, [(i, i + 1) for i in range(n_elems - 1)]))


def test_left_modular_labelling_fig1():
    gamma = left_modular_labelling(order_ideals(V_POSET))
    assert gamma.labels == {(0, 1): 1, (0, 2): 2, (1, 3): 2, (2, 3): 1, (3, 4): 3}


def test_left_modular_labelling_chain():
    l = chain_lattice(5)
    gamma = left_modular_labelling(l)
    assert gamma.labels == {(i, i + 1): i + 1 for i in range(4)}


def test_left_modular_labelling_mismatch_on_non_left_modular():
    with pytest.raises(ThreeWayMismatch):
        left_modular_labelling(fixture("fig7_left"))


def test_left_modular_labelling_non_extremal():
    # the three-atom diamond is left modular but not extremal
    m3 = fixture("fig7_right")
    gamma = left_modular_labelling(m3)
    assert len(gamma.labels) == len(m3.covers)
    assert set(gamma.labels.values()) <= {1, 2}


@pytest.mark.parametrize("elements", [(0, 4), (1, 4), (0, 2), (3, 1, 4)])
def test_left_modular_labelling_refuses_unsaturated_chain(elements):
    # M3 is not extremal, so the chain is not checked by the indexing
    with pytest.raises(ValueError, match="chain must be saturated from bottom to top"):
        left_modular_labelling(fixture("fig7_right"), Chain(elements))


def test_down_up_labels():
    l = order_ideals(V_POSET)
    gamma = left_modular_labelling(l)
    sets = down_up_labels(l, gamma)
    assert sets.down[l.bottom] == frozenset()
    assert sets.up[l.top] == frozenset()
    assert sets.down[3] == frozenset({1, 2}) and sets.up[3] == frozenset({3})
    l4 = fixture("fig4")
    sets4 = down_up_labels(l4, left_modular_labelling(l4))
    assert sets4.down[6] == frozenset({2, 3}) and sets4.up[6] == frozenset({4})


def test_is_descriptive():
    l = fixture("fig4")
    assert is_descriptive(l, left_modular_labelling(l))
    s3 = weak_order_S(3)
    assert is_descriptive(s3, semidistributive_labelling(s3).gamma_j)
    one = boolean(0)
    assert is_descriptive(one, CoverLabelling({}))


def test_is_EL_examples():
    assert is_EL(order_ideals(V_POSET),
                 left_modular_labelling(order_ideals(V_POSET)))
    pent = fixture("fig2")
    assert is_EL(pent, left_modular_labelling(pent))
    # permute labels 2 and 3 so the long chain reads 1,3,2: no increasing
    # chain remains in the interval above element 1
    twisted = {(0, 1): 1, (1, 3): 3, (3, 4): 2, (0, 2): 2, (2, 4): 1}
    assert not is_EL(pent, twisted)


def test_count_increasing_matches_recursion(small_posets, fixture_trim_lattices):
    # every pair of elements of the figures and of J(Q) over the n <= 5
    # sweep, under the left-modular labelling and under one with ties and
    # descents, so that counts other than 1 occur
    counts = set()
    for l in [l for _, l in fixture_trim_lattices] + [order_ideals(q) for q in small_posets]:
        for labels in (left_modular_labelling(l).labels,
                       {(y, w): (3 * y + w) % 4 for y, w in l.covers}):
            for x in range(l.n):
                for z in range(l.n):
                    got = count_increasing(l, labels, x, z)
                    assert got == oracle_count_increasing(l, labels, x, z), (l, x, z)
                    counts.add(got)
    assert counts >= {0, 1, 2, 3}


def test_is_EL_on_a_long_chain():
    # 1099 cover steps: past the recursion limit of a recursive count, and
    # about 6 * 10^5 intervals, each read once
    l = chain_lattice(1100)
    assert is_EL(l, left_modular_labelling(l))
    assert not is_EL(l, {(i, i + 1): -i for i in range(1099)})


def test_is_interpolating_examples():
    pent = fixture("fig2")
    assert is_interpolating(pent, left_modular_labelling(pent))
    assert is_interpolating(chain_lattice(4),
                            left_modular_labelling(chain_lattice(4)))
    # hunt through all 4! labelings of B2's four edges for one that is EL
    # but fails the interpolating endpoint condition
    b2 = boolean(2)
    covers = list(b2.covers)
    found = []
    for perm in permutations((1, 2, 3, 4)):
        lab = dict(zip(covers, perm))
        if is_EL(b2, lab) and not is_interpolating(b2, lab):
            found.append(lab)
    assert found
    witness = {(0, 1): 1, (1, 3): 3, (0, 2): 4, (2, 3): 2}
    assert witness in found


def test_semidistributive_labelling_distributive():
    # in a distributive ideal lattice, kappa sends each principal-ideal
    # irreducible to the complementary-filter irreducible
    l = order_ideals(V_POSET)
    sdl = semidistributive_labelling(l)
    idx = index_irreducibles(l)
    for i in range(idx.n):
        assert sdl.kappa[idx.j[i]] == idx.m[i]


def test_semidistributive_labelling_weak_order():
    s3 = weak_order_S(3)
    sdl = semidistributive_labelling(s3)
    # oracle: the label is the least element of the witness set, by a
    # direct scan over all six elements
    for (x, y), j in sdl.gamma_j.items():
        cand = [z for z in range(6) if s3.join_of(x, z) == y]
        assert j in cand and all(s3.leq(j, z) for z in cand)
    for (x, y), m in sdl.gamma_m.items():
        cand = [z for z in range(6) if s3.meet_of(z, y) == x]
        assert m in cand and all(s3.leq(z, m) for z in cand)
    assert len(sdl.gamma_j) == len(s3.covers) == 6
    assert sorted(sdl.kappa) == sorted(s3.join_irr)


def test_semidistributive_labelling_fig8_matches_left_modular():
    l = fixture("fig8")
    idx = index_irreducibles(l)
    sdl = semidistributive_labelling(l)
    gamma = left_modular_labelling(l)
    for e, lab in gamma.labels.items():
        assert idx.beta_j(sdl.gamma_j[e]) == lab
        assert idx.beta_m(sdl.gamma_m[e]) == lab


def test_semidistributive_rejects_fig3_left():
    with pytest.raises(NotSemidistributive):
        semidistributive_labelling(fixture("fig3_left"))


def test_canonical_reps_basics():
    s3 = weak_order_S(3)
    sdl = semidistributive_labelling(s3)
    for j in s3.join_irr:
        assert canonical_join_rep(s3, j, sdl) == frozenset({j})
    assert canonical_join_rep(s3, s3.bottom, sdl) == frozenset()
    top_rep = canonical_join_rep(s3, s3.top, sdl)
    atoms = set(s3.upper_covers(s3.bottom))
    assert top_rep == frozenset(atoms)


@pytest.mark.parametrize("make", [
    lambda: weak_order_S(3),
    lambda: fixture("fig8"),
    lambda: tamari(3),
    lambda: tamari(4),
    lambda: order_ideals(V_POSET),
    lambda: boolean(3),
])
def test_canonical_reps_against_brute_force(make):
    l = make()
    sdl = semidistributive_labelling(l)
    for x in range(l.n):
        want = brute_canonical_join_rep(l, x)
        assert want is not None
        assert canonical_join_rep(l, x, sdl) == want


def test_non_semidistributive_lattice_lacks_canonical_rep():
    l = fixture("fig3_left")
    missing = [x for x in range(l.n) if brute_canonical_join_rep(l, x) is None]
    assert missing
    assert not is_semidistributive(l)


def test_prop_4_1_identities(fixture_trim_lattices):
    for _, l in fixture_trim_lattices:
        idx = index_irreducibles(l)
        gamma = left_modular_labelling(l)
        sets = down_up_labels(l, gamma)
        xj, ym = idx.xj, idx.ym
        for x in range(l.n):
            assert l.join_all(idx.j[i - 1] for i in sets.down[x]) == x
            assert l.meet_all(idx.m[i - 1] for i in sets.up[x]) == x
            # down labels sit inside x_J, up labels inside x_M
            assert all(xj[x] >> (i - 1) & 1 for i in sets.down[x])
            assert all(ym[x] >> (i - 1) & 1 for i in sets.up[x])


def test_decomposition_lemmas(fixture_trim_lattices):
    """Membership in the lower interval is flagged by label 1 upward;
    joining with j_1 adds exactly label 1 to the down-labels; down-labels
    inside the upper interval drop label 1."""
    for _, l in fixture_trim_lattices:
        if l.n == 1:
            continue
        idx = index_irreducibles(l)
        gamma = left_modular_labelling(l)
        sets = down_up_labels(l, gamma)
        (l1, low), (lup, up) = decompose(l)
        low_set, up_set = set(low), set(up)
        j1 = idx.j[0]
        for y in range(l.n):
            assert (y in low_set) == (1 in sets.up[y])
        for y in low:
            z = l.join_of(y, j1)
            assert z in l.upper_covers(y)
            assert sets.down[z] == sets.down[y] | {1}
        # restricted down-labels in the upper interval
        up_index = {x: i for i, x in enumerate(up)}
        for x in up:
            restricted = frozenset(
                gamma.labels[(y, x)] for y in l.lower_covers(x) if y in up_index)
            assert restricted == sets.down[x] - {1}


def test_descriptive_families_semidistributive(small_posets):
    # down- and up-label families agree for semidistributive lattices
    lat_list = [weak_order_S(3), weak_order_S(4), fixture("fig8"), tamari(4)]
    lat_list += [order_ideals(q) for q in small_posets[:40]]
    for l in lat_list:
        sdl = semidistributive_labelling(l)
        sets = down_up_labels(l, sdl.gamma_j)
        assert set(sets.down) == set(sets.up)
        assert is_descriptive(l, sdl.gamma_j)


def test_extremal_semidistributive_implies_trim_small(graph_lattices):
    from trimlat.lattice import is_extremal

    done = 0
    for g, l in graph_lattices:
        if g.n > 4 or not is_semidistributive(l):
            continue
        assert is_extremal(l)
        assert is_trim(l) and is_trim_definitional(l)
        gamma = left_modular_labelling(l)
        assert is_EL(l, gamma) and is_interpolating(l, gamma)
        idx = index_irreducibles(l)
        sdl = semidistributive_labelling(l)
        # the chain indexing and kappa agree, and the semidistributive
        # labels reproduce the left-modular labels
        assert all(sdl.kappa[idx.j[i]] == idx.m[i] for i in range(idx.n))
        assert all(idx.beta_j(sdl.gamma_j[e]) == lab
                   for e, lab in gamma.labels.items())
        done += 1
    assert done > 50


def _dual_lattice(l):
    return eager_lattice(dual_poset(l.poset), l.join, l.meet, l.top, l.bottom)


@pytest.mark.parametrize("make", [
    lambda: weak_order_S(3),
    lambda: fixture("fig8"),
    lambda: tamari(4),
])
def test_canonical_meet_rep_against_dual_brute_force(make):
    l = make()
    sdl = semidistributive_labelling(l)
    dual = _dual_lattice(l)
    for x in range(l.n):
        want = brute_canonical_join_rep(dual, x)
        assert want is not None
        assert canonical_meet_rep(l, x, sdl) == want


def test_diamond_labelling_is_not_descriptive():
    # three atoms share the two chain labels, so the label map cannot
    # distinguish them
    m3 = fixture("fig7_right")
    gamma = left_modular_labelling(m3)
    assert not is_descriptive(m3, gamma)


def test_demi_semimodularity(fixture_trim_lattices, graph_lattices):
    """In a trim lattice, if x covers both y and z with the (y, x) label
    larger, then the meet of y and z is covered by z; dually, if y and z
    both cover x with the (x, y) label larger, the join covers y."""
    sample = [l for _, l in fixture_trim_lattices]
    sample += [l for g, l in graph_lattices[::13] if is_trim(l)]
    for l in sample:
        gamma = left_modular_labelling(l).labels
        for x in range(l.n):
            lows = l.lower_covers(x)
            for y in lows:
                for z in lows:
                    if y != z and gamma[(y, x)] > gamma[(z, x)]:
                        assert z in l.upper_covers(l.meet_of(y, z))
            ups = l.upper_covers(x)
            for y in ups:
                for z in ups:
                    if y != z and gamma[(x, y)] > gamma[(x, z)]:
                        assert l.join_of(y, z) in l.upper_covers(y)
