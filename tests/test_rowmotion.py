"""Global rowmotion, flips, slow motion, traces, and orbit analysis."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    oracle_extension_error,
    oracle_ideal_poset,
    oracle_slow_trace,
    random_extension,
)
from trimlat import (
    NotALinearExtension,
    boolean,
    fixture,
    flip,
    ideal_rowmotion,
    ideal_rowmotion_map,
    index_irreducibles,
    lattice_from_poset,
    left_modular_labelling,
    linear_extensions,
    order_ideals,
    orbits,
    poset_from_relations,
    rowmotion_global,
    rowmotion_slow,
    slow_trace,
)
from trimlat.poset import ideal_masks, ideal_poset
from trimlat.rowmotion import permutation_from_map

V_POSET = poset_from_relations(3, [(0, 2), (1, 2)])


def chain_lattice(n_elems: int):
    return lattice_from_poset(
        poset_from_relations(n_elems, [(i, i + 1) for i in range(n_elems - 1)]))


def test_rowmotion_global_fig1():
    l = order_ideals(V_POSET)
    row = rowmotion_global(l, left_modular_labelling(l))
    # the two drawn orbits: bottom -> top -> {1,2} -> bottom; {1} <-> {2}
    assert row(0) == 4 and row(4) == 3 and row(3) == 0
    assert row(1) == 2 and row(2) == 1
    assert row.cycle_type == (3, 2)


def test_rowmotion_global_pentagon():
    l = fixture("fig2")
    row = rowmotion_global(l, left_modular_labelling(l))
    assert row.cycle_type == (3, 2) and row.order == 6


def test_rowmotion_one_element():
    l = boolean(0)
    row = rowmotion_global(l, left_modular_labelling(l))
    assert row.forward == (0,) and row.order == 1


def test_flip_examples():
    l = order_ideals(V_POSET)
    gamma = left_modular_labelling(l)
    assert flip(l, gamma, 0, 1) == 1
    for x in range(l.n):
        for i in (1, 2, 3):
            assert flip(l, gamma, flip(l, gamma, x, i), i) == x
    # no edge labelled 3 at element 1 = the ideal {1}
    assert flip(l, gamma, 1, 3) == 1


def test_rowmotion_slow_fig1_walk():
    l = order_ideals(V_POSET)
    gamma = left_modular_labelling(l)
    slow = rowmotion_slow(l, gamma, (1, 2, 3))
    assert slow(0) == 4  # bottom walks up the whole blue chain
    assert slow == rowmotion_global(l, gamma)


def test_rowmotion_slow_fig4_and_chain():
    l4 = fixture("fig4")
    gamma = left_modular_labelling(l4)
    assert rowmotion_slow(l4, gamma, (1, 2, 3, 4, 5, 6)) == rowmotion_global(l4, gamma)
    chain = chain_lattice(4)
    gch = left_modular_labelling(chain)
    # direct computation on the 4-chain
    assert rowmotion_slow(chain, gch, (1, 2, 3)) == rowmotion_global(chain, gch)


def test_rowmotion_slow_all_extensions_fig4():
    l4 = fixture("fig4")
    gamma = left_modular_labelling(l4)
    row = rowmotion_global(l4, gamma)
    exts = linear_extensions(gamma.label_poset, 10_000)
    assert len(exts) > 1
    for ext in exts:
        assert rowmotion_slow(l4, gamma, tuple(e + 1 for e in ext)) == row


def test_rowmotion_slow_rejects_bad_extension():
    l4 = fixture("fig4")
    gamma = left_modular_labelling(l4)
    with pytest.raises(NotALinearExtension):
        rowmotion_slow(l4, gamma, (1, 2, 3))  # not all labels
    with pytest.raises(NotALinearExtension):
        # label 4 is above label 1 in the Galois poset, so 4 cannot come first
        rowmotion_slow(l4, gamma, (4, 1, 2, 3, 5, 6))


def test_extension_check_matches_pair_scan(trim_collection):
    # seeded permutations of the labels, most of them no linear extension,
    # and a linear extension of each label poset
    rng = random.Random(35)
    accepted = refused = 0
    for name, l in trim_collection:
        gamma = left_modular_labelling(l)
        labels = list(range(1, gamma.label_poset.n + 1))
        for ext in (random_extension(rng, gamma.label_poset), rng.sample(labels, len(labels))):
            want = oracle_extension_error(gamma, ext)
            try:
                rowmotion_slow(l, gamma, ext)
            except NotALinearExtension as exc:
                assert str(exc) == want, (name, ext)
                refused += 1
            else:
                assert want is None, (name, ext)
                accepted += 1
    assert (accepted, refused) == (1628, 1270)


def test_orbits():
    l = order_ideals(V_POSET)
    row = rowmotion_global(l, left_modular_labelling(l))
    assert orbits(row) == ((3, 2), 6)
    ident = permutation_from_map(range(5))
    assert orbits(ident) == ((1, 1, 1, 1, 1), 1)


def test_slow_trace_fig1():
    l = order_ideals(V_POSET)
    gamma = left_modular_labelling(l)
    # from the ideal {1}: flip 1 down to the bottom, flip 2 up to {2},
    # flip 3 is a no-op
    assert slow_trace(l, gamma, (1, 2, 3), 1) == [(1, 0), (2, 2), (3, 2)]
    chain = chain_lattice(3)
    gch = left_modular_labelling(chain)
    steps = slow_trace(chain, gch, (1, 2), chain.top)
    assert steps[-1][1] == rowmotion_global(chain, gch)(chain.top)
    one = boolean(0)
    assert slow_trace(one, left_modular_labelling(one), (), 0) == []


@pytest.mark.parametrize("x", [-1, 5, 10])
def test_flip_and_trace_refuse_out_of_range(x):
    l = order_ideals(V_POSET)
    gamma = left_modular_labelling(l)
    with pytest.raises(ValueError, match=f"element {x} out of range for n=5"):
        flip(l, gamma, x, 3)
    with pytest.raises(ValueError, match=f"element {x} out of range for n=5"):
        slow_trace(l, gamma, (1, 2, 3), x)


def test_slow_trace_matches_flip_tables(trim_collection):
    # from every element, along a seeded linear extension of each label
    # poset, and up the 1000-element chain, whose 999 labels each touch
    # two elements
    rng = random.Random(35)
    for name, l in trim_collection:
        gamma = left_modular_labelling(l)
        ext = random_extension(rng, gamma.label_poset)
        for x in range(l.n):
            assert slow_trace(l, gamma, ext, x) == oracle_slow_trace(l, gamma, ext, x), (name, x)
    chain = chain_lattice(1000)
    gamma = left_modular_labelling(chain)
    ext = tuple(range(1, 1000))
    steps = slow_trace(chain, gamma, ext, 0)
    assert steps == oracle_slow_trace(chain, gamma, ext, 0)
    assert steps[-1] == (999, 999)


def test_labelling_independence_across_chains():
    """Rowmotion computed from any maximal-length chain's labelling is the
    same permutation."""
    from test_galois import _all_maximal_chains

    for name in ("fig2", "fig3_left", "fig4", "fig8"):
        l = fixture(name)
        rows = set()
        for ch in _all_maximal_chains(l):
            gamma = left_modular_labelling(l, ch)
            rows.add(rowmotion_global(l, gamma))
        assert len(rows) == 1


def test_rowmotion_is_bijection(trim_collection):
    for _, l in trim_collection[:60]:
        row = rowmotion_global(l, left_modular_labelling(l))
        assert sorted(row.forward) == list(range(l.n))


def test_distributive_antichain_oracle(small_posets):
    """On ideal lattices, label rowmotion equals the label-free antichain
    description."""
    for q in small_posets[:120]:
        l = order_ideals(q)
        masks = ideal_masks(q)
        row = rowmotion_global(l, left_modular_labelling(l))
        oracle = ideal_rowmotion(q, masks)
        assert row == oracle


@st.composite
def natural_posets(draw, max_n: int = 8):
    """Naturally labelled posets (a < b only when a < b as integers) on at
    most max_n elements."""
    n = draw(st.integers(1, max_n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return poset_from_relations(n, draw(st.lists(st.sampled_from(pairs), unique=True))
                                if pairs else [])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(q=natural_posets(), seed=st.integers(0, 2 ** 32 - 1))
def test_ideal_lattices_past_the_sweeps(q, seed):
    """On J(q) for q on <= 8 elements: the ideal walk equals the pairwise
    oracle, and slow rowmotion on 3 sampled label-poset extensions and the
    antichain rowmotion both equal global rowmotion."""
    assert ideal_poset(q) == oracle_ideal_poset(q)
    l = order_ideals(q)
    gamma = left_modular_labelling(l)
    row = rowmotion_global(l, gamma)
    rng = random.Random(seed)
    for _ in range(3):
        assert rowmotion_slow(l, gamma, random_extension(rng, gamma.label_poset)) == row
    assert ideal_rowmotion(q, ideal_masks(q)) == row


def test_ideal_rowmotion_map_direction():
    # bottom goes to the full ideal, the full ideal drops its top antichain
    rmap = ideal_rowmotion_map(V_POSET, ideal_masks(V_POSET))
    assert rmap[0] == 0b111
    assert rmap[0b111] == 0b011
    assert rmap[0b011] == 0


def test_flip_commutation():
    """Toggles at two poset elements commute iff the elements are not in a
    covering relation."""
    posets = [V_POSET,
              poset_from_relations(3, [(0, 1), (1, 2)]),
              poset_from_relations(4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
              poset_from_relations(4, [])]
    for q in posets:
        l = order_ideals(q)
        gamma = left_modular_labelling(l)
        idx = index_irreducibles(l)
        masks = ideal_masks(q)
        # poset element added at chain step i (1-based label i)
        added = []
        for i in range(q.n):
            diff = masks[idx.chain.elements[i + 1]] ^ masks[idx.chain.elements[i]]
            added.append(diff.bit_length() - 1)
        for i in range(1, q.n + 1):
            for k in range(1, q.n + 1):
                if i == k:
                    continue
                qi, qk = added[i - 1], added[k - 1]
                covering = (qi, qk) in q.covers or (qk, qi) in q.covers
                commute = all(
                    flip(l, gamma, flip(l, gamma, x, i), k)
                    == flip(l, gamma, flip(l, gamma, x, k), i)
                    for x in range(l.n))
                assert commute == (not covering)


def test_rowmotion_rejects_non_descriptive_labelling():
    from trimlat import NotDescriptive

    b2 = boolean(2)
    # a valid labelling (distinct around every element) whose down- and
    # up-label families do not match
    lopsided = {(0, 1): 1, (0, 2): 2, (1, 3): 2, (2, 3): 3}
    with pytest.raises(NotDescriptive):
        rowmotion_global(b2, lopsided)
