"""Validation on up masks and meet/join tables built on first read, against
the table check and the eager constructions they replaced (kept in conftest
as oracles): the same verdicts and NotALattice witnesses, the same tables,
and no tables built by the paper's pipeline."""

from __future__ import annotations

import random

import numpy as np
import pytest

from trimlat import (
    CycleDetected,
    GaloisGraph,
    InputError,
    Lattice,
    NotALattice,
    Poset,
    boolean,
    chain_product,
    complement_check,
    fixture,
    galois_graph,
    independence_complex,
    index_irreducibles,
    is_trim,
    lattice_from_graph,
    lattice_from_poset,
    left_modular_labelling,
    order_ideals,
    poset_from_relations,
    rational_dyck,
    rational_dyck_poset,
    root_ideals,
    root_poset_A,
    rowmotion_global,
    tamari,
    weak_order_S,
)
from trimlat import lattice
from trimlat.generators import antichain_poset, fixture_manifest, product_of_chains_poset
from trimlat.io import lattice_from_json
from trimlat.poset import _bits, ideal_poset
from conftest import (
    assert_same_lattice,
    eager_lattice_from_graph,
    eager_lattice_from_ideal_masks,
    oracle_canonical_extension,
    oracle_transposed_masks,
    table_check_lattice_from_poset,
)


def _outcome(build, p):
    try:
        return build(p)
    except NotALattice as exc:
        return (exc.x, exc.y, exc.kind)


def _same_verdict(p) -> bool:
    """The same lattice (tables included) or the same NotALattice
    arguments from the mask check and the table check; True for a
    lattice."""
    got = _outcome(lattice_from_poset, p)
    want = _outcome(table_check_lattice_from_poset, p)
    if isinstance(want, tuple):
        assert got == want, p
        return False
    assert_same_lattice(got, want)
    return True


def _bounded(n: int, relations) -> list[tuple[int, int]]:
    """The relations on 1..n with a new bottom 0 and top n + 1."""
    return ([(a + 1, b + 1) for a, b in relations]
            + [(0, a + 1) for a in range(n)] + [(a + 1, n + 1) for a in range(n)])


def test_sweep_verdicts_match_table_check(small_posets):
    # every sweep poset as it is, and with a bottom and a top put around it
    lattices = 0
    for q in small_posets:
        _same_verdict(q)
        lattices += _same_verdict(poset_from_relations(q.n + 2, _bounded(q.n, q.covers)))
    assert (len(small_posets), lattices) == (407, 369)


def test_seeded_bounded_verdicts_match_table_check():
    # bounded posets on 6 to 10 elements: random relations among 4 to 8
    # inner elements, in a random labelling
    rng = random.Random(15)
    counts = [0, 0]
    while counts[0] < 1000:
        k = rng.randint(4, 8)
        density = rng.choice((0.2, 0.35, 0.5))
        inner = [(a, b) for a in range(k) for b in range(a + 1, k) if rng.random() < density]
        rels = _bounded(k, inner)
        perm = list(range(k + 2))
        rng.shuffle(perm)
        p = poset_from_relations(k + 2, [(perm[a], perm[b]) for a, b in rels])
        counts[_same_verdict(p)] += 1
    assert counts[1] >= 1000


def _near_lattice(rng: random.Random) -> Poset:
    """A closure system on 3 to 7 atoms (random sets closed under
    intersection, with the full set) with 1 to 3 sets removed or added,
    ordered by inclusion, in a random labelling."""
    k = rng.randint(3, 7)
    sets = {(1 << k) - 1}
    for _ in range(rng.randint(1, 2 * k)):
        s = rng.getrandbits(k)
        sets |= {s & t for t in sets}
    for _ in range(rng.randint(1, 3)):
        if len(sets) > 1 and rng.random() < 0.5:
            sets.remove(rng.choice(sorted(sets)))
        else:
            sets.add(rng.getrandbits(k))
    members = sorted(sets)
    rng.shuffle(members)
    return poset_from_relations(len(members), [
        (a, b) for a, s in enumerate(members) for b, t in enumerate(members)
        if s != t and s & t == s])


def test_near_lattice_verdicts_match_table_check():
    # about 2700 draws: of their 1000 non-lattices, a certificate with (a)
    # dropped accepts 60, one that tests only consecutive pairs of lower
    # covers accepts 101, and one that tests pairs of upper covers accepts 176
    rng = random.Random(25)
    counts = [0, 0]
    while counts[0] < 1000:
        counts[_same_verdict(_near_lattice(rng))] += 1
    assert counts[1] >= 1000


# a non-lattice on 16 elements that an earlier key check, K(x) & K(m) a key
# for meet-irreducible x and m only, would accept; so does a check of the
# pairs of upper covers
SIXTEEN = {"n": 16, "covers": [
    [0, 1], [0, 2], [1, 3], [1, 4], [1, 10], [2, 5], [2, 6], [2, 11], [3, 7], [3, 9],
    [4, 7], [4, 11], [5, 8], [5, 9], [6, 8], [6, 10], [7, 13], [8, 12], [9, 12], [9, 13],
    [10, 12], [10, 14], [11, 13], [11, 14], [12, 15], [13, 15], [14, 15]]}


def test_sixteen_element_non_lattice_is_refused():
    # the table check agrees: it is a JSON case below
    p = poset_from_relations(16, SIXTEEN["covers"])
    assert _outcome(lattice_from_poset, p) == (1, 2, "join")


# (a) holds, but K(5) & K(6) = {1, 2} is no key: 5 and 6 have no meet, so
# 1 and 2 have no join
EIGHT = {"n": 8, "covers": [
    [0, 1], [0, 2], [1, 3], [2, 4], [3, 5], [2, 5], [1, 6], [4, 6], [5, 7], [6, 7]]}


def test_eight_element_non_lattice_is_refused():
    p = poset_from_relations(8, EIGHT["covers"])
    assert _outcome(lattice_from_poset, p) == (1, 2, "join")
    _same_verdict(p)


def _chain(n: int) -> Poset:
    return poset_from_relations(n, [(i, i + 1) for i in range(n - 1)])


def _tree(depth: int, downward: bool) -> Poset:
    """The complete binary tree of the given depth, heap-numbered from 1,
    with 0 added: the root on top and 0 under the leaves when downward,
    else the root at the bottom and 0 over the leaves."""
    n = 1 << depth
    edges = [(v, v // 2) for v in range(2, n)] + [(0, v) for v in range(n // 2, n)]
    return poset_from_relations(n, edges if downward else [(b, a) for a, b in edges])


def _thin_families():
    """Chains of 1 to 300 elements, M_k, 2 x k grids, chain_product(1, k)
    and binary trees of both orientations."""
    yield from map(_chain, range(1, 301))
    for k in range(1, 41):
        yield poset_from_relations(k + 2, [(0, a) for a in range(1, k + 1)]
                                   + [(a, k + 1) for a in range(1, k + 1)])
        yield poset_from_relations(2 * k, [(j, j + 1) for j in range(k - 1)]
                                   + [(k + j, k + j + 1) for j in range(k - 1)]
                                   + [(j, k + j) for j in range(k)])
        yield chain_product(1, k).poset
    for depth in range(1, 8):
        yield _tree(depth, True)
        yield _tree(depth, False)


def _moved(p: Poset, rng: random.Random) -> Poset:
    """p with one cover a < b replaced by a < c, for some c != b not below
    a, so that no cycle appears."""
    full = (1 << p.n) - 1
    targets = [full & ~p.down_mask(a) & ~(1 << b) for a, b in p.covers]
    i = rng.choice([i for i, mask in enumerate(targets) if mask])
    covers = list(p.covers)
    a, _ = covers.pop(i)
    return poset_from_relations(p.n, covers + [(a, rng.choice(list(_bits(targets[i]))))])


def test_thin_family_verdicts_match_table_check():
    # each family as it is, a lattice, and three near-lattice variants of
    # each one with three or more elements
    rng = random.Random(30)
    counts = [0, 0]
    for p in _thin_families():
        assert _same_verdict(p)
        for _ in range(3 if p.n > 2 else 0):
            counts[_same_verdict(_moved(p, rng))] += 1
    assert min(counts) >= 100


JSON_CASES = [
    {"n": 2, "covers": [[0, 1], [1, 0]]},  # a cycle
    {"n": 3, "covers": [[1, 0], [1, 2], [2, 1]]},  # a cycle reached from above
    {"n": 3, "covers": [[0, 3]]},  # out of range
    {"covers": []},
    {"n": True, "covers": []},
    {"n": 2, "covers": [[False, True]]},
    {"n": 2, "covers": [[0, True]]},
    {"n": 0, "covers": []},
    {"n": 1, "covers": []},
    {"n": 3, "covers": [[0, 1], [0, 2]]},
    {"n": 4, "covers": [[0, 2], [0, 3], [1, 2], [1, 3]]},
    [],
    SIXTEEN,
    EIGHT,
]


def _json_outcome(obj):
    try:
        l = lattice_from_json(obj)
    except (CycleDetected, InputError, NotALattice) as exc:
        return type(exc), exc.args
    return l.covers, l.meet.tolist(), l.join.tolist()


@pytest.mark.parametrize("obj", JSON_CASES, ids=range(len(JSON_CASES)))
def test_json_cases_match_table_check(obj, monkeypatch):
    got = _json_outcome(obj)
    monkeypatch.setattr(lattice, "lattice_from_poset", table_check_lattice_from_poset)
    assert got == _json_outcome(obj)


def _ideal_eager(q):
    masks, order = ideal_poset(q)
    return eager_lattice_from_ideal_masks(order, masks, q.n)


def test_first_read_tables_match_eager(small_posets, graph_lattices):
    # the families, the fixtures, and the sweep's ideal and graph lattices
    for q in small_posets:
        assert_same_lattice(order_ideals(q), _ideal_eager(q))
    for g, l in graph_lattices:
        assert_same_lattice(l, eager_lattice_from_graph(g))
    for name in sorted(fixture_manifest()):
        obj = fixture(name)
        if isinstance(obj, GaloisGraph):
            assert_same_lattice(lattice_from_graph(obj)[0], eager_lattice_from_graph(obj))
        else:
            assert_same_lattice(obj, table_check_lattice_from_poset(obj.poset))
    assert_same_lattice(boolean(7), _ideal_eager(antichain_poset(7)))
    assert_same_lattice(root_ideals(4), _ideal_eager(root_poset_A(4)))
    assert_same_lattice(chain_product(3, 4), _ideal_eager(product_of_chains_poset(3, 4)))
    assert_same_lattice(rational_dyck(3, 5), _ideal_eager(rational_dyck_poset(3, 5)))
    for l in (tamari(5), weak_order_S(4)):
        assert_same_lattice(l, table_check_lattice_from_poset(l.poset))
    # renumbered so that every cover (a, b) has a > b: the walk that builds
    # the tables runs against the index order
    for l in (tamari(5), weak_order_S(4), boolean(5), root_ideals(4), fixture("fig4")):
        new = {x: l.n - 1 - i for i, x in enumerate(oracle_canonical_extension(l.poset))}
        p = poset_from_relations(l.n, [(new[a], new[b]) for a, b in l.covers])
        assert all(a > b for a, b in p.covers)
        assert_same_lattice(lattice_from_poset(p), table_check_lattice_from_poset(p))


def test_tables_are_built_once_and_read_only():
    for make in (lambda: tamari(4), lambda: boolean(3), lambda: weak_order_S(3),
                 lambda: fixture("fig4"), lambda: lattice_from_graph(fixture("fig9_2cambrian"))[0]):
        l = make()
        meet, join = l.meet, l.join
        assert l.meet is meet and l.join is join
        for table in (meet, join):
            assert table.dtype == np.int32 and table.shape == (l.n, l.n)
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1
        with pytest.raises(AttributeError):
            l.meet = meet


def test_trim_pipeline_builds_no_tables(trim_collection):
    for name, shared in trim_collection + [("tamari(6)", tamari(6)), ("boolean(6)", boolean(6))]:
        # a fresh copy: other tests read the shared lattices' tables
        l = Lattice(shared.poset, shared.bottom, shared.top)
        idx = index_irreducibles(l)
        galois_graph(l, idx)
        assert is_trim(l) and complement_check(l), name
        rowmotion_global(l, left_modular_labelling(l))
        independence_complex(l)
        assert l._meet is None and l._join is None, name


def test_pair_masks_match_transposition(trim_collection):
    for name, l in trim_collection:
        idx = index_irreducibles(l)
        assert (list(idx.xj), list(idx.ym)) == oracle_transposed_masks(l, idx), name
