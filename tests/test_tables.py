"""The vectorised meet/join table kernel against the pure-Python builders it
replaced (kept in conftest as oracles): identical tables, covers, up/down
masks and names on the exhaustive sweeps, the families, intervals and
quotients, and the same NotALattice witness on every bounded poset."""

from __future__ import annotations

import numpy as np
import pytest

from trimlat import (
    GaloisGraph,
    NotALattice,
    all_congruences,
    boolean,
    chain_product,
    fixture,
    fixture_lattice,
    fixture_names,
    ideal_masks,
    interval,
    lattice_from_graph,
    lattice_from_poset,
    order_ideals,
    poset_from_relations,
    quotient,
    rational_dyck,
    rational_dyck_poset,
    root_ideals,
    root_poset_A,
    tamari,
    weak_order_S,
)
from trimlat import lattice
from trimlat.generators import antichain_poset, product_of_chains_poset
from conftest import (
    assert_same_lattice,
    oracle_interval,
    oracle_lattice_from_graph,
    oracle_lattice_from_ideal_masks,
    oracle_lattice_from_poset,
    oracle_weak_order_S,
)


def _ideal_oracle(q):
    return oracle_lattice_from_ideal_masks(q, ideal_masks(q))


def test_ideal_lattices_match_oracle(small_posets):
    for q in small_posets:
        assert_same_lattice(order_ideals(q), _ideal_oracle(q))


def test_graph_lattices_match_oracle(graph_lattices):
    for g, lat in graph_lattices:
        assert_same_lattice(lat, oracle_lattice_from_graph(g))


def test_fixtures_match_oracle():
    for name in fixture_names():
        obj = fixture(name)
        if isinstance(obj, GaloisGraph):
            assert_same_lattice(lattice_from_graph(obj)[0], oracle_lattice_from_graph(obj))
        else:
            assert_same_lattice(obj, oracle_lattice_from_poset(obj.poset))


def test_families_match_oracle():
    t = tamari(5)
    assert_same_lattice(t, oracle_lattice_from_poset(t.poset))
    assert_same_lattice(boolean(6), _ideal_oracle(antichain_poset(6)))
    assert_same_lattice(weak_order_S(4), oracle_weak_order_S(4))
    assert_same_lattice(root_ideals(4), _ideal_oracle(root_poset_A(4)))
    assert_same_lattice(chain_product(3, 3), _ideal_oracle(product_of_chains_poset(3, 3)))
    assert_same_lattice(rational_dyck(3, 5), _ideal_oracle(rational_dyck_poset(3, 5)))


def _assert_interval(l, a, b):
    got, members = interval(l, a, b)
    want, want_members = oracle_interval(l, a, b)
    assert members == want_members
    assert_same_lattice(got, want)


def test_intervals_match_oracle(small_posets, graph_lattices):
    # every interval of the figures; the lower and upper principal
    # intervals of the sweep lattices on <= 4 poset elements or labels
    for name in fixture_names():
        l = fixture_lattice(name)
        for a in range(l.n):
            for b in range(l.n):
                if l.leq(a, b):
                    _assert_interval(l, a, b)
    sweep = [order_ideals(q) for q in small_posets if q.n <= 4]
    sweep += [l for g, l in graph_lattices if g.n <= 4]
    for l in sweep:
        for x in range(l.n):
            _assert_interval(l, l.bottom, x)
            _assert_interval(l, x, l.top)


def test_quotients_match_oracle(small_posets, graph_lattices):
    small = [fixture(name) for name in ("fig1", "fig2", "fig3_left")]
    small += [order_ideals(q) for q in small_posets if q.n <= 3]
    small += [l for _, l in graph_lattices if l.n <= 6]
    for l in small:
        for c in all_congruences(l):
            q, _ = quotient(l, c)
            assert_same_lattice(q, oracle_lattice_from_poset(q.poset, names=q.names))


def test_multiword_keys():
    # 70 labels with every edge i -> k: a 71-element chain whose X and Y
    # masks, and the 70 join-irreducibles of its poset, need two words
    g = GaloisGraph(70, frozenset((i, k) for i in range(1, 71) for k in range(1, i)))
    chain = lattice_from_graph(g)[0]
    assert chain.n == 71 and len(chain.covers) == 70
    assert_same_lattice(chain, oracle_lattice_from_graph(g))
    assert_same_lattice(lattice_from_poset(chain.poset), oracle_lattice_from_poset(chain.poset))
    _assert_interval(chain, 3, 68)
    # bottom, 70 atoms, top: the lattice M_70; with two coatoms above all
    # atoms instead of one top, pairs of atoms have no least upper bound
    m70 = poset_from_relations(72, [(0, a) for a in range(1, 71)]
                               + [(a, 71) for a in range(1, 71)])
    assert_same_lattice(lattice_from_poset(m70), oracle_lattice_from_poset(m70))
    bad = poset_from_relations(74, [(0, a) for a in range(1, 71)]
                               + [(a, c) for a in range(1, 71) for c in (71, 72)]
                               + [(71, 73), (72, 73)])
    assert not _assert_same_outcome(bad)


def test_several_row_blocks():
    # past 128 elements a table takes several row blocks; each is looked up
    # on and above its first row, and the rest is copied across the diagonal
    chain = poset_from_relations(150, [(i, i + 1) for i in range(149)])
    for p in (tamari(6).poset, boolean(8).poset, chain):
        assert p.n > 128
        assert_same_lattice(lattice_from_poset(p), oracle_lattice_from_poset(p))
    assert_same_lattice(boolean(8), _ideal_oracle(antichain_poset(8)))
    # M_140 with two coatoms in place of its top
    bad = poset_from_relations(144, [(0, a) for a in range(1, 141)]
                               + [(a, c) for a in range(1, 141) for c in (141, 142)]
                               + [(141, 143), (142, 143)])
    assert not _assert_same_outcome(bad)


@pytest.mark.parametrize("mixer", [
    lambda words: np.zeros_like(words[0]),
    lambda words: words[-1] & np.uint64(3),
], ids=["one mix", "four mixes"])
def test_colliding_mixes(monkeypatch, mixer):
    # keys that share a mix are told apart by their words: the one- and
    # two-word keys of the figures, the 71-element chain, M_70 and the
    # tables of several row blocks are the same, and bounded non-lattices
    # name the same witness
    monkeypatch.setattr(lattice, "_mix", mixer)
    test_fixtures_match_oracle()
    test_multiword_keys()
    test_several_row_blocks()
    for relations, witness in WITNESS_CASES:
        test_witness_cases(relations, witness)


def _outcome(build, p):
    try:
        return build(p)
    except NotALattice as exc:
        return (exc.x, exc.y, exc.kind)


def _assert_same_outcome(p) -> bool:
    """Same lattice or the same NotALattice witness; True for a lattice."""
    got = _outcome(lattice_from_poset, p)
    want = _outcome(oracle_lattice_from_poset, p)
    if isinstance(want, tuple):
        assert got == want
        return False
    assert_same_lattice(got, want)
    return True


def test_not_a_lattice_witness(small_posets):
    # a new bottom 0 and top n+1 around every poset on <= 5 elements, once
    # with the index order a linear extension and once with it reversed
    lattices = flipped = 0
    for q in small_posets:
        n = q.n
        rels = [(0, a + 1) for a in range(n)] + [(a + 1, n + 1) for a in range(n)]
        rels += [(a + 1, b + 1) for a, b in q.covers]
        lattices += _assert_same_outcome(poset_from_relations(n + 2, rels))
        flipped += _assert_same_outcome(poset_from_relations(
            n + 2, [(n + 1 - a, n + 1 - b) for a, b in rels]))
    assert (len(small_posets), len(small_posets) - lattices, flipped) == (407, 38, lattices)


WITNESS_CASES = [
    ([(0, 1), (0, 2)], (1, 2, "join")),
    ([(0, 2), (0, 3), (1, 2), (1, 3)], (0, 1, "meet")),
    # bounded, with 1 and 2 below both 5 and 6; every AND of M-keys is a
    # key and each key looks up its own element, but M(3) is inside M(1),
    # so the candidate join of 1 and 3 is 3, not above 1
    ([(0, 1), (0, 2), (2, 3), (1, 4), (1, 5), (3, 5), (3, 6), (4, 6),
      (5, 7), (6, 7)], (1, 2, "join")),
]


@pytest.mark.parametrize("relations, witness", WITNESS_CASES)
def test_witness_cases(relations, witness):
    n = 1 + max(b for _, b in relations)
    p = poset_from_relations(n, relations)
    assert _outcome(lattice_from_poset, p) == _outcome(oracle_lattice_from_poset, p) == witness
