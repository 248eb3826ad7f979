"""Library algorithms read only covers and masks: with the table kernel
patched to raise, the figure replays, the graph lattices, congruences and
quotients, the three-formula labels and the NotALattice witness all run,
and each equals its oracle (the table reads and the pairwise containment
they replaced, kept in conftest)."""

from __future__ import annotations

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from trimlat import (
    Lattice,
    NotACongruence,
    NotALattice,
    ThreeWayMismatch,
    congruence,
    fixture,
    index_irreducibles,
    is_extremal,
    is_left_modular_lattice,
    is_trim,
    lattice_from_graph,
    lattice_from_poset,
    left_modular_labelling,
    max_orth_pairs,
    order_ideals,
    poset_from_relations,
    quotient,
    verify_figures,
)
from trimlat import lattice
from trimlat.figures import FIGURE_CHECKS
from conftest import (
    _set_partitions,
    assert_same_lattice,
    oracle_congruence,
    oracle_lattice_from_graph,
    oracle_lattice_from_poset,
    oracle_three_formula_labels,
)


def _refuse(*args):
    raise AssertionError("meet/join tables were built")


@contextmanager
def no_tables():
    """Every read of Lattice.meet or Lattice.join fails inside."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_tables", _refuse)
        yield


def _fresh(l: Lattice) -> Lattice:
    """A copy of l without its tables: other tests read the shared ones."""
    return Lattice(l.poset, l.bottom, l.top)


def _same_order(got: Lattice, want: Lattice) -> None:
    assert got.covers == want.covers
    assert (got.poset._up, got.poset._down) == (want.poset._up, want.poset._down)
    assert (got.bottom, got.top) == (want.bottom, want.top)


def test_tables_refused_inside():
    l = _fresh(fixture("fig2"))
    with no_tables(), pytest.raises(AssertionError, match="tables were built"):
        l.meet_of(1, 2)


def test_verify_figures_builds_no_tables():
    with no_tables():
        results = verify_figures()
    assert results == [(name, []) for name in sorted(FIGURE_CHECKS)]


def test_graph_lattices_build_no_tables(small_graphs):
    with no_tables():
        built = [lattice_from_graph(g) for g in small_graphs]
    for g, (l, pairs) in zip(small_graphs, built):
        assert_same_lattice(l, oracle_lattice_from_graph(g))
        assert pairs == max_orth_pairs(g)
    # two-word X masks, and the figure graphs
    for g in (fixture("fig9_grid_tamari"), fixture("fig9_2cambrian")):
        with no_tables():
            l = lattice_from_graph(g)[0]
        assert_same_lattice(l, oracle_lattice_from_graph(g))


def _congruence_outcome(l: Lattice, part, check):
    try:
        return check(l, part).classes
    except NotACongruence as exc:
        return exc.witness


def test_congruences_and_quotients_read_no_tables(small_posets, graph_lattices):
    small = [fixture(name) for name in ("fig1", "fig2", "fig3_left")]
    small += [order_ideals(q) for q in small_posets if q.n <= 3]
    small += [l for _, l in graph_lattices if l.n <= 6]
    congruences = rejected = 0
    for shared in small:
        l = _fresh(shared)
        eager = oracle_lattice_from_poset(l.poset)
        for part in _set_partitions(list(range(l.n))):
            with no_tables():
                got = _congruence_outcome(l, part, congruence)
            assert got == _congruence_outcome(eager, part, oracle_congruence), part
            if isinstance(got[-1], str):
                rejected += 1
                continue
            congruences += 1
            with no_tables():
                q, classes = quotient(l, congruence(l, part))
            assert classes == got
            assert_same_lattice(q, oracle_lattice_from_poset(q.poset))
    assert (congruences, rejected) == (271, 7876)


def _label_outcome(make):
    try:
        return make()
    except ThreeWayMismatch as exc:
        return exc.cover, exc.values


def test_three_formula_labels_read_no_tables(property_lattices):
    # every lattice that is not trim but has a chain to label along: a
    # left-modular chain (not extremal), or the indexing's chain (extremal,
    # not left modular, so the formulas disagree)
    labelled = mismatched = 0
    for label, shared in property_lattices:
        if is_trim(shared):
            continue
        chain = (index_irreducibles(shared).chain if is_extremal(shared)
                 else is_left_modular_lattice(shared))
        if chain is None:
            continue
        l = _fresh(shared)
        with no_tables():
            got = _label_outcome(lambda: left_modular_labelling(l).labels)
        assert got == _label_outcome(
            lambda: oracle_three_formula_labels(shared, chain.elements)), label
        if isinstance(got, dict):
            labelled += 1
        else:
            mismatched += 1
    assert (labelled, mismatched) == (202, 71)


def _lattice_outcome(p):
    try:
        return lattice_from_poset(p)
    except NotALattice as exc:
        return exc.x, exc.y, exc.kind


def _assert_same_outcome(p) -> bool:
    """The mask check, with no tables, against the pairwise scan: the same
    NotALattice arguments, or the same order; True for a lattice."""
    with no_tables():
        got = _lattice_outcome(p)
    try:
        want = oracle_lattice_from_poset(p)
    except NotALattice as exc:
        assert got == (exc.x, exc.y, exc.kind), p
        return False
    _same_order(got, want)
    return True


def test_not_a_lattice_witness_reads_no_tables(small_posets):
    # a bottom and a top around every sweep poset, in the index order and
    # reversed
    lattices = 0
    for q in small_posets:
        n = q.n
        rels = [(0, a + 1) for a in range(n)] + [(a + 1, n + 1) for a in range(n)]
        rels += [(a + 1, b + 1) for a, b in q.covers]
        lattices += _assert_same_outcome(poset_from_relations(n + 2, rels))
        lattices += _assert_same_outcome(poset_from_relations(
            n + 2, [(n + 1 - a, n + 1 - b) for a, b in rels]))
    assert lattices == 2 * (len(small_posets) - 38)


BOWTIE = [(6, 2), (6, 3), (2, 0), (2, 1), (3, 0), (3, 1), (0, 4), (0, 5), (1, 4), (1, 5),
          (4, 7), (5, 7)]


def test_witness_names_join_before_meet():
    # 0 and 1 have two maximal lower bounds (2, 3) and two minimal upper
    # bounds (4, 5): the first pair fails both ways and is named "join", as
    # in every labelling where it comes before the pairs 2, 3 and 4, 5
    p = poset_from_relations(8, BOWTIE)
    assert not _assert_same_outcome(p)
    assert _lattice_outcome(p) == (0, 1, "join")
    rng = random.Random(19)
    first = 0
    for _ in range(200):
        perm = rng.sample(range(8), 8)
        p = poset_from_relations(8, [(perm[a], perm[b]) for a, b in BOWTIE])
        assert not _assert_same_outcome(p)
        first += _lattice_outcome(p) == (*sorted(perm[:2]), "join")
    assert first == 68


@settings(derandomize=True, max_examples=300, deadline=None)
@given(n=st.integers(6, 9), seed=st.integers(0, 2 ** 32 - 1))
def test_seeded_bounded_witnesses(n, seed):
    """Bounded posets on 6-9 elements that are not lattices: a bottom and a
    top around a seeded poset on n - 2 elements, in a seeded labelling,
    drawn again until the pairwise scan rejects it; the mask check names
    the same first failing pair and side."""
    rng = random.Random(seed)
    while True:
        density = rng.random()
        relations = [(a + 1, b + 1) for a in range(n - 2) for b in range(a + 1, n - 2)
                     if rng.random() < density]
        relations += [(0, a) for a in range(1, n - 1)] + [(a, n - 1) for a in range(1, n - 1)]
        perm = rng.sample(range(n), n)
        if not _assert_same_outcome(poset_from_relations(
                n, [(perm[a], perm[b]) for a, b in relations])):
            return
