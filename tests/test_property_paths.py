"""The property predicates' irreducible tests against the scans they
replaced (the oracles in conftest): distributive and semidistributive
verdicts and witnesses, left-modular element sets and chains, and
semidistributive labellings with their dict order and error arguments."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from trimlat import (
    GaloisGraph,
    NotALattice,
    NotSemidistributive,
    is_distributive,
    is_extremal,
    is_left_modular_element,
    is_left_modular_lattice,
    is_semidistributive,
    is_trim,
    lattice_from_graph,
    lattice_from_poset,
    poset_from_relations,
    semidistributive_labelling,
)
from conftest import (
    left_modular_elements,
    oracle_is_distributive,
    oracle_is_semidistributive,
    oracle_left_modular_chain,
    oracle_left_modular_elements,
    oracle_semidistributive_labelling,
)


def _labelling_outcome(fn, l):
    """The three dicts as item lists (so order counts), or the error."""
    try:
        got = fn(l)
    except NotSemidistributive as exc:
        return "error", exc.cover, exc.side, exc.witnesses, exc.args
    if not isinstance(got, tuple):
        got = (got.gamma_j, got.gamma_m, got.kappa)
    return tuple(list(d.items()) for d in got)


def _check_against_oracles(label, l) -> tuple[bool, bool]:
    dist = oracle_is_distributive(l)
    assert is_distributive(l, witness=True) == dist, label
    assert is_distributive(l) == dist[0], label
    semi = oracle_is_semidistributive(l)
    assert is_semidistributive(l, witness=True) == semi, label
    assert is_semidistributive(l) == semi[0], label
    lm = oracle_left_modular_elements(l)
    assert left_modular_elements(l) == lm, label
    assert is_left_modular_element(l, l.top) == (l.top in lm), label
    assert is_left_modular_lattice(l) == oracle_left_modular_chain(l), label
    labelling = _labelling_outcome(semidistributive_labelling, l)
    assert labelling == _labelling_outcome(oracle_semidistributive_labelling, l), label
    assert (labelling[0] == "error") == (not semi[0]), label
    return dist[0], semi[0]


def _m3_on_cube(k: int):
    """The subsets of {0, ..., k-1}, each numbered by its bitmask, with M3
    put on the full set: semidistributivity first fails at x = 2**k, the
    first atom of M3, after every element of the cube."""
    n = 1 << k
    covers = [(a, a | 1 << i) for a in range(n) for i in range(k) if not a >> i & 1]
    covers += [(n - 1, n), (n - 1, n + 1), (n - 1, n + 2), (n, n + 3), (n + 1, n + 3),
               (n + 2, n + 3)]
    return lattice_from_poset(poset_from_relations(n + 4, covers))


def test_late_semidistributive_witness():
    for k in range(7):
        l = _m3_on_cube(k)
        x = 1 << k
        assert is_semidistributive(l, witness=True) == (False, ("join", x, x + 1, x + 2)), k
        _check_against_oracles(f"M3 on boolean({k})", l)


def test_meet_side_semidistributive_witness():
    # bounded(poset16) of the n <= 5 sweep: both laws hold at x = 0 and 1,
    # and at x = 2 the join law holds and the meet law fails
    l = lattice_from_poset(poset_from_relations(
        6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)]))
    assert is_semidistributive(l, witness=True) == (False, ("meet", 2, 3, 4))
    _check_against_oracles("bounded(poset16)", l)


def test_property_paths_match_oracles(property_lattices):
    assert len(property_lattices) > 1890
    verdicts = [_check_against_oracles(label, l) for label, l in property_lattices]
    # both branches of each test ran on many inputs
    assert sum(not d for d, _ in verdicts) > 1000
    assert sum(not s for _, s in verdicts) > 350
    assert sum(s for _, s in verdicts) > 1500


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(6, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_seeded_graph_lattices(n, seed):
    """Galois graphs on 6-8 vertices, past the exhaustive sweeps, with a
    seeded edge density; extremal and semidistributive implies trim."""
    rng = random.Random(seed)
    density = rng.random()
    edges = frozenset((i, k) for i in range(1, n + 1) for k in range(1, i)
                      if rng.random() < density)
    l = lattice_from_graph(GaloisGraph(n, edges))[0]
    _, semi = _check_against_oracles(f"graph {sorted(edges)} on {n}", l)
    if is_extremal(l) and semi:
        assert is_trim(l)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(n=st.integers(6, 9), seed=st.integers(0, 2 ** 32 - 1))
def test_seeded_bounded_lattices(n, seed):
    """Bounded posets on 6-9 elements: a bottom and a top put around a
    seeded poset on n - 2 elements, in a seeded labelling, drawn again until
    it is a lattice.  Most are not extremal, so the left-modular chain
    search runs beyond the n <= 5 sweeps."""
    rng = random.Random(seed)
    while True:
        density = rng.random()
        relations = [(a + 1, b + 1) for a in range(n - 2) for b in range(a + 1, n - 2)
                     if rng.random() < density]
        relations += [(0, a) for a in range(1, n - 1)] + [(a, n - 1) for a in range(1, n - 1)]
        perm = rng.sample(range(n), n)
        try:
            l = lattice_from_poset(poset_from_relations(n, [(perm[a], perm[b])
                                                            for a, b in relations]))
        except NotALattice:
            continue
        _check_against_oracles(f"bounded {sorted(relations)} on {n} as {perm}", l)
        return
