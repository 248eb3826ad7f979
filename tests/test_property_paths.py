"""The property predicates' irreducible tests against the scans they
replaced (the oracles in conftest): distributive and semidistributive
verdicts and witnesses, left-modular element sets and chains, and
semidistributive labellings with their dict order and error arguments."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from trimlat import (
    GaloisGraph,
    NotSemidistributive,
    is_distributive,
    is_extremal,
    is_left_modular_element,
    is_left_modular_lattice,
    is_semidistributive,
    is_trim,
    lattice_from_graph,
    semidistributive_labelling,
)
from trimlat.lattice import left_modular_elements
from conftest import (
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
