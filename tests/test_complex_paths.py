"""The label-bitmask paths of the trim pipeline against the frozenset code
they replaced (the oracles in conftest): independence complexes, the
complement check, independent sets, down/up label sets and global
rowmotion, with their errors; a seeded sweep of Galois graphs past the
exhaustive ones; and the single longest-path pass of the trim entry
points."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    oracle_complement_check,
    oracle_down_up_labels,
    oracle_independence_complex,
    oracle_independent_sets,
    oracle_label_complex,
    oracle_rowmotion_global,
)
from trimlat import (
    GaloisGraph,
    NotDescriptive,
    NotTrim,
    SimpleGraph,
    SizeLimitExceeded,
    boolean,
    complement_check,
    down_up_labels,
    fixture,
    fixture_lattice,
    galois_graph,
    independence_complex,
    independent_sets,
    is_descriptive,
    is_semidistributive,
    is_trim,
    lattice_from_graph,
    lattice_from_poset,
    left_modular_labelling,
    poset_from_relations,
    rowmotion_global,
    rowmotion_slow,
    semidistributive_labelling,
    tamari,
    undirected,
)
from trimlat import lattice
from trimlat.complexes import _label_family
from trimlat.errors import TrimlatError
from trimlat.poset import _bits


def _outcome(fn, *args, **kwargs):
    """("ok", result) or the error's type and message."""
    try:
        return "ok", fn(*args, **kwargs)
    except (TrimlatError, ValueError) as exc:
        return type(exc), str(exc)


def _row_outcome(fn, l, labelling):
    """A rowmotion outcome with the permutation as its forward map and
    cycles."""
    kind, got = _outcome(fn, l, labelling)
    return (kind, got.forward, got.cycles) if kind == "ok" else (kind, got)


def _sets_outcome(l, labelling):
    kind, got = _outcome(down_up_labels, l, labelling)
    return (kind, got.down, got.up) if kind == "ok" else (kind, got)


def _oracle_sets_outcome(l, labelling):
    kind, got = _outcome(oracle_down_up_labels, l, labelling)
    return (kind, *got) if kind == "ok" else (kind, got)


def _assert_labelling_paths(name, l, labelling):
    assert (_row_outcome(rowmotion_global, l, labelling)
            == _row_outcome(oracle_rowmotion_global, l, labelling)), name
    assert _sets_outcome(l, labelling) == _oracle_sets_outcome(l, labelling), name


def test_trim_paths_match_frozenset_oracles(trim_collection):
    assert len(trim_collection) > 1000
    for name, l in trim_collection:
        comp = independence_complex(l)
        want = oracle_independence_complex(l)
        assert comp == want, name
        assert comp.skeleton_edges() == want.skeleton_edges(), name
        assert complement_check(l) is oracle_complement_check(l) is True, name
        g = undirected(galois_graph(l))
        assert independent_sets(g) == oracle_independent_sets(g), name
        _assert_labelling_paths(name, l, left_modular_labelling(l))
        if is_semidistributive(l):
            _assert_labelling_paths(name, l, semidistributive_labelling(l).gamma_j)


def test_non_trim_outcomes_match_oracles(graph_lattices):
    """Every lattice of a small Galois graph and every figure, trim or not:
    the same faces or the same error, and the semidistributive labelling's
    rowmotion or its error."""
    lattices = [(f"L({sorted(g.edges)} on {g.n})", l) for g, l in graph_lattices]
    lattices += [(name, fixture_lattice(name))
                 for name in ("fig3_right", "fig7_left", "fig7_right", "fig8")]
    not_trim = 0
    for name, l in lattices:
        got = _outcome(independence_complex, l)
        assert got == _outcome(oracle_independence_complex, l), name
        assert _outcome(complement_check, l) == _outcome(oracle_complement_check, l), name
        not_trim += got[0] is NotTrim
        if is_semidistributive(l):
            _assert_labelling_paths(name, l, semidistributive_labelling(l).gamma_j)
    assert not_trim > 50


def test_errors_match_oracles():
    # not trim: extremal with a non-overlapping cover, and not extremal
    for name in ("fig7_left", "fig3_right"):
        l = fixture(name)
        for fn, oracle in ((independence_complex, oracle_independence_complex),
                           (complement_check, oracle_complement_check)):
            got = _outcome(fn, l)
            assert got[0] is NotTrim and got == _outcome(oracle, l), (name, fn)

    # a label repeated around the bottom of the square
    square = boolean(2)
    same = dict.fromkeys(square.covers, 1)
    got = _outcome(_label_family, square, [1] * len(square.covers))
    assert got == (ValueError, "labelling not defined (or not distinct) around 0")
    assert got == _outcome(oracle_label_complex, square, same)
    _assert_labelling_paths("repeated", square, same)
    assert not is_descriptive(square, same)

    # not descriptive: a down-label set that is no up-label set, and two
    # elements sharing their up-labels
    chain3 = lattice_from_poset(poset_from_relations(3, [(0, 1), (1, 2)]))
    for l, labels, message in (
            (square, {(0, 1): 1, (0, 2): 2, (1, 3): 3, (2, 3): 1},
             "down-labels of 2 match no up-label set"),
            (chain3, {(0, 1): 1, (1, 2): 1}, "elements 0 and 1 share up-labels")):
        assert _outcome(rowmotion_global, l, labels) == (NotDescriptive, message)
        _assert_labelling_paths(message, l, labels)
        assert not is_descriptive(l, labels)

    # the cap on independent sets trips at the same count
    for g in (SimpleGraph(5, frozenset()),
              SimpleGraph(6, frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)}))):
        for cap in (0, 1, 7, 20, 21, 32):
            got = _outcome(independent_sets, g, cap)
            assert got == _outcome(oracle_independent_sets, g, cap), (g, cap)
        assert _outcome(independent_sets, g, 7)[0] is SizeLimitExceeded


def _random_extension(rng: random.Random, q) -> tuple[int, ...]:
    """A linear extension of the label poset q as labels 1..n, minimal
    labels first, each step a uniform choice among the minimal ones left."""
    left = (1 << q.n) - 1
    out = []
    while left:
        x = rng.choice([x for x in _bits(left) if q.down_mask(x) & left == 1 << x])
        out.append(x + 1)
        left ^= 1 << x
    return tuple(out)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(n=st.integers(6, 9), seed=st.integers(0, 2 ** 32 - 1))
def test_seeded_graph_complexes(n, seed):
    """Galois graphs on 6-9 vertices with a seeded edge density: on each
    semidistributive (so trim) lattice the complex is the family of
    independent sets, complementation holds, the graph comes back, and slow
    rowmotion along seeded linear extensions is global rowmotion."""
    rng = random.Random(seed)
    density = rng.random()
    g = GaloisGraph(n, frozenset((i, k) for i in range(1, n + 1) for k in range(1, i)
                                 if rng.random() < density))
    l = lattice_from_graph(g)[0]
    if not is_semidistributive(l):
        return
    assert is_trim(l)
    assert independence_complex(l).faces == independent_sets(undirected(g))
    assert complement_check(l)
    assert galois_graph(l) == g
    gamma = left_modular_labelling(l)
    row = rowmotion_global(l, gamma)
    for _ in range(3):
        assert rowmotion_slow(l, gamma, _random_extension(rng, gamma.label_poset)) == row


@pytest.mark.parametrize("build", [lambda: fixture("fig4"), lambda: tamari(5),
                                   lambda: boolean(4)])
def test_trim_entry_points_take_one_longest_path_pass(build, monkeypatch):
    calls = []
    longest_paths = lattice._longest_paths

    def counted(*args):
        calls.append(args)
        return longest_paths(*args)

    monkeypatch.setattr(lattice, "_longest_paths", counted)
    entry_points = (is_trim, independence_complex, complement_check, left_modular_labelling)
    for fn in entry_points:
        calls.clear()
        fn(build())
        assert len(calls) == 1, fn.__name__
    # the pass is kept on the lattice: all four on one lattice take one
    l = build()
    calls.clear()
    for fn in entry_points:
        fn(l)
    assert len(calls) == 1
