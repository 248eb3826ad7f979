"""Acceptance criteria.

Each test exercises one acceptance criterion exactly as stated (exact
values, stated runtime budgets) over the exhaustive desk-scale collections
from conftest, and prints one PASS line with the sweep sizes.
"""

from __future__ import annotations

import time
from math import comb, gcd

from trimlat import (
    down_up_labels,
    element_pair,
    fixture,
    galois_graph,
    ideal_rowmotion,
    independence_complex,
    independent_sets,
    index_irreducibles,
    is_EL,
    is_extremal,
    is_interpolating,
    is_semidistributive,
    is_trim,
    is_trim_definitional,
    lattice_from_graph,
    left_modular_labelling,
    linear_extensions,
    order_ideals,
    rational_dyck_poset,
    root_ideals,
    chain_product,
    rowmotion_global,
    rowmotion_slow,
    semidistributive_labelling,
    tamari,
    undirected,
    weak_order_S,
)
from trimlat.figures import verify_figures
from trimlat.galois import decompose
from trimlat.labelling import ThreeWayMismatch, _three_formula_labels
from trimlat.poset import ideal_masks


def _passline(k: int, msg: str) -> None:
    print(f"ACCEPTANCE {k} PASS: {msg}")


def _extensions_for(l, gamma, cap_labels: int = 8, sample: int = 60):
    """All linear extensions of the label poset when it has at most
    cap_labels elements, else a deterministic mixed sample (lex-first plus
    seeded random topological sorts)."""
    p = gamma.label_poset
    if p.n <= cap_labels:
        return [tuple(e + 1 for e in ext)
                for ext in linear_extensions(p, 10 ** 9)]
    out = {tuple(e + 1 for e in ext)
           for ext in linear_extensions(p, sample // 2)}
    rng = __import__("random").Random(0)
    full = (1 << p.n) - 1
    for _ in range(sample // 2):
        remaining, ext = full, []
        while remaining:
            ready = [x for x in range(p.n)
                     if remaining >> x & 1 and p.down_mask(x) & remaining == 1 << x]
            x = rng.choice(ready)
            ext.append(x + 1)
            remaining ^= 1 << x
        out.add(tuple(ext))
    return sorted(out)


def test_criterion_1_figure_replay():
    t0 = time.perf_counter()
    results = verify_figures()
    elapsed = time.perf_counter() - t0
    failures = [(name, msgs) for name, msgs in results if msgs]
    assert not failures, failures
    assert elapsed < 1.0, f"figure replay took {elapsed:.2f}s (budget 1s)"
    _passline(1, f"all {len(results)} figure replays exact in {elapsed:.2f}s")


def test_criterion_2_slow_motion_equals_global(trim_collection):
    t0 = time.perf_counter()
    lattices = exts_total = 0
    for name, l in trim_collection:
        gamma = left_modular_labelling(l)
        row = rowmotion_global(l, gamma)
        exts = _extensions_for(l, gamma)
        assert exts, name
        for ext in exts:
            assert rowmotion_slow(l, gamma, ext) == row, (name, ext)
        lattices += 1
        exts_total += len(exts)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"{elapsed:.1f}s (budget 2min)"
    _passline(2, f"slow = global on {lattices} trim lattices, "
                 f"{exts_total} linear extensions, {elapsed:.1f}s")


def test_criterion_3_extremal_semidistributive_are_trim(graph_lattices):
    t0 = time.perf_counter()
    checked = 0
    for g, l in graph_lattices:
        assert is_extremal(l)
        if is_semidistributive(l):
            assert is_trim(l), sorted(g.edges)
            assert is_trim_definitional(l), sorted(g.edges)
            checked += 1
    for n in range(1, 6):
        l = tamari(n)
        assert is_extremal(l) and is_semidistributive(l)
        assert is_trim(l) and is_trim_definitional(l)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"{elapsed:.1f}s (budget 2min)"
    _passline(3, f"{checked} extremal semidistributive lattices all trim "
                 f"(both code paths), {elapsed:.1f}s")


def _assert_round_trip(l) -> None:
    idx = index_irreducibles(l)
    lat2, pairs = lattice_from_graph(galois_graph(l, idx))
    assert lat2.n == l.n
    where = {(p.X, p.Y): i for i, p in enumerate(pairs)}
    iso = [where[(p.X, p.Y)]
           for p in (element_pair(l, x, idx) for x in range(l.n))]
    assert sorted(iso) == list(range(l.n))
    assert {(iso[a], iso[b]) for a, b in l.covers} == set(lat2.covers)


def test_criterion_4_reconstruction_round_trip(small_posets, graph_lattices,
                                               fixture_trim_lattices):
    count = 0
    extremal_fixtures = [fixture("fig7_left")] + [l for _, l in fixture_trim_lattices]
    for l in extremal_fixtures:
        _assert_round_trip(l)
        count += 1
    for q in small_posets:
        _assert_round_trip(order_ideals(q))
        count += 1
    for n in range(1, 6):
        _assert_round_trip(tamari(n))
        count += 1
    for _, l in graph_lattices:
        _assert_round_trip(l)
        count += 1
    _passline(4, f"Galois round trip exact on {count} extremal lattices")


def test_criterion_5_complement_and_counts(trim_collection):
    for name, l in trim_collection:
        g = undirected(galois_graph(l))
        comp = independence_complex(l)
        skel = comp.skeleton_edges()
        assert not (g.edges & skel), name
        assert len(g.edges) + len(skel) == comb(g.n, 2), name
        assert len(independent_sets(g)) == l.n, name
        assert comp.faces == independent_sets(g), name
    l7 = fixture("fig7_left")
    n_ind = len(independent_sets(undirected(galois_graph(l7))))
    assert l7.n == 9 and n_ind == 8 and l7.n != n_ind
    _passline(5, f"complementation and counts exact on {len(trim_collection)} "
                 f"trim lattices; negative control 9 != 8 confirmed")


def _lattice_rowmotion_order(l) -> int:
    return rowmotion_global(l, left_modular_labelling(l)).order


def test_criterion_6_family_orders():
    t0 = time.perf_counter()
    for n in (2, 3, 4):
        assert _lattice_rowmotion_order(root_ideals(n)) == 2 * (n + 1), n
    for a, b in ((2, 2), (2, 3), (3, 3)):
        assert _lattice_rowmotion_order(chain_product(a, b)) == a + b, (a, b)
    # rational Dyck paths: exact order a+b-1 for coprime a, b >= 3 with at
    # most 1000 elements; for a <= 2 the lattice is a chain and the order
    # only divides a+b-1 (see the decisions ledger)
    swept = 0
    for a in range(1, 9):
        for b in range(a + 1, 100):
            if gcd(a, b) != 1:
                continue
            n_paths = comb(a + b, a) // (a + b)
            if n_paths > 1000:
                continue
            q = rational_dyck_poset(a, b)
            perm = ideal_rowmotion(q, ideal_masks(q))
            if a >= 3:
                assert perm.order == a + b - 1, (a, b, perm.order)
            else:
                assert (a + b - 1) % perm.order == 0, (a, b, perm.order)
            swept += 1
    lat2c, _ = lattice_from_graph(fixture("fig9_2cambrian"))
    assert _lattice_rowmotion_order(lat2c) == 9
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"{elapsed:.1f}s (budget 1min)"
    _passline(6, f"root-poset orders 6/8/10, minuscule orders a+b, "
                 f"{swept} rational Dyck pairs, m-Cambrian order 9; {elapsed:.1f}s")


def test_criterion_7_weak_order_orbits():
    t0 = time.perf_counter()
    want = {2: 2, 3: 4, 4: 12, 5: 20}
    for n, m in want.items():
        l = weak_order_S(n)
        sdl = semidistributive_labelling(l)
        row = rowmotion_global(l, sdl.gamma_j)
        assert max(row.cycle_type) == m, (n, row.cycle_type)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"{elapsed:.1f}s (budget 1min)"
    _passline(7, f"weak-order maximum orbits 2/4/12/20 for n=2..5, {elapsed:.1f}s")


def test_criterion_8_labelling_suite(trim_collection):
    t0 = time.perf_counter()
    for name, l in trim_collection:
        idx = index_irreducibles(l)
        gamma = left_modular_labelling(l, idx.chain)
        # the overlap labels agree with the three label formulas on every cover
        try:
            assert gamma.labels == _three_formula_labels(l, idx.chain.elements), name
        except ThreeWayMismatch as exc:  # pragma: no cover
            raise AssertionError(f"{name}: {exc}") from exc
        assert is_EL(l, gamma), name
        assert is_interpolating(l, gamma), name
        sets = down_up_labels(l, gamma)
        for x in range(l.n):
            assert l.join_all(idx.j[i - 1] for i in sets.down[x]) == x, name
            assert l.meet_all(idx.m[i - 1] for i in sets.up[x]) == x, name
        if l.n > 1:
            _check_decomposition_lemmas(l, idx, gamma, sets)
    elapsed = time.perf_counter() - t0
    _passline(8, f"labelling suite exact on {len(trim_collection)} trim "
                 f"lattices, {elapsed:.1f}s")


def _check_decomposition_lemmas(l, idx, gamma, sets) -> None:
    (l1, low), (lup, up) = decompose(l)
    low_set = set(low)
    j1 = idx.j[0]
    for y in range(l.n):
        assert (y in low_set) == (1 in sets.up[y])
    for y in low:
        z = l.join_of(y, j1)
        assert z in l.upper_covers(y)
        assert sets.down[z] == sets.down[y] | {1}
    up_set = set(up)
    for x in up:
        restricted = frozenset(gamma.labels[(y, x)]
                               for y in l.lower_covers(x) if y in up_set)
        assert restricted == sets.down[x] - {1}


def test_criterion_9_distributive_oracle(small_posets):
    count = 0
    for q in small_posets:
        l = order_ideals(q)
        row = rowmotion_global(l, left_modular_labelling(l))
        assert row == ideal_rowmotion(q, ideal_masks(q)), q
        count += 1
    _passline(9, f"label rowmotion equals the antichain oracle on J(Q) "
                 f"for all {count} posets with at most 5 elements")
