"""Irreducible indexing, Galois graphs, maximal orthogonal pairs,
reconstruction, overlapping covers, and the trim decomposition."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from trimlat import (
    GaloisGraph,
    NotExtremal,
    NotTrim,
    boolean,
    decompose,
    element_pair,
    fixture,
    galois_graph,
    galois_poset,
    index_irreducibles,
    is_left_modular_element,
    is_trim,
    lattice_from_graph,
    lattice_from_poset,
    left_modular_labelling,
    length,
    max_orth_pairs,
    order_ideals,
    poset_from_relations,
    spine,
)
from trimlat.lattice import Chain
from trimlat.poset import ideal_masks
from conftest import (cambrian, irreducible_pair_oracle, oracle_galois_poset,
                      oracle_next_closure_masks)

V_POSET = poset_from_relations(3, [(0, 2), (1, 2)])


def chain_lattice(n_elems: int):
    return lattice_from_poset(
        poset_from_relations(n_elems, [(i, i + 1) for i in range(n_elems - 1)]))


def test_index_chain_lattice():
    l = chain_lattice(3)
    idx = index_irreducibles(l)
    assert idx.j == (1, 2)
    assert idx.m == (0, 1)


def test_index_requires_extremal():
    with pytest.raises(NotExtremal):
        index_irreducibles(fixture("fig3_right"))


def test_index_fig4_matches_figure():
    idx = index_irreducibles(fixture("fig4"))
    assert idx.j == (1, 4, 5, 9, 2, 3)
    assert idx.m == (10, 8, 7, 6, 12, 11)


def test_index_distributive_principal_ideals():
    # j_q is the principal ideal of q; m_q the complement of its filter
    l = order_ideals(V_POSET)
    masks = ideal_masks(V_POSET)
    idx = index_irreducibles(l)
    full = (1 << 3) - 1
    ext = [None] * 3  # poset element added at chain step i
    for i in range(3):
        added = masks[idx.chain.elements[i + 1]] ^ masks[idx.chain.elements[i]]
        ext[i] = added.bit_length() - 1
    for i, q in enumerate(ext):
        assert masks[idx.j[i]] == V_POSET.down_mask(q)
        assert masks[idx.m[i]] == full & ~V_POSET.up_mask(q)


def test_galois_graph_fig1():
    g = galois_graph(order_ideals(V_POSET))
    assert g.edges == frozenset({(3, 1), (3, 2)})
    # one edge per strict relation of the underlying poset
    assert len(g.edges) == sum(V_POSET.lt(a, b)
                               for a in range(3) for b in range(3))


def test_galois_graph_chain_complete_dag():
    for n in (2, 3, 4, 5):
        g = galois_graph(chain_lattice(n + 1))
        assert g.edges == frozenset((i, k) for i in range(1, n + 1)
                                    for k in range(1, i))


def test_galois_poset():
    assert galois_poset(GaloisGraph(3, frozenset())).covers == ()
    p = galois_poset(GaloisGraph(3, frozenset({(3, 1), (3, 2)})))
    assert p.covers == ((0, 2), (1, 2))
    p6 = galois_poset(galois_graph(fixture("fig4")))
    assert p6.n == 6


def test_galois_poset_matches_relation_closure(small_graphs, small_posets):
    """The cover walk gives the covers, up masks and down masks of the
    closure of the edge list on every Galois graph on <= 5 vertices, on the
    graphs of the trim lattices J(q) of the poset sweep and of every type-A
    Cambrian lattice with n <= 7, and on the complete graphs of chains with
    up to 300 labels."""
    graphs = list(small_graphs)
    graphs += [galois_graph(order_ideals(q)) for q in small_posets]
    graphs += [galois_graph(cambrian(n, tuple(v for v in range(1, n - 1) if bars >> v - 1 & 1)))
               for n in range(1, 8) for bars in range(1 << max(n - 2, 0))]
    graphs += [galois_graph(chain_lattice(n + 1)) for n in (*range(12), 100, 300)]
    assert len(graphs) > 1500 and graphs[-1].n == 300
    for g in graphs:
        got, want = galois_poset(g), oracle_galois_poset(g)
        assert got.covers == want.covers, g
        assert [got.up_mask(x) for x in range(g.n)] == [want.up_mask(x) for x in range(g.n)], g
        assert [got.down_mask(x) for x in range(g.n)] == [want.down_mask(x) for x in range(g.n)], g


def test_graph_masks_and_edges_agree(small_graphs, graph_lattices):
    """A graph built from its edge view is the same graph, with the same
    hash; each label's out-mask and in-mask hold the same edges."""
    for g in small_graphs + [galois_graph(l) for _, l in graph_lattices]:
        assert GaloisGraph(g.n, g.edges) == g and hash(GaloisGraph(g.n, g.edges)) == hash(g)
        assert g.sorted_edges() == tuple(sorted(g.edges))
        assert {(i + 1, k + 1) for k, m in enumerate(g.inn) for i in range(g.n) if m >> i & 1} \
            == g.edges
    with pytest.raises(ValueError, match="edge 2->2 must have n >= i > k >= 1"):
        GaloisGraph(3, [(2, 2)])


def test_max_orth_pairs_edgeless_boolean():
    for n in (0, 1, 2, 3):
        pairs = max_orth_pairs(GaloisGraph(n, frozenset()))
        assert len(pairs) == 2 ** n
        full = frozenset(range(1, n + 1))
        for p in pairs:
            assert p.Y == full - p.X


def test_max_orth_pairs_fig7_path():
    g = GaloisGraph(4, frozenset({(2, 1), (3, 2), (4, 3)}))
    assert len(max_orth_pairs(g)) == 9


def test_max_orth_pairs_complete_dag_chain():
    for n in (1, 2, 3, 4):
        g = GaloisGraph(n, frozenset((i, k) for i in range(1, n + 1)
                                     for k in range(1, i)))
        pairs = max_orth_pairs(g)
        assert len(pairs) == n + 1
        want = {(frozenset(range(1, i + 1)), frozenset(range(i + 1, n + 1)))
                for i in range(n + 1)}
        assert {(p.X, p.Y) for p in pairs} == want


def test_max_orth_pairs_brute_force(small_graphs):
    # oracle: check maximality of both sides over all subset pairs
    for g in small_graphs[:300]:
        out = {(p.X, p.Y) for p in max_orth_pairs(g)}
        labels = list(range(1, g.n + 1))
        brute = set()
        for rx in range(g.n + 1):
            for xs in combinations(labels, rx):
                x = frozenset(xs)
                y = frozenset(k for k in labels
                              if k not in x and not any((i, k) in g.edges for i in x))
                x2 = frozenset(i for i in labels
                               if i not in y and not any((i, k) in g.edges for k in y))
                if x2 == x:
                    brute.add((x, y))
        assert out == brute


def test_lattice_from_graph_examples():
    lat, pairs = lattice_from_graph(GaloisGraph(3, frozenset({(3, 1), (3, 2)})))
    assert lat.n == 5
    assert lat.covers == order_ideals(V_POSET).covers
    lat7, _ = lattice_from_graph(GaloisGraph(4, frozenset({(2, 1), (3, 2), (4, 3)})))
    assert lat7.n == 9
    grid, _ = lattice_from_graph(fixture("fig9_grid_tamari"))
    assert grid.n == 42 and is_trim(grid)


def test_element_pair_examples():
    l = fixture("fig4")
    idx = index_irreducibles(l)
    assert element_pair(l, l.bottom, idx) == \
        __import__("trimlat").MaxOrthPair(frozenset(), frozenset(range(1, 7)))
    p = element_pair(l, 6, idx)
    assert (p.X, p.Y) == (frozenset({1, 2, 3}), frozenset({4, 5, 6}))
    p = element_pair(l, 2, idx)
    assert (p.X, p.Y) == (frozenset({5}), frozenset({1, 3, 6}))


def test_element_pairs_are_maximal_orthogonal(fixture_trim_lattices):
    for _, l in fixture_trim_lattices:
        g = galois_graph(l)
        valid = {(p.X, p.Y) for p in max_orth_pairs(g)}
        idx = index_irreducibles(l)
        seen = set()
        for x in range(l.n):
            p = element_pair(l, x, idx)
            assert (p.X, p.Y) in valid
            seen.add((p.X, p.Y))
        assert len(seen) == l.n


def test_indexing_overlaps():
    """The indexing's overlap masks: fig4's give its drawn labels, fig7's
    left lattice has the non-overlapping cover (1, 6), and every cover of
    a distributive lattice overlaps."""
    l7 = fixture("fig7_left")
    idx = index_irreducibles(l7)
    assert idx.covers is l7.covers
    assert idx.overlap[l7.covers.index((1, 6))] == 0
    l4 = fixture("fig4")
    gamma = left_modular_labelling(l4)
    idx = index_irreducibles(l4)
    assert [v.bit_length() for v in idx.overlap] == [gamma.labels[c] for c in l4.covers]
    assert all(v.bit_count() == 1 for v in idx.overlap)
    for q in (V_POSET, poset_from_relations(4, [(0, 1), (2, 3)])):
        assert all(index_irreducibles(order_ideals(q)).overlap)


def test_decompose_examples():
    chain = chain_lattice(3)
    (l1, m1), (lu, mu) = decompose(chain)
    assert m1 == (0,) and mu == (1, 2)
    l4 = fixture("fig4")
    (l1, m1), (lu, mu) = decompose(l4)
    assert len(m1) + len(mu) == 14
    assert m1 == (0, 2, 3, 10)
    b2 = boolean(2)
    (l1, m1), (lu, mu) = decompose(b2)
    assert len(m1) == 2 and len(mu) == 2
    with pytest.raises(NotTrim):
        decompose(fixture("fig7_left"))


def test_decompose_galois_recursion(fixture_trim_lattices):
    """The Galois graphs of the two decomposition intervals are the vertex
    deletions of the original graph, via the inherited irreducibles."""
    for _, l in fixture_trim_lattices:
        if length(l) == 0:
            continue
        idx = index_irreducibles(l)
        g = galois_graph(l, idx)
        n = idx.n
        j1, m1 = idx.j[0], idx.m[0]
        # upper interval [j1, top]: inherited irreducibles j_a v j1 and m_b
        upper_keep = list(range(2, n + 1))
        for a in upper_keep:
            for b in upper_keep:
                if a == b:
                    continue
                inherited = not l.leq(l.join_of(idx.j[a - 1], j1), idx.m[b - 1])
                assert inherited == ((a, b) in g.edges)
        # lower interval [bottom, m1]: vertices with no edge into 1
        lower_keep = [a for a in range(2, n + 1) if (a, 1) not in g.edges]
        for a in lower_keep:
            for b in lower_keep:
                if a == b:
                    continue
                inherited = not l.leq(idx.j[a - 1], l.meet_of(idx.m[b - 1], m1))
                assert inherited == ((a, b) in g.edges)
        # and the intrinsic graphs have the right vertex counts
        (l1, _), (lu, _) = decompose(l)
        assert length(lu) == n - 1
        assert length(l1) == len(lower_keep)


def test_round_trip_fixture_lattices(fixture_trim_lattices):
    for name, l in fixture_trim_lattices:
        assert_round_trip(l)


def assert_round_trip(l):
    """lattice_from_graph(galois_graph(l)) is isomorphic to l, via the
    explicit pair map."""
    idx = index_irreducibles(l)
    g = galois_graph(l, idx)
    lat2, pairs = lattice_from_graph(g)
    assert lat2.n == l.n
    where = {(p.X, p.Y): i for i, p in enumerate(pairs)}
    iso = []
    for x in range(l.n):
        p = element_pair(l, x, idx)
        iso.append(where[(p.X, p.Y)])
    assert sorted(iso) == list(range(l.n))
    assert {(iso[a], iso[b]) for a, b in l.covers} == set(lat2.covers)


def test_chain_independence(graph_lattices):
    """All maximal-length chains of an extremal lattice induce the same
    join-to-meet correspondence; for trim lattices they assign the same
    join-irreducible to every cover."""
    done = 0
    for g, l in graph_lattices:
        if g.n != 4 or done >= 80:
            continue
        done += 1
        trim = is_trim(l)
        chains = _all_maximal_chains(l)
        base = index_irreducibles(l, chains[0])
        base_pairs = set(zip(base.j, base.m))
        base_cover_j = _cover_irreducibles(l, base) if trim else None
        for ch in chains[1:]:
            idx = index_irreducibles(l, ch)
            assert set(zip(idx.j, idx.m)) == base_pairs
            if trim:
                assert _cover_irreducibles(l, idx) == base_cover_j


def _all_maximal_chains(l):
    from trimlat.lattice import _coheights

    co, _ = _coheights(l)
    n = co[l.bottom]
    out = []

    def rec(cur, path):
        if cur == l.top:
            out.append(Chain(tuple(path)))
            return
        for w in l.upper_covers(cur):
            if co[w] == co[cur] - 1:
                rec(w, path + [w])

    rec(l.bottom, [l.bottom])
    return out


def _cover_irreducibles(l, idx):
    gamma = left_modular_labelling(l, idx.chain)
    return {e: idx.j[lab - 1] for e, lab in gamma.labels.items()}


def test_spine_criterion_and_left_modularity(fixture_trim_lattices):
    for _, l in fixture_trim_lattices:
        idx = index_irreducibles(l)
        xj, ym = idx.xj, idx.ym
        full = (1 << idx.n) - 1
        sp = set(spine(l))
        for x in range(l.n):
            assert (xj[x] | ym[x] == full) == (x in sp)
            assert is_left_modular_element(l, x) == (x in sp)


def test_spine_is_ideal_lattice_of_galois_poset(graph_lattices):
    """x -> x_J restricts to an order isomorphism from the spine onto the
    order ideals of the Galois poset."""
    for g, l in graph_lattices[:200]:
        idx = index_irreducibles(l)
        xj = idx.xj
        sp = spine(l)
        ideals = set(ideal_masks(galois_poset(g)))
        assert {xj[x] for x in sp} == ideals
        assert len(sp) == len(ideals)
        for a in sp:
            for b in sp:
                assert l.leq(a, b) == (xj[a] & ~xj[b] == 0)
        # the spine is closed under meet and join
        for a in sp:
            for b in sp:
                assert l.meet_of(a, b) in sp and l.join_of(a, b) in sp


def test_irreducible_pair_oracle():
    # the (X, Y) pair representation matches the lattice, extremal or not
    for name in ("fig2", "fig3_right", "fig7_left", "fig7_right"):
        l = fixture(name)
        pairs = irreducible_pair_oracle(l)
        assert len(pairs) == l.n
        by_x = {x: i for i, (x, _) in enumerate(pairs)}
        assert len(by_x) == l.n


def test_max_orth_pairs_size_cap():
    from trimlat import SizeLimitExceeded

    with pytest.raises(SizeLimitExceeded):
        max_orth_pairs(GaloisGraph(14, frozenset()), max_elements=200)


def _seeded_graphs(count: int, seed: int = 7):
    rng = random.Random(seed)
    for _ in range(count):
        n, p = rng.randint(6, 14), rng.uniform(0.15, 0.9)
        yield GaloisGraph(n, [(i, k) for i in range(2, n + 1) for k in range(1, i)
                              if rng.random() < p])


def test_pair_masks_match_next_closure_and_cap_boundary(small_graphs):
    """The intersections of Galois columns are NextClosure's closed sets in
    the same order, and both refuse at exactly one pair past the cap."""
    from trimlat import SizeLimitExceeded, galois

    for g in [*small_graphs, *_seeded_graphs(300)]:
        masks = galois._pair_masks(g, 10 ** 6)
        assert masks == oracle_next_closure_masks(g, 10 ** 6), g
        count = len(masks[0])
        assert galois._pair_masks(g, count) == masks
        with pytest.raises(SizeLimitExceeded) as ours:
            galois._pair_masks(g, count - 1)
        with pytest.raises(SizeLimitExceeded) as oracle:
            oracle_next_closure_masks(g, count - 1)
        assert str(ours.value) == str(oracle.value), g


def test_graph_past_the_cap_is_refused_before_any_closure(tmp_path, monkeypatch, capsys):
    from trimlat import SizeLimitExceeded, cli, galois

    def no_closure(*args):
        raise AssertionError("a closure ran")

    monkeypatch.setattr(galois, "_closed_sets", no_closure)
    # an edgeless graph on 200000 vertices has 2**200000 pairs
    for call in (lambda: max_orth_pairs(GaloisGraph(200000, frozenset())),
                 lambda: lattice_from_graph(GaloisGraph(5, frozenset()), max_elements=5)):
        with pytest.raises(SizeLimitExceeded, match=r"\(\d+ > \d+\)"):
            call()
    path = tmp_path / "graph.json"
    path.write_text('{"n": 200000, "edges": []}')
    assert cli.main(["gen", "galois-file", str(path)]) == 3
    assert "200001 > 100000" in capsys.readouterr().err
    # at the cap itself the closures run
    with pytest.raises(AssertionError, match="a closure ran"):
        lattice_from_graph(GaloisGraph(5, frozenset()), max_elements=6)
