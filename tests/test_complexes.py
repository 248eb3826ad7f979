"""Independence complexes, flagness, independent sets, complementation with
the Galois graph, and canonical join graphs."""

from __future__ import annotations

import pytest

from trimlat import (
    GaloisGraph,
    NotExtremal,
    NotTrim,
    SimpleGraph,
    SimplicialComplex,
    boolean,
    canonical_join_graph,
    complement_check,
    chain_product,
    fixture,
    galois_graph,
    independence_complex,
    independent_sets,
    is_flag,
    lattice_from_poset,
    order_ideals,
    poset_from_relations,
    root_poset_A,
    undirected,
    weak_order_S,
)
from trimlat.complexes import complement_graph
from conftest import brute_independent_sets, canonical_join_graph_elements, graph_isomorphic

V_POSET = poset_from_relations(3, [(0, 2), (1, 2)])


def chain_lattice(n_elems: int):
    return lattice_from_poset(
        poset_from_relations(n_elems, [(i, i + 1) for i in range(n_elems - 1)]))


def test_independence_complex_chain():
    comp = independence_complex(chain_lattice(4))
    assert comp.faces == frozenset(
        [frozenset()] + [frozenset({i}) for i in (1, 2, 3)])


def test_independence_complex_fig4():
    comp = independence_complex(fixture("fig4"))
    assert comp.skeleton_edges() == frozenset(
        {(1, 5), (1, 6), (2, 3), (2, 6), (3, 5), (5, 6)})


def test_independence_complex_boolean_full_simplex():
    for n in (1, 2, 3):
        comp = independence_complex(boolean(n))
        assert len(comp.faces) == 2 ** n


def test_independence_complex_needs_trim():
    with pytest.raises(NotTrim):
        independence_complex(fixture("fig7_left"))


def test_is_flag():
    for name in ("fig1", "fig2", "fig3_left", "fig4", "fig8"):
        assert is_flag(independence_complex(fixture(name)))
    hollow = SimplicialComplex(
        frozenset({1, 2, 3}),
        frozenset([frozenset(), frozenset({1}), frozenset({2}), frozenset({3}),
                   frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})]))
    assert not is_flag(hollow)
    tiny = SimplicialComplex(frozenset({1, 2}),
                             frozenset([frozenset(), frozenset({1}), frozenset({2})]))
    assert is_flag(tiny)


def test_independent_sets_examples():
    path = SimpleGraph(4, frozenset({(1, 2), (2, 3), (3, 4)}))
    assert len(independent_sets(path)) == 8
    fig1_graph = undirected(GaloisGraph(3, frozenset({(3, 1), (3, 2)})))
    assert len(independent_sets(fig1_graph)) == 5
    for n in (0, 1, 2, 3, 4):
        assert len(independent_sets(SimpleGraph(n, frozenset()))) == 2 ** n


def test_independent_sets_against_brute_force(small_graphs):
    for g in small_graphs[::17]:
        und = undirected(g)
        assert independent_sets(und) == frozenset(
            brute_independent_sets(g.n, und.edges))


def test_complement_check_examples():
    assert complement_check(fixture("fig4"))
    assert complement_check(chain_lattice(5))
    assert complement_check(boolean(3))


def test_counts_match_lattice_size():
    for name in ("fig1", "fig2", "fig3_left", "fig4", "fig8"):
        l = fixture(name)
        assert len(independent_sets(undirected(galois_graph(l)))) == l.n
    # negative control: the non-trim extremal lattice of the figures
    l7 = fixture("fig7_left")
    assert len(independent_sets(undirected(galois_graph(l7)))) == 8 != l7.n


def test_canonical_join_graph_fig8():
    assert canonical_join_graph(fixture("fig8")).edges == frozenset({(1, 4)})


def test_canonical_join_graph_distributive_is_incomparability():
    for q in (V_POSET, root_poset_A(3), poset_from_relations(4, [(0, 1), (2, 3)])):
        l = order_ideals(q)
        cjg = canonical_join_graph(l)
        # complement of the Galois graph = pairs of poset elements that are
        # incomparable; translate through the indexing of the ideal lattice
        assert cjg.edges == complement_graph(undirected(galois_graph(l))).edges
        n_incomp = sum(1 for a in range(q.n) for b in range(a + 1, q.n)
                       if not q.lt(a, b) and not q.lt(b, a))
        assert len(cjg.edges) == n_incomp


def test_canonical_join_graph_chain():
    assert canonical_join_graph(chain_lattice(5)).edges == frozenset()


def test_canonical_join_graph_requires_preconditions():
    from trimlat import NotSemidistributive

    with pytest.raises(NotSemidistributive):
        canonical_join_graph(fixture("fig3_left"))
    with pytest.raises(NotExtremal):
        canonical_join_graph(fixture("fig3_right"))


def test_same_canonical_join_graph_family():
    """The B2 Cambrian lattice, the weak order on S3, J([2]x[2]), and the
    ideals of the type-B2 root poset all share one canonical join graph."""
    target = canonical_join_graph(fixture("fig8"))
    hexagon = canonical_join_graph_elements(weak_order_S(3))
    grid = canonical_join_graph(chain_product(2, 2))
    # type B2 root poset: a < a+b < a+2b and b < a+b
    b2_root = poset_from_relations(4, [(0, 2), (1, 2), (2, 3)])
    b2 = canonical_join_graph(order_ideals(b2_root))
    for other in (hexagon, grid, b2):
        assert graph_isomorphic(target, other)


def test_fig3_left_independence_graph():
    # trim but not semidistributive: its independence graph is the
    # complement of the path, two disjoint edges
    comp = independence_complex(fixture("fig3_left"))
    assert comp.skeleton_edges() == frozenset({(1, 3), (2, 4)})


def test_independence_complex_equals_canonical_join_complex(graph_lattices):
    from trimlat import is_semidistributive, index_irreducibles
    from trimlat.labelling import down_up_labels, semidistributive_labelling

    done = 0
    for g, l in graph_lattices:
        if g.n != 4 or not is_semidistributive(l):
            continue
        comp = independence_complex(l)
        idx = index_irreducibles(l)
        sdl = semidistributive_labelling(l)
        sets = down_up_labels(l, sdl.gamma_j)
        cjc = {frozenset(idx.beta_j(j) for j in d) for d in sets.down}
        assert frozenset(cjc) == comp.faces
        done += 1
    assert done > 30


def test_deletion_and_link_recursion(fixture_trim_lattices):
    """Removing label 1 from the independence complex matches the two
    decomposition intervals: deletion for the upper one, link for the
    lower."""
    for _, l in fixture_trim_lattices:
        if l.n == 1:
            continue
        comp = independence_complex(l)
        g = galois_graph(l)
        deletion = {f for f in comp.faces if 1 not in f}
        link = {f for f in comp.faces if 1 not in f and f | {1} in comp.faces}
        up_graph = g.delete_vertices([1])
        in_nbrs = [i for (i, k) in g.edges if k == 1]
        low_graph = g.delete_vertices([1] + in_nbrs)

        def relabel(faces, keep):
            m = {v: i + 1 for i, v in enumerate(keep)}
            return {frozenset(m[v] for v in f) for f in faces}

        keep_up = [v for v in range(2, g.n + 1)]
        assert relabel(deletion, keep_up) == independent_sets(undirected(up_graph))
        keep_low = [v for v in range(2, g.n + 1) if v not in in_nbrs]
        assert relabel(link, keep_low) == independent_sets(undirected(low_graph))


def test_remark_fig1_fig2_same_undirected_galois():
    g1 = undirected(galois_graph(fixture("fig1")))
    g2 = undirected(galois_graph(fixture("fig2")))
    assert g1.edges != g2.edges
    assert graph_isomorphic(g1, g2)


def test_graph_isomorphic_sanity():
    a = SimpleGraph(3, frozenset({(1, 2)}))
    b = SimpleGraph(3, frozenset({(2, 3)}))
    c = SimpleGraph(3, frozenset({(1, 2), (2, 3)}))
    assert graph_isomorphic(a, b)
    assert not graph_isomorphic(a, c)


def test_independent_sets_size_cap():
    with pytest.raises(Exception) as exc:
        independent_sets(SimpleGraph(12, frozenset()), max_count=100)
    from trimlat import SizeLimitExceeded

    assert exc.type is SizeLimitExceeded
