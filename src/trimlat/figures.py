"""Executable replay of every headline figure assertion, used by the
``verify-figures`` CLI verb and the acceptance suite.  Each check returns a
list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

from .complexes import (
    canonical_join_graph,
    complement_check,
    independence_complex,
    independent_sets,
    undirected,
)
from .galois import (
    _fmt_set,
    decompose,
    element_pair,
    first_non_overlapping_cover,
    galois_graph,
    index_irreducibles,
    lattice_from_graph,
    max_orth_pairs,
)
from .generators import fixture, root_ideals
from .labelling import (
    down_up_labels,
    is_descriptive,
    left_modular_labelling,
    semidistributive_labelling,
)
from .lattice import (
    is_distributive,
    is_extremal,
    is_left_modular_element,
    is_left_modular_lattice,
    is_semidistributive,
    is_trim,
    is_trim_definitional,
    length,
)
from .poset import linear_extensions
from .rowmotion import flip, rowmotion_global, rowmotion_slow


def _expect(failures: list, cond: bool, msg: str) -> None:
    if not cond:
        failures.append(msg)


def _slow_equals_global(l, limit_ext: int = 200) -> bool:
    gamma = left_modular_labelling(l)
    row = rowmotion_global(l, gamma)
    exts = linear_extensions(gamma.label_poset, limit_ext)
    for ext in exts:
        seq = tuple(e + 1 for e in ext)
        if rowmotion_slow(l, gamma, seq) != row:
            return False
    return True


def check_fig1() -> list[str]:
    f = []
    l = fixture("fig1")
    _expect(f, l.n == 5, "expected 5 elements")
    _expect(f, l.covers == root_ideals(2).covers,
            "does not match the ideal lattice of the type-A2 root poset")
    _expect(f, is_trim(l) and is_distributive(l), "should be trim and distributive")
    g = galois_graph(l)
    _expect(f, g.edges == frozenset({(3, 1), (3, 2)}),
            f"Galois edges {sorted(g.edges)} != [(3,1),(3,2)]")
    gamma = left_modular_labelling(l)
    drawn = {(0, 1): 1, (0, 2): 2, (1, 3): 2, (2, 3): 1, (3, 4): 3}
    _expect(f, gamma.labels == drawn, f"edge labels {gamma.labels} differ from figure")
    row = rowmotion_global(l, gamma)
    _expect(f, row.cycle_type == (3, 2) and row.order == 6,
            f"orbits {row.cycle_type} != (3,2)")
    _expect(f, row(0) == 4 and row(4) == 3 and row(3) == 0 and row(1) == 2,
            "orbit structure differs from figure")
    _expect(f, flip(l, gamma, 0, 1) == 1, "flip at label 1 from bottom")
    sets = down_up_labels(l, gamma)
    _expect(f, sets.down[3] == frozenset({1, 2}) and sets.up[3] == frozenset({3}),
            "down/up labels of the ideal {1,2}")
    ind = independent_sets(undirected(g))
    _expect(f, len(ind) == 5, f"{len(ind)} independent sets != 5")
    _expect(f, _slow_equals_global(l), "slow motion differs from global rowmotion")
    return f


def check_fig2() -> list[str]:
    f = []
    l = fixture("fig2")
    _expect(f, l.n == 5, "expected 5 elements")
    _expect(f, not is_distributive(l), "the pentagon is not distributive")
    _expect(f, is_trim(l) and is_semidistributive(l), "should be trim and semidistributive")
    g = galois_graph(l)
    _expect(f, g.edges == frozenset({(2, 1), (3, 2)}),
            f"Galois edges {sorted(g.edges)} != [(2,1),(3,2)]")
    gamma = left_modular_labelling(l)
    drawn = {(0, 1): 1, (1, 3): 2, (3, 4): 3, (0, 2): 3, (2, 4): 1}
    _expect(f, gamma.labels == drawn, f"edge labels {gamma.labels} differ from figure")
    row = rowmotion_global(l, gamma)
    _expect(f, row.cycle_type == (3, 2) and row.order == 6,
            f"orbits {row.cycle_type} != (3,2)")
    _expect(f, _slow_equals_global(l), "slow motion differs from global rowmotion")
    return f


def check_fig3() -> list[str]:
    f = []
    left = fixture("fig3_left")
    _expect(f, left.n == 7, "left: expected 7 elements")
    _expect(f, is_trim(left) and is_trim_definitional(left), "left: should be trim")
    _expect(f, not is_semidistributive(left), "left: should not be semidistributive")
    g = galois_graph(left)
    _expect(f, g.edges == frozenset({(2, 1), (3, 2), (4, 3), (4, 1)}),
            f"left: Galois edges {sorted(g.edges)}")
    right = fixture("fig3_right")
    _expect(f, right.n == 6, "right: expected 6 elements")
    _expect(f, is_semidistributive(right), "right: should be semidistributive")
    _expect(f, not is_extremal(right), "right: should not be extremal")
    _expect(f, is_left_modular_lattice(right) is None, "right: should not be left modular")
    sdl = semidistributive_labelling(right)
    _expect(f, is_descriptive(right, sdl.gamma_j),
            "right: semidistributive labelling should be descriptive")
    return f


def check_fig4() -> list[str]:
    f = []
    l = fixture("fig4")
    _expect(f, l.n == 14 and length(l) == 6, "expected 14 elements of length 6")
    _expect(f, is_trim(l) and is_trim_definitional(l), "should be trim")
    idx = index_irreducibles(l)
    _expect(f, idx.chain.elements == (0, 1, 4, 6, 9, 11, 13),
            "deterministic chain differs from the drawn maximal chain")
    g = galois_graph(l, idx)
    drawn_g = frozenset({(2, 1), (3, 1), (4, 1), (4, 2), (4, 3),
                         (5, 2), (5, 4), (6, 3), (6, 4)})
    _expect(f, g.edges == drawn_g, f"Galois edges {sorted(g.edges)} differ from figure")
    gamma = left_modular_labelling(l)
    drawn = {(0, 1): 1, (1, 4): 2, (4, 6): 3, (6, 9): 4, (9, 11): 5, (11, 13): 6,
             (1, 5): 3, (5, 6): 2, (9, 12): 6, (12, 13): 5, (3, 8): 1, (8, 12): 2,
             (3, 10): 5, (10, 13): 1, (2, 7): 1, (7, 11): 3, (2, 10): 6, (4, 7): 5,
             (5, 8): 6, (0, 2): 5, (0, 3): 6}
    _expect(f, gamma.labels == drawn, "edge labels differ from figure")
    p6 = element_pair(l, 6, idx)
    _expect(f, p6.X == frozenset({1, 2, 3}) and p6.Y == frozenset({4, 5, 6}),
            "pair of the chain element x3")
    p2 = element_pair(l, 2, idx)
    _expect(f, p2.X == frozenset({5}) and p2.Y == frozenset({1, 3, 6}),
            "pair of the join-irreducible j5")
    comp = independence_complex(l)
    drawn_indep = frozenset({(1, 5), (1, 6), (2, 3), (2, 6), (3, 5), (5, 6)})
    _expect(f, comp.skeleton_edges() == drawn_indep,
            f"independence edges {sorted(comp.skeleton_edges())} differ from figure")
    _expect(f, len(g.edges) + len(drawn_indep) == 15 and complement_check(l),
            "Galois and independence graphs should partition the 15 edges of K6")
    _expect(f, _slow_equals_global(l), "slow motion differs from global rowmotion")
    (l1, m1), (lu, mu) = decompose(l)
    _expect(f, len(m1) + len(mu) == 14, "decomposition does not partition the lattice")
    return f


def check_fig7() -> list[str]:
    f = []
    left = fixture("fig7_left")
    _expect(f, left.n == 9, "left: expected 9 elements")
    _expect(f, is_extremal(left), "left: should be extremal")
    _expect(f, is_left_modular_lattice(left) is None, "left: should not be left modular")
    _expect(f, not is_trim(left) and not is_trim_definitional(left),
            "left: should not be trim")
    _expect(f, not is_left_modular_element(left, 5),
            "left: the marked element x should fail left-modularity")
    wit = first_non_overlapping_cover(left)
    _expect(f, wit is not None, "left: expected a non-overlapping cover")
    if wit is not None:
        y, z, ym, zj = wit
        _expect(f, ym == frozenset({1, 2}) and zj == frozenset({3, 4}),
                f"left: witness {_fmt_set(ym)} - {_fmt_set(zj)} differs from figure")
    g = galois_graph(left)
    _expect(f, g.edges == frozenset({(2, 1), (3, 2), (4, 3)}),
            f"left: Galois edges {sorted(g.edges)}")
    ind = independent_sets(undirected(g))
    _expect(f, len(ind) == 8 and left.n != len(ind),
            "left: negative control 9 elements vs 8 independent sets")
    _expect(f, len(max_orth_pairs(g)) == 9, "left: expected 9 maximal orthogonal pairs")
    right = fixture("fig7_right")
    _expect(f, right.n == 5 and is_left_modular_lattice(right) is not None,
            "right: should be left modular")
    _expect(f, not is_extremal(right), "right: should not be extremal")
    return f


def check_fig8() -> list[str]:
    f = []
    l = fixture("fig8")
    _expect(f, l.n == 6 and length(l) == 4, "expected 6 elements of length 4")
    _expect(f, is_trim(l) and is_semidistributive(l) and is_extremal(l),
            "should be trim, semidistributive, extremal")
    g = galois_graph(l)
    _expect(f, g.edges == frozenset({(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)}),
            f"Galois edges {sorted(g.edges)}")
    gamma = left_modular_labelling(l)
    drawn = {(0, 1): 1, (1, 3): 2, (3, 4): 3, (4, 5): 4, (0, 2): 4, (2, 5): 1}
    _expect(f, gamma.labels == drawn, f"edge labels {gamma.labels} differ from figure")
    cjg = canonical_join_graph(l)
    _expect(f, cjg.edges == frozenset({(1, 4)}),
            f"canonical join graph {sorted(cjg.edges)} != single edge (1,4)")
    _expect(f, _slow_equals_global(l), "slow motion differs from global rowmotion")
    return f


def check_fig9() -> list[str]:
    f = []
    g = fixture("fig9_grid_tamari")
    _expect(f, g.n == 10 and len(g.edges) == 25, "grid graph should have 10 vertices, 25 edges")
    lat, _ = lattice_from_graph(g)
    _expect(f, lat.n == 42, f"grid-Tamari lattice has {lat.n} elements, expected 42")
    _expect(f, is_trim(lat), "3x3 grid-Tamari instance should be trim")
    g2 = fixture("fig9_2cambrian")
    lat2, _ = lattice_from_graph(g2)
    _expect(f, lat2.n == 12, f"2-Cambrian lattice has {lat2.n} elements, expected 12")
    _expect(f, is_trim(lat2), "2-Cambrian lattice should be trim")
    row = rowmotion_global(lat2, left_modular_labelling(lat2))
    _expect(f, row.order == 9, f"2-Cambrian rowmotion order {row.order} != 9 = (m+1)h")
    return f


FIGURE_CHECKS = {
    "fig1": check_fig1,
    "fig2": check_fig2,
    "fig3": check_fig3,
    "fig4": check_fig4,
    "fig7": check_fig7,
    "fig8": check_fig8,
    "fig9": check_fig9,
}


def verify_figures() -> list[tuple[str, list[str]]]:
    """Run the figure replays; returns (name, failures) pairs in name
    order."""
    return [(name, FIGURE_CHECKS[name]()) for name in sorted(FIGURE_CHECKS)]
