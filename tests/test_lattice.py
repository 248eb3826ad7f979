"""Lattice construction, structural predicates, intervals, spine,
congruences, and quotients."""

from __future__ import annotations

import numpy as np
import pytest

from trimlat import (
    Lattice,
    NotACongruence,
    NotALattice,
    NotComparable,
    NotExtremal,
    Poset,
    boolean,
    congruence,
    fixture,
    interval,
    is_distributive,
    is_extremal,
    is_left_modular_element,
    is_left_modular_lattice,
    is_semidistributive,
    is_trim,
    is_trim_definitional,
    lattice_from_poset,
    length,
    maximal_length_chain,
    order_ideals,
    poset_from_relations,
    quotient,
    spine,
    weak_order_S,
)
from conftest import all_congruences, brute_distributive, brute_left_modular, is_graded


def test_lattice_is_its_poset():
    """A lattice is a poset sharing the tuples of the poset it was built on."""
    p = poset_from_relations(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    l = Lattice(p, 0, 3)
    assert isinstance(l, Poset) and l.poset is l
    assert l._up is p._up and l._down is p._down and l.covers is p.covers
    assert l.lower_covers(3) == (1, 2) and l.lt(0, 3) and not l.leq(1, 2)
    assert Lattice(l.poset, l.bottom, l.top)._upper is p._upper


def test_lattice_from_poset_boolean():
    l = lattice_from_poset(poset_from_relations(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))
    assert l.bottom == 0 and l.top == 3
    assert l.join_of(1, 2) == 3 and l.meet_of(1, 2) == 0


def test_lattice_from_poset_not_a_lattice():
    # bottom plus two maximal elements: no join for the pair
    with pytest.raises(NotALattice):
        lattice_from_poset(poset_from_relations(3, [(0, 1), (0, 2)]))
    # diamond pair with two minimal upper bounds
    with pytest.raises(NotALattice):
        lattice_from_poset(poset_from_relations(
            4, [(0, 2), (0, 3), (1, 2), (1, 3)]))


def test_fig3_right_is_weak_order_s3():
    assert fixture("fig3_right").covers == weak_order_S(3).covers


def test_length_and_chain():
    chain4 = lattice_from_poset(poset_from_relations(4, [(0, 1), (1, 2), (2, 3)]))
    assert length(chain4) == 3
    assert maximal_length_chain(chain4).elements == (0, 1, 2, 3)
    l4 = fixture("fig4")
    assert length(l4) == 6
    assert maximal_length_chain(l4).elements == (0, 1, 4, 6, 9, 11, 13)
    assert length(fixture("fig3_right")) == 3


def test_is_distributive():
    assert is_distributive(order_ideals(poset_from_relations(3, [(0, 2), (1, 2)])))
    pent = fixture("fig2")
    assert is_distributive(pent) is brute_distributive(pent) is False
    assert is_distributive(boolean(3))


def test_distributive_matches_oracle(small_posets):
    for q in small_posets[:80]:
        l = order_ideals(q)
        assert is_distributive(l) and brute_distributive(l)


def test_is_extremal():
    assert is_extremal(fixture("fig7_left"))
    assert not is_extremal(fixture("fig3_right"))
    for n in (1, 3, 5):
        chain = lattice_from_poset(
            poset_from_relations(n + 1, [(i, i + 1) for i in range(n)]))
        assert is_extremal(chain)


def test_is_left_modular_element():
    l7 = fixture("fig7_left")
    assert is_left_modular_element(l7, l7.bottom)
    assert is_left_modular_element(l7, l7.top)
    # the marked failing element of the figure, with the definitional oracle
    assert not is_left_modular_element(l7, 5)
    assert not brute_left_modular(l7, 5)
    dist = order_ideals(poset_from_relations(3, [(0, 2), (1, 2)]))
    for x in range(dist.n):
        assert is_left_modular_element(dist, x)
        assert brute_left_modular(dist, x)


def test_left_modular_element_out_of_range():
    l = boolean(2)
    for x in (-1, 4, 100):
        with pytest.raises(ValueError, match=f"element {x} out of range for n=4"):
            is_left_modular_element(l, x)


def test_left_modular_element_matches_oracle():
    for name in ("fig2", "fig3_left", "fig3_right", "fig7_left", "fig7_right"):
        l = fixture(name)
        for x in range(l.n):
            assert is_left_modular_element(l, x) == brute_left_modular(l, x)


def test_is_left_modular_lattice():
    # the diamond is left modular but not extremal
    m3 = fixture("fig7_right")
    ch = is_left_modular_lattice(m3)
    assert ch is not None and ch.elements[0] == m3.bottom and ch.elements[-1] == m3.top
    assert is_left_modular_lattice(fixture("fig7_left")) is None
    dist = boolean(3)
    assert is_left_modular_lattice(dist) is not None


def test_is_trim():
    assert is_trim(fixture("fig3_left"))
    assert not is_trim(fixture("fig7_left"))
    for q in (poset_from_relations(3, [(0, 2), (1, 2)]),
              poset_from_relations(4, [(0, 1), (2, 3)])):
        assert is_trim(order_ideals(q))


def test_trim_code_paths_agree(graph_lattices, fixture_trim_lattices):
    for _, l in graph_lattices:
        assert is_trim(l) == is_trim_definitional(l)
    for name in ("fig3_right", "fig7_left", "fig7_right"):
        l = fixture(name)
        assert is_trim(l) == is_trim_definitional(l) == False


def test_graded_trim_iff_distributive(trim_collection):
    for _, l in trim_collection:
        assert is_graded(l) == is_distributive(l)


def test_is_semidistributive():
    assert not is_semidistributive(fixture("fig3_left"))
    assert is_semidistributive(fixture("fig3_right"))
    assert is_semidistributive(boolean(3))


def test_interval_full_and_fig4():
    l = fixture("fig4")
    sub, members = interval(l, l.bottom, l.top)
    assert sub.n == l.n and members == tuple(range(l.n))
    # [bottom, m_1] in the figure: the 4-element diamond under element 10
    sub1, members1 = interval(l, 0, 10)
    assert len(members1) == 4 and members1 == (0, 2, 3, 10)
    with pytest.raises(NotComparable):
        interval(l, 1, 2)


def test_trim_intervals_stay_trim(fixture_trim_lattices):
    for _, l in fixture_trim_lattices:
        if l.n <= 20:
            pairs = [(a, b) for a in range(l.n) for b in range(l.n) if l.leq(a, b)]
        else:
            pairs = [(l.bottom, b) for b in range(l.n)] + \
                    [(a, l.top) for a in range(l.n)]
        for a, b in pairs:
            sub, _ = interval(l, a, b)
            assert is_trim(sub)


def test_spine():
    dist = boolean(3)
    assert spine(dist) == tuple(range(dist.n))
    chain = lattice_from_poset(poset_from_relations(3, [(0, 1), (1, 2)]))
    assert spine(chain) == (0, 1, 2)
    l4 = fixture("fig4")
    # oracle: an element is on the spine iff its longest paths to both ends
    # add up to the lattice length
    from trimlat.lattice import _coheights, _heights

    h, (co, _) = _heights(l4), _coheights(l4)
    assert spine(l4) == tuple(x for x in range(l4.n) if h[x] + co[x] == 6)
    with pytest.raises(NotExtremal):
        spine(fixture("fig7_right"))


def test_congruence_validation():
    l = order_ideals(poset_from_relations(3, [(0, 2), (1, 2)]))
    c = congruence(l, [[0], [1], [2], [3], [4]])
    assert len(c.classes) == 5
    with pytest.raises(NotACongruence):
        congruence(l, [[0, 4], [1], [2], [3]])
    for bad in ([[0, 1]], [[0], [1], [2], [3], [4], []]):
        with pytest.raises(ValueError, match="do not partition"):
            congruence(l, bad)


def test_quotient_trivial_partitions():
    l = fixture("fig2")
    q1, _ = quotient(l, congruence(l, [[x] for x in range(l.n)]))
    assert q1.covers == l.covers
    q2, _ = quotient(l, congruence(l, [list(range(l.n))]))
    assert q2.n == 1


def test_quotients_preserve_extremality_and_trimness():
    # enumerate all congruences by brute force over set partitions
    for name in ("fig1", "fig2", "fig3_left"):
        l = fixture(name)
        congs = all_congruences(l)
        assert len(congs) >= 2
        for c in congs:
            q, _ = quotient(l, c)
            assert is_extremal(q)
            assert is_trim(q)
            # congruence classes are intervals of the lattice
            for cl in c.classes:
                lo = l.meet_all(cl)
                hi = l.join_all(cl)
                assert lo in cl and hi in cl
                assert all(x in cl for x in range(l.n)
                           if l.leq(lo, x) and l.leq(x, hi))


def test_table_axioms(graph_lattices):
    from trimlat import chain_product, lattice_from_graph, rational_dyck, root_ideals, tamari

    rng = np.random.default_rng(7)
    lats = [l for _, l in graph_lattices if l.n <= 200]
    sample = [lats[i] for i in rng.choice(len(lats), size=60, replace=False)]
    sample += [tamari(5), chain_product(3, 3), root_ideals(4),
               rational_dyck(3, 8), weak_order_S(4), boolean(4),
               lattice_from_graph(fixture("fig9_grid_tamari"))[0]]
    for l in sample:
        m, j = l.meet, l.join
        n = l.n
        idx = np.arange(n)
        assert (m[idx, idx] == idx).all() and (j[idx, idx] == idx).all()
        assert (m == m.T).all() and (j == j.T).all()
        for x in range(n):
            assert (m[x][m] == m[m[x][:, None], np.arange(n)[None, :]]).all()
            assert (j[x][j] == j[j[x][:, None], np.arange(n)[None, :]]).all()
            assert (m[x, j[x]] == x).all() and (j[x, m[x]] == x).all()
