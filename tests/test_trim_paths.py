"""The trim pipeline's fast paths against the scans they replaced: the Kahn
heights, the mask-based indexing and the pair masks it carries, the element
pairs, Galois edges and non-overlapping-cover witness read from those masks,
and the one-formula left-modular labelling against the three label formulas."""

from __future__ import annotations

import ast
from math import comb
from pathlib import Path

import pytest

from conftest import (
    cambrian,
    oracle_canonical_extension,
    oracle_element_pair,
    oracle_first_non_overlapping_cover,
    oracle_galois_graph,
    oracle_heights,
    oracle_index,
    oracle_pair_masks,
)
import trimlat.cli
from trimlat import (
    Chain,
    Lattice,
    NotExtremal,
    boolean,
    chain_product,
    complement_check,
    element_pair,
    fixture,
    galois_graph,
    index_irreducibles,
    is_distributive,
    is_extremal,
    is_left_modular_lattice,
    is_semidistributive,
    is_trim,
    is_trim_definitional,
    left_modular_labelling,
    lattice_from_graph,
    length,
    maximal_length_chain,
    order_ideals,
    rational_dyck,
    root_ideals,
    rowmotion_global,
    rowmotion_slow,
    spine,
    tamari,
    weak_order_S,
)
from trimlat.errors import TrimlatError
from trimlat.galois import first_non_overlapping_cover
from trimlat.labelling import _three_formula_labels
from trimlat.lattice import _coheights, _heights
from trimlat.poset import _bits


def test_heights_match_oracle(small_posets, graph_lattices):
    lattices = [order_ideals(q) for q in small_posets]
    lattices += [l for _, l in graph_lattices]
    for l in lattices:
        assert (_heights(l), list(_coheights(l)[0])) == oracle_heights(l), l


def test_pair_masks_match_scalar_scan(trim_collection, graph_lattices):
    lattices = [l for _, l in trim_collection] + [l for _, l in graph_lattices]
    for l in lattices:
        idx = index_irreducibles(l)
        assert (idx.j, idx.m) == oracle_index(l, idx.chain), l
        assert (list(idx.xj), list(idx.ym)) == oracle_pair_masks(l, idx), l


def test_mask_readers_match_scalar_scans(property_lattices):
    """On every extremal lattice of the sweeps, trim or not: no cover
    overlaps in two labels, and the overlaps, the witness, the Galois graph
    and every element pair equal the scalar scans."""
    extremal = [(label, l) for label, l in property_lattices if is_extremal(l)]
    non_trim = 0
    for label, l in extremal:
        idx = index_irreducibles(l)
        assert all(v & (v - 1) == 0 for v in idx.overlap), label
        pairs = [oracle_element_pair(l, x, idx) for x in range(l.n)]
        assert [{i + 1 for i in _bits(v)} for v in idx.overlap] == [
            pairs[y].Y & pairs[z].X for y, z in l.covers], label
        wit = first_non_overlapping_cover(l)
        assert wit == oracle_first_non_overlapping_cover(l), label
        assert is_trim(l) == (wit is None), label
        non_trim += wit is not None
        assert galois_graph(l, idx) == oracle_galois_graph(l, idx), label
        assert [element_pair(l, x, idx) for x in range(l.n)] == pairs, label
    # both verdicts ran on many inputs
    assert len(extremal) > 1600 and non_trim > 60


def test_galois_graph_rejects_inconsistent_indexing():
    """A hand-made indexing whose masks put an edge i -> k with i < k is
    refused, naming the first such edge."""
    l = boolean(3)
    idx = index_irreducibles(l)
    bad = idx._replace(xj=(0,) * l.n)
    with pytest.raises(NotExtremal, match="edge 1->2 with i < k"):
        galois_graph(l, bad)


def test_overlap_labels_equal_three_formulas(trim_collection):
    lattices = [l for _, l in trim_collection]
    lattices += [boolean(6), tamari(6), root_ideals(5), chain_product(3, 4),
                 rational_dyck(3, 5)]
    for l in lattices:
        chain = index_irreducibles(l).chain
        want = _three_formula_labels(l, chain.elements)
        for given in (None, chain):
            assert left_modular_labelling(l, given).labels == want, l


def test_chain_not_ending_at_top_is_refused():
    """On an extremal lattice the indexing validates a supplied chain."""
    l = boolean(2)
    chain = index_irreducibles(l).chain._replace(elements=(0, 1))
    with pytest.raises(ValueError, match="saturated from bottom to top"):
        left_modular_labelling(l, chain)


# ---------------------------------------------------------------------------
# the invariants kept on the lattice: the longest-path pass and the default
# indexing
# ---------------------------------------------------------------------------


def test_default_indexing_is_kept():
    l = tamari(4)
    assert index_irreducibles(l) is index_irreducibles(l)


def test_supplied_chain_builds_a_fresh_indexing():
    l = fixture("fig4")
    default = index_irreducibles(l)
    co = _coheights(l)[0]
    xs = [l.bottom]
    while xs[-1] != l.top:  # the largest cover on a longest path, not the smallest
        xs.append(max(w for w in l.upper_covers(xs[-1]) if co[w] == co[xs[-1]] - 1))
    other = Chain(tuple(xs))
    assert other != default.chain
    idx = index_irreducibles(l, other)
    assert idx.chain == other and idx is not index_irreducibles(l, other)
    assert index_irreducibles(l) is default and default.chain == maximal_length_chain(l)


def test_not_extremal_raises_on_every_call():
    l = weak_order_S(4)
    for _ in range(2):
        with pytest.raises(NotExtremal):
            index_irreducibles(l)
    assert l._index is None


def _outcome(fn, l):
    try:
        return fn(l)
    except TrimlatError as exc:
        return type(exc), str(exc)


# every predicate and witness that reads the kept pass or indexing
_READERS = (
    length,
    maximal_length_chain,
    is_extremal,
    index_irreducibles,
    first_non_overlapping_cover,
    is_trim,
    is_trim_definitional,
    is_left_modular_lattice,
    lambda l: is_distributive(l, witness=True),
    lambda l: is_semidistributive(l, witness=True),
    spine,
    left_modular_labelling,
)


def test_kept_invariants_do_not_depend_on_call_order(property_lattices):
    """Each reader gives on a fresh lattice what it gives when all of them
    run, last first, on one lattice."""
    for label, l in property_lattices:
        fresh = [_outcome(fn, Lattice(l.poset, l.bottom, l.top)) for fn in _READERS]
        one = Lattice(l.poset, l.bottom, l.top)
        assert [_outcome(fn, one) for fn in reversed(_READERS)] == fresh[::-1], label


def test_cli_imports_no_private_lattice_names():
    tree = ast.parse(Path(trimlat.cli.__file__).read_text(encoding="utf-8"))
    private = {(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and node.module in ("lattice", "labelling", "complexes", "galois")
               for alias in node.names if alias.name.startswith("_")}
    assert private == {("galois", "_fmt_set")}


def _pair_positions(l, pairs) -> list[int]:
    """Each element's position in ``pairs`` (lattice_from_graph's list),
    found by its maximal orthogonal pair; asserted a bijection that carries
    the covers of l onto those of the pairs' lattice."""
    where = {q: i for i, q in enumerate(pairs)}
    iso = [where[element_pair(l, x)] for x in range(l.n)]
    assert sorted(iso) == list(range(l.n))
    return iso


def test_cambrian_lattices():
    """Every type-A Cambrian lattice on n <= 7 (Catalan(n) elements, up to
    429, one per barring of 2..n-1) is trim by both routes, so the keyed
    left-modular test runs on all of them; its overlap labels equal the
    three formulas, slow rowmotion is global rowmotion, complementation
    holds, the Galois graph gives it back, and the all-lower barring is the
    Tamari lattice."""
    for n in range(1, 8):
        for bars in range(1 << max(n - 2, 0)):
            lower = tuple(v for v in range(1, n - 1) if bars >> v - 1 & 1)
            l = cambrian(n, lower)
            assert l.n == comb(2 * n, n) // (n + 1), (n, lower)
            assert is_trim(l) is is_trim_definitional(l) is True, (n, lower)
            gamma = left_modular_labelling(l)
            idx = index_irreducibles(l)
            assert gamma.labels == _three_formula_labels(l, idx.chain.elements), (n, lower)
            ext = tuple(x + 1 for x in oracle_canonical_extension(gamma.label_poset))
            assert rowmotion_slow(l, gamma, ext) == rowmotion_global(l, gamma), (n, lower)
            assert complement_check(l), (n, lower)
            g = galois_graph(l, idx)
            lat, pairs = lattice_from_graph(g)
            iso = _pair_positions(l, pairs)
            assert {(iso[a], iso[b]) for a, b in l.covers} == set(lat.covers), (n, lower)
            if len(lower) == max(n - 2, 0):
                t = tamari(n)
                assert galois_graph(t) == g, n
                # both are the lattice of g, so composing the maps is an isomorphism
                back = {i: y for y, i in enumerate(_pair_positions(t, pairs))}
                assert {(back[iso[a]], back[iso[b]]) for a, b in l.covers} == set(t.covers), n
