"""The trim pipeline's fast paths against the scans they replaced: the
heap-based canonical extension and Kahn heights, the mask-based indexing
and the pair masks it carries, the element pairs, Galois edges and
non-overlapping-cover witness read from those masks, and the one-formula
left-modular labelling against its three-formula verification."""

from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import (
    oracle_canonical_extension,
    oracle_element_pair,
    oracle_first_non_overlapping_cover,
    oracle_galois_graph,
    oracle_heights,
    oracle_index,
    oracle_pair_masks,
)
from trimlat import (
    NotExtremal,
    boolean,
    canonical_extension,
    chain_product,
    element_pair,
    galois_graph,
    index_irreducibles,
    is_extremal,
    is_trim,
    left_modular_labelling,
    order_ideals,
    rational_dyck,
    root_ideals,
    tamari,
)
from trimlat.figures import first_non_overlapping_cover
from trimlat.galois import _overlaps
from trimlat.lattice import _coheights, _heights


def test_canonical_extension_matches_bit_scan(small_posets, graph_lattices):
    lattices = [order_ideals(q) for q in small_posets]
    lattices += [l for _, l in graph_lattices]
    for q in small_posets + [l.poset for l in lattices]:
        assert canonical_extension(q) == oracle_canonical_extension(q), q
    for l in lattices:
        assert (_heights(l), _coheights(l)) == oracle_heights(l), l


def test_pair_masks_match_scalar_scan(trim_collection, graph_lattices):
    lattices = [l for _, l in trim_collection] + [l for _, l in graph_lattices]
    for l in lattices:
        idx = index_irreducibles(l)
        assert (idx.j, idx.m) == oracle_index(l, idx.chain), l
        assert (list(idx.xj), list(idx.ym)) == oracle_pair_masks(l, idx), l


def test_mask_readers_match_scalar_scans(property_lattices):
    """On every extremal lattice of the sweeps, trim or not: no cover
    overlaps in two labels, and the witness, the Galois graph and every
    element pair equal the scalar scans."""
    extremal = [(label, l) for label, l in property_lattices if is_extremal(l)]
    non_trim = 0
    for label, l in extremal:
        idx = index_irreducibles(l)
        assert all(v & (v - 1) == 0 for v in _overlaps(l, idx)), label
        wit = first_non_overlapping_cover(l)
        assert wit == oracle_first_non_overlapping_cover(l), label
        assert is_trim(l) == (wit is None), label
        non_trim += wit is not None
        assert galois_graph(l, idx) == oracle_galois_graph(l, idx), label
        for x in range(l.n):
            assert element_pair(l, x, idx) == oracle_element_pair(l, x, idx), label
    # both verdicts ran on many inputs
    assert len(extremal) > 1600 and non_trim > 60


def test_galois_graph_rejects_inconsistent_indexing():
    """A hand-made indexing whose masks put an edge i -> k with i < k is
    refused, naming the first such edge."""
    l = boolean(3)
    idx = index_irreducibles(l)
    bad = replace(idx, xj=(0,) * l.n)
    with pytest.raises(NotExtremal, match="edge 1->2 with i < k"):
        galois_graph(l, bad)


def test_overlap_labels_equal_three_formulas(trim_collection):
    lattices = [l for _, l in trim_collection]
    lattices += [boolean(6), tamari(6), root_ideals(5), chain_product(3, 4),
                 rational_dyck(3, 5)]
    for l in lattices:
        for chain in (None, index_irreducibles(l).chain):
            fast = left_modular_labelling(l, chain)
            checked = left_modular_labelling(l, chain, verify=True)
            assert fast.labels == checked.labels, l
            assert fast.label_poset == checked.label_poset, l


def test_chain_not_ending_at_top_is_refused():
    """On an extremal lattice the indexing validates a supplied chain."""
    l = boolean(2)
    chain = replace(index_irreducibles(l).chain, elements=(0, 1))
    with pytest.raises(ValueError, match="saturated from bottom to top"):
        left_modular_labelling(l, chain)
