"""The trim pipeline's fast paths against the scans they replaced: the
heap-based canonical extension and Kahn heights, the mask-based indexing,
the transposed pair masks, and the one-formula left-modular labelling
against its three-formula verification."""

from __future__ import annotations

from conftest import (
    oracle_canonical_extension,
    oracle_heights,
    oracle_index,
    oracle_pair_masks,
)
from trimlat import (
    boolean,
    canonical_extension,
    chain_product,
    index_irreducibles,
    left_modular_labelling,
    order_ideals,
    rational_dyck,
    root_ideals,
    tamari,
)
from trimlat.galois import pair_masks
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
        assert pair_masks(l, idx) == oracle_pair_masks(l, idx), l


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
