"""Rowmotion: the global bijection defined by a descriptive labelling, flips,
slow-motion computation along a linear extension of the label poset, and
orbit analysis.

Also houses the label-free rowmotion on order ideals of a poset (send an
ideal to the complement of the filter generated by its maximal elements),
which serves as the independent oracle for distributive lattices and as the
fast path for large family sweeps.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

from .errors import NotALinearExtension, NotDescriptive
from .labelling import CoverLabelling, _label_dict, _labelling_masks
from .lattice import Lattice
from .poset import Poset, _bits


class LatticePermutation(NamedTuple):
    """A bijection on lattice elements with its canonical cycle data."""

    forward: tuple[int, ...]
    cycles: tuple[tuple[int, ...], ...]
    cycle_type: tuple[int, ...]
    order: int

    def __call__(self, x: int) -> int:
        return self.forward[x]


def permutation_from_map(forward) -> LatticePermutation:
    """Canonicalize a forward map: cycles start at their least element and
    are listed by least element; cycle type is sorted descending."""
    forward = tuple(forward)
    n = len(forward)
    if sorted(forward) != list(range(n)):
        raise ValueError("not a bijection")
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        cur = forward[start]
        while cur != start:
            seen[cur] = True
            cyc.append(cur)
            cur = forward[cur]
        cycles.append(tuple(cyc))
    lengths = tuple(sorted((len(c) for c in cycles), reverse=True))
    order = lcm(*lengths) if lengths else 1
    return LatticePermutation(forward, tuple(cycles), lengths, order)


def orbits(p: LatticePermutation) -> tuple[tuple[int, ...], int]:
    """Cycle type (multiset of cycle lengths, descending) and order (lcm)."""
    return p.cycle_type, p.order


def rowmotion_global(l: Lattice, labelling) -> LatticePermutation:
    """row(x) = the unique y with U(y) = D(x), via one map from up-label
    masks (:func:`trimlat.labelling._labelling_masks`) to elements."""
    _, down, up = _labelling_masks(l, labelling)
    by_up: dict[int, int] = {}
    for y, u in enumerate(up):
        if u in by_up:
            raise NotDescriptive(f"elements {by_up[u]} and {y} share up-labels")
        by_up[u] = y
    forward = [by_up.get(d) for d in down]
    if None in forward:
        raise NotDescriptive(f"down-labels of {forward.index(None)} match no up-label set")
    return permutation_from_map(forward)


def flip(l: Lattice, labelling, x: int, i) -> int:
    """Walk across the unique edge at x labelled i, if present; otherwise
    stay at x."""
    if not 0 <= x < l.n:
        raise ValueError(f"element {x} out of range for n={l.n}")
    labels = _label_dict(labelling)
    for y in l.lower_covers(x):
        if labels[(y, x)] == i:
            return y
    for z in l.upper_covers(x):
        if labels[(x, z)] == i:
            return z
    return x


def _validate_extension(labelling, ext) -> None:
    labels = _label_dict(labelling)
    wanted = set(labels.values())
    if len(ext) != len(wanted) or set(ext) != wanted:
        raise NotALinearExtension("sequence is not a permutation of the labels")
    if isinstance(labelling, CoverLabelling) and labelling.label_poset is not None:
        # label a+1 must be flipped before every label above it in the label
        # poset; the least such a, and its least label flipped too early
        up, placed, late = labelling.label_poset._up, 0, []
        for lab in ext:
            if early := (up[lab - 1] ^ 1 << lab - 1) & placed:
                late.append((lab, (early & -early).bit_length()))
            placed |= 1 << lab - 1
        if late:
            raise NotALinearExtension("label {} must precede label {}".format(*min(late)))


def rowmotion_slow(l: Lattice, labelling, ext) -> LatticePermutation:
    """Compose flips in the order of ``ext``, which must be a linear
    extension of the label poset (for trim lattices: of the Galois poset,
    minimal labels first)."""
    _validate_extension(labelling, ext)
    tables: dict = {}  # per label, the flip of every element
    for (y, z), lab in _label_dict(labelling).items():
        t = tables.get(lab)
        if t is None:
            t = tables[lab] = list(range(l.n))
        t[y] = z
        t[z] = y
    forward = list(range(l.n))
    for lab in ext:
        t = tables[lab]
        forward = [t[x] for x in forward]
    return permutation_from_map(forward)


def slow_trace(l: Lattice, labelling, ext, x: int) -> list[tuple]:
    """The step-by-step walk of slow rowmotion from x, including no-op
    steps, as (label, element-after-flip) pairs, one :func:`flip` a step."""
    if not 0 <= x < l.n:
        raise ValueError(f"element {x} out of range for n={l.n}")
    _validate_extension(labelling, ext)
    return [(lab, x := flip(l, labelling, x, lab)) for lab in ext]


def ideal_rowmotion_map(q: Poset, masks) -> dict[int, int]:
    """Label-free rowmotion on order ideals of q, as a map on ideal
    bitmasks: an ideal goes to the complement of the filter generated by its
    maximal elements."""
    full = (1 << q.n) - 1
    strict_up = [q.up_mask(x) ^ (1 << x) for x in range(q.n)]
    out = {}
    for ideal in masks:
        filt = 0
        for x in _bits(ideal):
            if strict_up[x] & ideal == 0:
                filt |= q.up_mask(x)
        out[ideal] = full & ~filt
    return out


def ideal_rowmotion(q: Poset, masks) -> LatticePermutation:
    """Rowmotion on order ideals as a permutation of the mask list's
    indices (masks must be all ideals of q, in any fixed order)."""
    index = {m: i for i, m in enumerate(masks)}
    rmap = ideal_rowmotion_map(q, masks)
    return permutation_from_map([index[rmap[m]] for m in masks])
