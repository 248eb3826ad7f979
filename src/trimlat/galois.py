"""The representation theory of extremal lattices: indexing irreducibles
along a maximal-length chain, the Galois graph, maximal orthogonal pairs,
reconstruction, overlapping covers, and the two-interval decomposition of a
trim lattice.

Labels are 1..n throughout (n = lattice length); label sets are manipulated
as bitmasks with bit i-1 standing for label i.  The indexing carries each
element's maximal orthogonal pair as two such masks, x_J and x_M, and the
overlap of each cover read from them; the element pairs and the Galois
edges come from the masks, trimness and the trim labels from the overlaps.
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import and_
from typing import NamedTuple

from .errors import NotExtremal, NotTrim, SizeLimitExceeded
from .lattice import (Chain, Lattice, _key_union, _pair_keys, interval, is_extremal,
                      maximal_length_chain)
from .poset import DEFAULT_MAX_ELEMENTS, Poset, _bits


class IrreducibleIndexing(NamedTuple):
    """Join- and meet-irreducibles indexed along a maximal-length chain:
    chain[i] = j[0] v ... v j[i-1] = m[i] ^ ... ^ m[n-1] (labels are
    1-based, so j[i-1] is the irreducible with label i), and the maximal
    orthogonal pair of each element x as bitmasks: xj[x] of {i : j_i <= x}
    and ym[x] of {k : x <= m_k} (bit i-1 is label i).

    ``covers`` is the lattice's ``l.covers``, and ``overlap`` holds, per
    cover y covered-by z in that order, the mask of y_M & z_J.  A cover
    overlaps when that set is not empty, the lattice is trim when every
    cover overlaps, and the label of an overlapping cover is its one label.
    In an extremal lattice the set holds at most one label:

    - for i < k, j_i <= x_i <= x_{k-1} <= m_k along the chain;
    - x_J and x_M are disjoint, as j_i <= m_i would force
      x_i = x_{i-1} v j_i <= m_i, yet step i retires m_i;
    - so if i < k were both in y_M & z_J, j_i would not be below y (i is
      in y_M), and z = y v j_i <= m_k would put k in both z_J and z_M.
    """

    chain: Chain
    j: tuple[int, ...]
    m: tuple[int, ...]
    xj: tuple[int, ...]
    ym: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]
    overlap: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.j)

    def beta_j(self, element: int) -> int:
        """Label of a join-irreducible element."""
        return self.j.index(element) + 1

    def beta_m(self, element: int) -> int:
        return self.m.index(element) + 1


class _MaskGraph:
    """A graph on vertices 1..n held as masks per vertex (bit u-1 for
    vertex u), and compared and hashed on them.  A subclass keeps its masks
    by ``_set``, which ``_of_masks`` calls too, and lists each vertex's
    edges as the bits of its ``_edge_masks()`` entry.  ``edges`` is built
    from the masks when first read, in time linear in the edges, for
    output."""

    @classmethod
    def _of_masks(cls, *masks):
        g = cls.__new__(cls)
        g._set(*masks)
        return g

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._masks == other._masks

    def __hash__(self) -> int:
        return hash(self._masks)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.n}, {list(self.sorted_edges())})"

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.sorted_edges())

    def edge_rows(self):
        """Per vertex u in order, u and the list of each v (ascending) with
        bit v-1 in ``_edge_masks()[u-1]``; bin() reads a mask in one pass,
        where _bits copies a dense mask per bit."""
        for a, m in enumerate(self._edge_masks()):
            yield a + 1, [b + 1 for b, bit in enumerate(bin(m)[:1:-1]) if bit == "1"]

    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        """The pairs (u, v) of :meth:`edge_rows`."""
        return tuple((u, v) for u, vs in self.edge_rows() for v in vs)


class GaloisGraph(_MaskGraph):
    """Loop-free digraph on labels 1..n with every edge i -> k having
    i > k, held as one mask per label and side: out[i-1] of the targets of
    i's edges, inn[k-1] of the sources of k's."""

    def __init__(self, n: int, edges):
        out, inn = [0] * n, [0] * n
        for i, k in edges:
            if not 1 <= k < i <= n:
                raise ValueError(f"edge {i}->{k} must have n >= i > k >= 1")
            out[i - 1] |= 1 << k - 1
            inn[k - 1] |= 1 << i - 1
        self._set(tuple(out), tuple(inn))

    def _set(self, out: tuple[int, ...], inn: tuple[int, ...]) -> None:
        self.n, self.out, self.inn, self._masks = len(out), out, inn, (out, inn)

    def _edge_masks(self) -> tuple[int, ...]:
        return self.out


class MaxOrthPair(NamedTuple):
    """Disjoint label sets (X, Y) with no X -> Y arrow, each maximal given
    the other.  One lattice element."""

    X: frozenset[int]
    Y: frozenset[int]


def index_irreducibles(l: Lattice, chain: Chain | None = None) -> IrreducibleIndexing:
    """Index the irreducibles of an extremal lattice along a maximal-length
    chain (default: the deterministic one).  Each chain step introduces
    exactly one new join-irreducible from below and retires exactly one
    meet-irreducible from above.  The pair masks are the keys of
    :func:`trimlat.lattice._pair_keys` seeded with the chain's j and m, the
    pass :func:`trimlat.lattice._irr_keys` runs in the kept order: x_J is
    the union of the lower covers' x_J, plus label i at j_i, and x_M dually.

    The default chain's indexing is built once per lattice and kept on it;
    a supplied chain's is built afresh on every call.  The chain is checked
    before extremality, so a chain that is not saturated is refused on any
    lattice."""
    if chain is None and l._index is not None:
        return l._index
    xs = (maximal_length_chain(l) if chain is None else chain).elements
    if not xs or xs[0] != l.bottom or xs[-1] != l.top or any(
            b not in l._upper[a] for a, b in zip(xs, xs[1:])):
        raise ValueError("chain must be saturated from bottom to top")
    if not is_extremal(l):
        raise NotExtremal("irreducible indexing requires an extremal lattice")
    n = len(xs) - 1
    p = l.poset
    jirr = sum(1 << t for t in l.join_irr)
    mirr = sum(1 << t for t in l.meet_irr)
    j: list[int] = []
    m: list[int] = []
    for i in range(1, n + 1):
        new_j = jirr & p.down_mask(xs[i]) & ~p.down_mask(xs[i - 1])
        if new_j.bit_count() != 1:
            raise NotExtremal(
                f"chain step {i} introduces {new_j.bit_count()} join-irreducibles")
        j.append(new_j.bit_length() - 1)
        new_m = mirr & p.up_mask(xs[i - 1]) & ~p.up_mask(xs[i])
        if new_m.bit_count() != 1:
            raise NotExtremal(
                f"chain step {i} retires {new_m.bit_count()} meet-irreducibles")
        m.append(new_m.bit_length() - 1)
    xj, ym = _pair_keys(l, j, m)
    idx = IrreducibleIndexing(Chain(xs), tuple(j), tuple(m), tuple(xj), tuple(ym), l.covers,
                              tuple([ym[y] & xj[z] for y, z in l.covers]))
    if chain is None:
        l._index = idx
    return idx


def _label_set(mask: int) -> frozenset[int]:
    """The labels of a bitmask (bit i-1 is label i)."""
    return frozenset(map((1).__add__, _bits(mask)))


def _fmt_set(s) -> str:
    return "{" + ",".join(map(str, sorted(s))) + "}"


def first_non_overlapping_cover(l):
    """The first (in cover order) non-overlapping cover of an extremal
    lattice, as (y, z, y_M, z_J), or None, read from its default indexing."""
    idx = index_irreducibles(l)
    for (y, z), o in zip(idx.covers, idx.overlap):
        if not o:
            return y, z, _label_set(idx.ym[y]), _label_set(idx.xj[z])
    return None


def _trim_index(l: Lattice, what: str) -> IrreducibleIndexing:
    """The default indexing of a trim lattice, kept on it; raises
    NotTrim(what) when l is not trim."""
    try:
        idx = index_irreducibles(l)
    except NotExtremal:
        raise NotTrim(what) from None
    if not all(idx.overlap):
        raise NotTrim(what)
    return idx


def element_pair(l: Lattice, x: int,
                 idx: IrreducibleIndexing | None = None) -> MaxOrthPair:
    """The maximal orthogonal pair representing element x."""
    if idx is None:
        idx = index_irreducibles(l)
    return MaxOrthPair(_label_set(idx.xj[x]), _label_set(idx.ym[x]))


def galois_graph(l: Lattice, idx: IrreducibleIndexing | None = None) -> GaloisGraph:
    """Digraph on 1..n with an edge i -> k when j_i is not below m_k: the
    out-mask of label i is the complement of ym[j_i], the in-mask of label
    k that of xj[m_k], each less the label itself."""
    if idx is None:
        idx = index_irreducibles(l)
    full = (1 << idx.n) - 1
    out = tuple([full & ~idx.ym[t] & ~(1 << i) for i, t in enumerate(idx.j)])
    inn = tuple([full & ~idx.xj[t] & ~(1 << k) for k, t in enumerate(idx.m)])
    wrong = [(i + 1, k + 1) for i, o in enumerate(out) for k in _bits(o >> i << i)]
    wrong += [(i + 1, k + 1) for k, t in enumerate(inn) for i in _bits(t & (1 << k) - 1)]
    if wrong:
        raise NotExtremal("indexing inconsistent: edge {}->{} with i < k".format(*min(wrong)))
    return GaloisGraph._of_masks(out, inn)


def _linear_poset(up: list[int]) -> Poset:
    """The poset on 0..n-1 with up masks ``up``, numbered along a linear
    extension, so the lowest element of up(a) minus a is an upper cover of
    a; dropping its up set and repeating finds the others, as an element
    between a and one left would be left, and lower.  Down masks are pushed
    up along the covers in index order."""
    n = len(up)
    upper = [()] * n
    down = [1 << a for a in range(n)]
    for a in range(n):
        rest, bs = up[a] ^ 1 << a, []
        while rest:
            b = (rest & -rest).bit_length() - 1
            bs.append(b)
            down[b] |= down[a]
            rest &= ~up[b]
        upper[a] = tuple(bs)
    return Poset._of_upper(tuple(upper), up, down)


def galois_poset(g: GaloisGraph) -> Poset:
    """The transitive closure of the Galois graph as a poset on 0..n-1
    (label i is element i-1; an edge i -> k puts k below i).  Edges run
    from higher to lower labels, so the labels are a linear extension: the
    up set of k is k and the up sets of its in-edges' sources, taken from
    the lowest source left, which drops those its up set holds."""
    up = [0] * g.n
    for k in reversed(range(g.n)):
        acc, rest = 1 << k, g.inn[k]
        while rest:
            i = (rest & -rest).bit_length() - 1
            acc |= up[i]
            rest &= ~up[i]
        up[k] = acc
    return _linear_poset(up)


def _closed_sets(g: GaloisGraph, max_elements: int) -> list[int]:
    """The X masks of :func:`_pair_masks` in its order, refused at cap + 1."""
    full = (1 << g.n) - 1
    closed = {full}
    for y, src in enumerate(g.inn):
        a = full & ~(1 << y | src)
        for c in list(closed):
            if (c := c & a) not in closed:
                closed.add(c)
                if len(closed) > max_elements:
                    raise SizeLimitExceeded(len(closed), max_elements, "maximal orthogonal pairs")
    return sorted(sorted(closed), key=int.bit_count)


def _pair_masks(g: GaloisGraph, max_elements: int) -> tuple[list[int], list[int]]:
    """The X and Y masks of all maximal orthogonal pairs, sorted by (|X|, X).
    With R(x, y) = "x != y and no edge x -> y", the Y completing X holds the
    y with R(x, y) for all x in X, and the X completing Y the x with R(x, y)
    for all y in Y: a Galois connection, whose closed X are the X sides.
    The X completing Y is the intersection over y in Y of A_y = {x : R(x, y)}
    (the labels outside y and inn[y]), so each closed X is an intersection
    of A_y; and the intersection X of the A_y over any S is closed, as the Y
    completing X holds S, so the X completing that Y lies in X.  So
    :func:`_closed_sets` takes the full set (the empty intersection) and,
    per y, ANDs A_y into each set found so far.  The cap is exact: every
    set found is closed, so a lattice within the cap is never refused, and
    sets are added one at a time, so at most cap + 1 are held."""
    if g.n + 1 > max_elements:  # a lattice of length g.n: past the cap before any closure
        raise SizeLimitExceeded(g.n + 1, max_elements, "maximal orthogonal pairs")
    masks, full = _closed_sets(g, max_elements), (1 << g.n) - 1
    return masks, [full & ~(xm | _key_union(g.out, xm)) for xm in masks]


def max_orth_pairs(g: GaloisGraph,
                   max_elements: int = DEFAULT_MAX_ELEMENTS) -> tuple[MaxOrthPair, ...]:
    """All maximal orthogonal pairs of g, sorted by (|X|, X)."""
    return tuple(MaxOrthPair(_label_set(xm), _label_set(ym))
                 for xm, ym in zip(*_pair_masks(g, max_elements)))


def lattice_from_graph(g: GaloisGraph,
                       max_elements: int = DEFAULT_MAX_ELEMENTS
                       ) -> tuple[Lattice, tuple[MaxOrthPair, ...]]:
    """The extremal lattice of maximal orthogonal pairs of g, ordered by
    containment of the X components.  Element i of the lattice is pairs[i];
    meets intersect the first components, joins intersect the second.

    The order is built on masks.  With col[i] the mask of the pairs whose X
    holds label i, X_a lies in X_b exactly when b is in col[i] for every
    i in X_a, so up(a) is the AND of those columns.  The pairs are sorted
    by |X|, a linear extension, so :func:`_linear_poset` finds the covers.
    """
    x_masks, y_masks = _pair_masks(g, max_elements)
    n = len(x_masks)
    labels = [_label_set(xm) for xm in x_masks]
    col = [0] * (g.n + 1)
    for a, xs in enumerate(labels):
        for i in xs:
            col[i] |= 1 << a
    p = _linear_poset([reduce(and_, map(col.__getitem__, xs), (1 << n) - 1) for xs in labels])
    # the closure of the empty set is contained in every closed set, and the
    # full label set is closed, so after sorting they sit at the two ends
    assert p.up_mask(0) == p.down_mask(n - 1) == (1 << n) - 1
    pairs = tuple(map(MaxOrthPair, labels, map(_label_set, y_masks)))
    return Lattice(p, 0, n - 1), pairs


def decompose(l: Lattice) -> tuple[tuple[Lattice, tuple[int, ...]],
                                   tuple[Lattice, tuple[int, ...]]]:
    """Split a trim lattice into the disjoint intervals [bottom, m_1] and
    [j_1, top].  Returns ((L1, map1), (L_up, map_up)) where the maps carry
    sublattice indices back to l."""
    idx = _trim_index(l, "decomposition requires a trim lattice")
    lower = interval(l, l.bottom, idx.m[0])
    upper = interval(l, idx.j[0], l.top)
    members = set(lower[1]) | set(upper[1])
    assert len(lower[1]) + len(upper[1]) == l.n and len(members) == l.n
    return lower, upper
