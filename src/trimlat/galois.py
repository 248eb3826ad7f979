"""The representation theory of extremal lattices: indexing irreducibles
along a maximal-length chain, the Galois graph, maximal orthogonal pairs,
reconstruction, overlapping covers, and the two-interval decomposition of a
trim lattice.

Labels are 1..n throughout (n = lattice length); label sets are manipulated
as bitmasks with bit i-1 standing for label i.  The indexing carries each
element's maximal orthogonal pair as two such masks, x_J and x_M, and the
element pairs, the Galois edges, the overlap of each cover and so trimness
and the trim labels are all read from them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    NotACover,
    NotExtremal,
    NotTrim,
    SizeLimitExceeded,
)
from .lattice import (
    Chain,
    Lattice,
    _bool_rows,
    _coheights,
    _containment,
    _ints,
    _longest_chain,
    _pack,
    _pack_bool,
    _tables,
    interval,
)
from .poset import DEFAULT_MAX_ELEMENTS, Poset, _bits, poset_from_relations


@dataclass(frozen=True)
class IrreducibleIndexing:
    """Join- and meet-irreducibles indexed along a maximal-length chain:
    chain[i] = j[0] v ... v j[i-1] = m[i] ^ ... ^ m[n-1] (labels are
    1-based, so j[i-1] is the irreducible with label i), and the maximal
    orthogonal pair of each element x as bitmasks: xj[x] of {i : j_i <= x}
    and ym[x] of {k : x <= m_k} (bit i-1 is label i)."""

    chain: Chain
    j: tuple[int, ...]
    m: tuple[int, ...]
    xj: tuple[int, ...]
    ym: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.j)

    def beta_j(self, element: int) -> int:
        """Label of a join-irreducible element."""
        return self.j.index(element) + 1

    def beta_m(self, element: int) -> int:
        return self.m.index(element) + 1


@dataclass(frozen=True)
class GaloisGraph:
    """Loop-free digraph on labels 1..n with every edge i -> k having
    i > k."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for i, k in self.edges:
            if not (1 <= k < i <= self.n):
                raise ValueError(f"edge {i}->{k} violates i > k >= 1")

    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    def delete_vertices(self, gone) -> "GaloisGraph":
        """Induced subgraph with surviving labels compressed to 1..m,
        preserving relative order."""
        keep = [v for v in range(1, self.n + 1) if v not in set(gone)]
        relabel = {v: i + 1 for i, v in enumerate(keep)}
        edges = frozenset(
            (relabel[i], relabel[k]) for i, k in self.edges
            if i in relabel and k in relabel
        )
        return GaloisGraph(len(keep), edges)


@dataclass(frozen=True)
class MaxOrthPair:
    """Disjoint label sets (X, Y) with no X -> Y arrow, each maximal given
    the other.  One lattice element."""

    X: frozenset[int]
    Y: frozenset[int]


def index_irreducibles(l: Lattice, chain: Chain | None = None) -> IrreducibleIndexing:
    """Index the irreducibles of an extremal lattice along a maximal-length
    chain (default: the deterministic one).  Each chain step introduces
    exactly one new join-irreducible from below and retires exactly one
    meet-irreducible from above.  The pair masks are the up-sets of the j_i
    and the down-sets of the m_k, unpacked to rank-by-n bits, transposed
    and packed again per element."""
    # one pass of coheights gives the length, hence extremality, and the
    # default chain
    co = _coheights(l)
    if not len(l.join_irr) == len(l.meet_irr) == co[l.bottom]:
        raise NotExtremal("irreducible indexing requires an extremal lattice")
    if chain is None:
        chain = _longest_chain(l, co)
    xs = chain.elements
    if xs[0] != l.bottom or xs[-1] != l.top or any(
            xs[i + 1] not in l.upper_covers(xs[i]) for i in range(len(xs) - 1)):
        raise ValueError("chain must be saturated from bottom to top")
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
    acc = l.bottom
    for i in range(n):
        acc = l.join_of(acc, j[i])
        assert acc == xs[i + 1], "join-prefix identity failed"
    acc = l.top
    for i in range(n - 1, -1, -1):
        assert acc == xs[i + 1], "meet-suffix identity failed"
        acc = l.meet_of(acc, m[i])
    assert acc == xs[0]
    below = _bool_rows([p.up_mask(t) for t in j], l.n)
    above = _bool_rows([p.down_mask(t) for t in m], l.n)
    return IrreducibleIndexing(chain, tuple(j), tuple(m),
                               tuple(_ints(_pack_bool(below.T))),
                               tuple(_ints(_pack_bool(above.T))))


def _label_set(mask: int) -> frozenset[int]:
    """The labels of a bitmask (bit i-1 is label i)."""
    return frozenset(i + 1 for i in _bits(mask))


def _overlaps(l: Lattice, idx: IrreducibleIndexing) -> list[int]:
    """Per cover y covered-by z, in ``l.covers`` order, the label set
    y_M & z_J as a bitmask (bit i-1 is label i).

    In an extremal lattice it holds at most one label:

    - for i < k, j_i <= x_i <= x_{k-1} <= m_k along the chain;
    - x_J and x_M are disjoint, as j_i <= m_i would force
      x_i = x_{i-1} v j_i <= m_i, yet step i retires m_i;
    - so if i < k were both in y_M & z_J, j_i would not be below y (i is
      in y_M), and z = y v j_i <= m_k would put k in both z_J and z_M.
    """
    xj, ym = idx.xj, idx.ym
    return [ym[y] & xj[z] for y, z in l.covers]


def _trim_overlaps(l: Lattice, what: str) -> tuple[IrreducibleIndexing, list[int]]:
    """The default indexing and the :func:`_overlaps` masks of a trim
    lattice, with extremality read from the indexing's coheights; raises
    NotTrim(what) when l is not trim."""
    try:
        idx = index_irreducibles(l)
    except NotExtremal:
        raise NotTrim(what) from None
    overlap = _overlaps(l, idx)
    if not all(overlap):
        raise NotTrim(what)
    return idx, overlap


def element_pair(l: Lattice, x: int,
                 idx: IrreducibleIndexing | None = None) -> MaxOrthPair:
    """The maximal orthogonal pair representing element x."""
    if idx is None:
        idx = index_irreducibles(l)
    return MaxOrthPair(_label_set(idx.xj[x]), _label_set(idx.ym[x]))


def galois_graph(l: Lattice, idx: IrreducibleIndexing | None = None) -> GaloisGraph:
    """Digraph on 1..n with an edge i -> k when j_i is not below m_k, that
    is when bit i-1 is not in xj[m_k]."""
    if idx is None:
        idx = index_irreducibles(l)
    full = (1 << idx.n) - 1
    edges = {(i + 1, k + 1) for k, t in enumerate(idx.m)
             for i in _bits(full & ~idx.xj[t] & ~(1 << k))}
    wrong = min((e for e in edges if e[0] < e[1]), default=None)
    if wrong is not None:
        raise NotExtremal(
            f"indexing inconsistent: edge {wrong[0]}->{wrong[1]} with i < k")
    return GaloisGraph(idx.n, frozenset(edges))


def galois_poset(g: GaloisGraph) -> Poset:
    """The transitive closure of the Galois graph as a poset on 0..n-1
    (label i is element i-1; an edge i -> k puts k below i)."""
    return poset_from_relations(
        g.n, [(k - 1, i - 1) for i, k in g.edges])


def _closure_tables(g: GaloisGraph) -> tuple[list[int], list[int]]:
    """out[v] = mask of targets of v's out-edges; inn[v] dually (bit k-1
    for label k)."""
    out = [0] * (g.n + 1)
    inn = [0] * (g.n + 1)
    for i, k in g.edges:
        out[i] |= 1 << (k - 1)
        inn[k] |= 1 << (i - 1)
    return out, inn


def orth_complete_y(g: GaloisGraph, x_mask: int, out) -> int:
    """Largest Y disjoint from X with no X -> Y arrow."""
    forbidden = x_mask
    for i in _bits(x_mask):
        forbidden |= out[i + 1]
    return ~forbidden & ((1 << g.n) - 1)


def orth_complete_x(g: GaloisGraph, y_mask: int, inn) -> int:
    """Largest X disjoint from Y with no X -> Y arrow."""
    forbidden = y_mask
    for k in _bits(y_mask):
        forbidden |= inn[k + 1]
    return ~forbidden & ((1 << g.n) - 1)


def _closed_x_masks(g: GaloisGraph, max_elements: int) -> list[int]:
    """All X-components of maximal orthogonal pairs, via NextClosure on the
    closure X |-> completion(completion(X))."""
    out, inn = _closure_tables(g)
    full = (1 << g.n) - 1

    def close(x: int) -> int:
        return orth_complete_x(g, orth_complete_y(g, x, out), inn)

    masks = []
    a = close(0)
    masks.append(a)
    while a != full:
        for i in range(g.n - 1, -1, -1):
            if not (a >> i) & 1:
                b = close((a & ((1 << i) - 1)) | (1 << i))
                if b & ((1 << i) - 1) & ~a == 0:
                    a = b
                    break
        else:
            break
        masks.append(a)
        if len(masks) > max_elements:
            raise SizeLimitExceeded(len(masks), max_elements,
                                    "maximal orthogonal pairs")
    return sorted(masks, key=lambda m: (m.bit_count(), m))


def max_orth_pairs(g: GaloisGraph,
                   max_elements: int = DEFAULT_MAX_ELEMENTS) -> tuple[MaxOrthPair, ...]:
    """All maximal orthogonal pairs of g, sorted by (|X|, X)."""
    out, _ = _closure_tables(g)
    pairs = []
    for xm in _closed_x_masks(g, max_elements):
        ym = orth_complete_y(g, xm, out)
        pairs.append(MaxOrthPair(_label_set(xm), _label_set(ym)))
    return tuple(pairs)


def lattice_from_graph(g: GaloisGraph,
                       max_elements: int = DEFAULT_MAX_ELEMENTS
                       ) -> tuple[Lattice, tuple[MaxOrthPair, ...]]:
    """The extremal lattice of maximal orthogonal pairs of g, ordered by
    containment of the X components.  Element i of the lattice is pairs[i];
    meets intersect the first components, joins intersect the second."""
    out, inn = _closure_tables(g)
    x_masks = _closed_x_masks(g, max_elements)
    y_masks = [orth_complete_y(g, xm, out) for xm in x_masks]
    n = len(x_masks)

    x_keys = _pack(x_masks, g.n)
    meet, join, _ = _tables(x_keys, _pack(y_masks, g.n))
    poset = _containment(x_keys)  # x_masks are sorted by size

    pairs = tuple(MaxOrthPair(_label_set(xm), _label_set(ym))
                  for xm, ym in zip(x_masks, y_masks))
    names = tuple(
        "({" + ",".join(map(str, sorted(p.X))) + "},{"
        + ",".join(map(str, sorted(p.Y))) + "})" for p in pairs)
    # the closure of the empty set is contained in every closed set, and the
    # full label set is closed, so after sorting they sit at the two ends
    lat = Lattice(poset, meet, join, 0, n - 1, names=names)
    assert [x for x in range(n) if not poset.lower_covers(x)] == [0]
    assert [x for x in range(n) if not poset.upper_covers(x)] == [n - 1]
    return lat, pairs


def is_overlapping(l: Lattice, y: int, z: int,
                   idx: IrreducibleIndexing | None = None) -> bool:
    """Whether the cover y covered-by z has y_M meeting z_J."""
    if z not in l.upper_covers(y):
        raise NotACover(y, z)
    if idx is None:
        idx = index_irreducibles(l)
    return idx.ym[y] & idx.xj[z] != 0


def overlap_label(l: Lattice, y: int, z: int,
                  idx: IrreducibleIndexing | None = None) -> int:
    """The label in y_M intersect z_J, unique when there is one (see
    :func:`_overlaps`)."""
    if z not in l.upper_covers(y):
        raise NotACover(y, z)
    if idx is None:
        idx = index_irreducibles(l)
    inter = idx.ym[y] & idx.xj[z]
    if inter == 0:
        raise NotTrim(f"cover ({y}, {z}) is non-overlapping")
    return inter.bit_length()


def decompose(l: Lattice) -> tuple[tuple[Lattice, tuple[int, ...]],
                                   tuple[Lattice, tuple[int, ...]]]:
    """Split a trim lattice into the disjoint intervals [bottom, m_1] and
    [j_1, top].  Returns ((L1, map1), (L_up, map_up)) where the maps carry
    sublattice indices back to l."""
    idx, _ = _trim_overlaps(l, "decomposition requires a trim lattice")
    lower = interval(l, l.bottom, idx.m[0])
    upper = interval(l, idx.j[0], l.top)
    members = set(lower[1]) | set(upper[1])
    assert len(lower[1]) + len(upper[1]) == l.n and len(members) == l.n
    return lower, upper
