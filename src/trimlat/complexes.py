"""The independence complex of a trim lattice (the family of down-label
sets), the canonical join complex/graph of a semidistributive lattice,
flagness, independent-set enumeration, and the complementation between the
independence graph and the Galois graph.

Label and vertex sets are int masks, bit i-1 for label i, up to the output,
where each face's frozenset is built once.  The labels of a trim lattice's
covers are the overlap masks its irreducible indexing holds.  The complex
checks, on masks, that labels are distinct around each element, that the
down-label family equals the up-label family, and that it is closed under
subsets.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .errors import SizeLimitExceeded
from .galois import GaloisGraph, _MaskGraph, _trim_index, galois_graph, index_irreducibles
from .labelling import _label_masks, down_up_labels, semidistributive_labelling
from .lattice import Lattice
from .poset import DEFAULT_MAX_ELEMENTS


class SimplicialComplex(NamedTuple):
    """Explicit face-set complex on integer vertices."""

    vertices: frozenset[int]
    faces: frozenset[frozenset[int]]

    def skeleton_edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(tuple(sorted(f)) for f in self.faces if len(f) == 2)


class SimpleGraph(_MaskGraph):
    """Loop-free undirected graph on vertices 1..n, held as adj[v-1], the
    mask of v's neighbours; its edges are sorted pairs."""

    def __init__(self, n: int, edges):
        adj = [0] * n
        for a, b in edges:
            if not 1 <= a < b <= n:
                raise ValueError(f"edge ({a}, {b}) out of range")
            adj[a - 1] |= 1 << b - 1
            adj[b - 1] |= 1 << a - 1
        self._set(tuple(adj))

    def _set(self, adj: tuple[int, ...]) -> None:
        self.n, self.adj, self._masks = len(adj), adj, adj

    def _edge_masks(self) -> list[int]:
        return [m >> a << a for a, m in enumerate(self.adj)]  # the neighbours above each vertex


def undirected(g: GaloisGraph) -> SimpleGraph:
    """Forget edge directions of a Galois graph."""
    return SimpleGraph._of_masks(tuple([o | i for o, i in zip(g.out, g.inn)]))


def _label_family(l: Lattice, overlap: tuple[int, ...]) -> set[int]:
    """The down-label masks of a trim lattice from the overlap masks of its
    covers (:class:`trimlat.galois.IrreducibleIndexing`), checked to equal
    the up-label masks and to be closed under subsets."""
    down, up = _label_masks(l, l.covers, overlap)
    masks = set(down)
    assert masks == set(up), "down/up label families differ"
    assert all(down[z] ^ bit in masks for (_, z), bit in zip(l.covers, overlap)), \
        "label family not closed under subsets"
    return masks


def _label_complex(l: Lattice, family: set[int]) -> SimplicialComplex:
    """:func:`independence_complex` from the :func:`_label_family` masks."""
    faces = {0: frozenset()}  # the bottom's down-labels
    for m in sorted(family)[1:]:  # a smaller face plus its least label
        faces[m] = faces[m & (m - 1)] | {(m & -m).bit_length()}
    return SimplicialComplex(frozenset(range(1, len(l.join_irr) + 1)), frozenset(faces.values()))


def independence_complex(l: Lattice) -> SimplicialComplex:
    """The complex of down-label sets of a trim lattice; checked on the fly
    to equal the family of up-label sets and to be closed under subsets."""
    idx = _trim_index(l, "the independence complex needs a trim lattice")
    return _label_complex(l, _label_family(l, idx.overlap))


def is_flag(c: SimplicialComplex) -> bool:
    """True iff every clique of the 1-skeleton is a face, a size at a time,
    each clique grown by the vertices above its largest that are adjacent
    to all of it, so the work follows the cliques, not the vertex pairs."""
    nbrs = {v: set() for v in c.vertices}
    for a, b in c.skeleton_edges():
        if a in nbrs and b in nbrs:
            nbrs[a].add(b)
            nbrs[b].add(a)
    cliques = [((), set(c.vertices))]  # each clique, ascending, with the vertices that grow it
    while cliques:
        cliques = [(cl + (v,), {u for u in free & nbrs[v] if u > v})
                   for cl, free in cliques for v in free]
        if any(frozenset(cl) not in c.faces for cl, _ in cliques):
            return False
    return frozenset() in c.faces or not c.faces


def independent_sets(g: SimpleGraph,
                     max_count: int = DEFAULT_MAX_ELEMENTS) -> frozenset[frozenset[int]]:
    """All vertex subsets containing no edge, including the empty set,
    depth first from each face, smallest vertex first, on a stack of frames
    (t, free): face t of ``made`` and the mask (bit v-1 for vertex v) of
    the vertices above its largest, adjacent to none of it and not yet
    tried, never empty.  A face is recorded as its parent's index and its
    largest vertex, and its set is built only once the search is done."""
    made = [(0, 0)]
    stack = [(0, (1 << g.n) - 1)] if g.n else []
    while len(made) <= max_count:
        if not stack:
            faces = [frozenset()]
            for t, v in made[1:]:
                faces.append(faces[t] | {v})
            return frozenset(faces)
        t, free = stack.pop()
        low = free & -free
        if free ^ low:
            stack.append((t, free ^ low))
        v = low.bit_length()
        made.append((t, v))
        free &= ~g.adj[v - 1] & ~low
        if free:
            stack.append((len(made) - 1, free))
    raise SizeLimitExceeded(len(made), max_count, "independent sets")


def complement_check(l: Lattice) -> bool:
    """Whether the undirected Galois graph and the independence graph of a
    trim lattice partition the edges of the complete graph: per label k,
    the sources of its in-edges and the labels i > k with {k, i} a face of
    the label family are disjoint and are every label above k."""
    idx = _trim_index(l, "complement check is defined for trim lattices")
    g = galois_graph(l, idx)
    pairs = [0] * g.n
    for m in _label_family(l, idx.overlap):
        if m.bit_count() == 2:
            pairs[(m & -m).bit_length() - 1] |= m & m - 1
    full = (1 << g.n) - 1
    return all(not i & f and i | f == full >> k + 1 << k + 1
               for k, (i, f) in enumerate(zip(g.inn, pairs)))


def canonical_join_graph(l: Lattice) -> SimpleGraph:
    """Edges {a, b} of irreducible labels such that {j_a, j_b} is a canonical
    join representation, for an extremal semidistributive lattice."""
    sdl = semidistributive_labelling(l)
    idx = index_irreducibles(l)
    down = down_up_labels(l, sdl.gamma_j).down
    return SimpleGraph(idx.n, frozenset(
        e for d in down for e in combinations(sorted(map(idx.beta_j, d)), 2)))
