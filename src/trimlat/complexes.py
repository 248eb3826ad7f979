"""The independence complex of a trim lattice (the family of down-label
sets), the canonical join complex/graph of a semidistributive lattice,
flagness, independent-set enumeration, and the complementation between the
independence graph and the Galois graph.

Label and vertex sets are int masks, bit i-1 for label i, up to the output,
where each face's frozenset is built once.  The complex checks, on masks,
that labels are distinct around each element, that the down-label family
equals the up-label family, and that it is closed under subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import NotExtremal, NotSemidistributive, SizeLimitExceeded
from .galois import GaloisGraph, _trim_overlaps, galois_graph, index_irreducibles
from .labelling import _label_masks, _sd_labelling, down_up_labels
from .lattice import Lattice, _kappas
from .poset import DEFAULT_MAX_ELEMENTS


@dataclass(frozen=True)
class SimplicialComplex:
    """Explicit face-set complex on integer vertices."""

    vertices: frozenset[int]
    faces: frozenset[frozenset[int]]

    def skeleton_edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(tuple(sorted(f)) for f in self.faces if len(f) == 2)


@dataclass(frozen=True)
class SimpleGraph:
    """Loop-free undirected graph on vertices 1..n, edges as sorted pairs."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for a, b in self.edges:
            if not (1 <= a < b <= self.n):
                raise ValueError(f"edge ({a}, {b}) out of range")


def undirected(g: GaloisGraph) -> SimpleGraph:
    """Forget edge directions of a Galois graph."""
    return SimpleGraph(g.n, frozenset((k, i) for i, k in g.edges))


def complement_graph(g: SimpleGraph) -> SimpleGraph:
    return SimpleGraph(
        g.n,
        frozenset(e for e in combinations(range(1, g.n + 1), 2)
                  if e not in g.edges),
    )


def _label_complex(l: Lattice, overlap: list[int]) -> SimplicialComplex:
    """:func:`independence_complex` from the :func:`trimlat.galois._overlaps`
    masks of a trim lattice's covers."""
    down, up = _label_masks(l, l.covers, overlap)
    masks = set(down)
    assert masks == set(up), "down/up label families differ"
    assert all(down[z] ^ bit in masks for (_, z), bit in zip(l.covers, overlap)), \
        "label family not closed under subsets"
    faces = {0: frozenset()}  # the bottom's down-labels
    for m in sorted(masks)[1:]:  # a smaller face plus its least label
        faces[m] = faces[m & (m - 1)] | {(m & -m).bit_length()}
    return SimplicialComplex(frozenset(range(1, len(l.join_irr) + 1)), frozenset(faces.values()))


def independence_complex(l: Lattice) -> SimplicialComplex:
    """The complex of down-label sets of a trim lattice; checked on the fly
    to equal the family of up-label sets and to be closed under subsets."""
    _, overlap = _trim_overlaps(l, "the independence complex needs a trim lattice")
    return _label_complex(l, overlap)


def is_flag(c: SimplicialComplex) -> bool:
    """True iff every clique of the 1-skeleton is a face."""
    edges = c.skeleton_edges()  # sorted pairs
    cliques = [()]  # the cliques of one size, each an ascending tuple
    while cliques:
        cliques = [cl + (v,) for cl in cliques for v in c.vertices
                   if (not cl or v > cl[-1]) and all((u, v) in edges for u in cl)]
        if any(frozenset(cl) not in c.faces for cl in cliques):
            return False
    return frozenset() in c.faces or not c.faces


def independent_sets(g: SimpleGraph,
                     max_count: int = DEFAULT_MAX_ELEMENTS) -> frozenset[frozenset[int]]:
    """All vertex subsets containing no edge, including the empty set,
    depth first from each face, with ``free`` the mask (bit v-1 for vertex
    v) of the vertices above its largest and adjacent to none of it."""
    adj = [0] * (g.n + 1)
    for a, b in g.edges:
        adj[a] |= 1 << (b - 1)
        adj[b] |= 1 << (a - 1)
    out = []

    def rec(face: frozenset, free: int):
        out.append(face)
        if len(out) > max_count:
            raise SizeLimitExceeded(len(out), max_count, "independent sets")
        while free:
            v = (free & -free).bit_length()
            free &= free - 1
            rec(face | {v}, free & ~adj[v])

    rec(frozenset(), (1 << g.n) - 1)
    return frozenset(out)


def complement_check(l: Lattice) -> bool:
    """Whether the undirected Galois graph and the independence graph of a
    trim lattice partition the edges of the complete graph."""
    idx, overlap = _trim_overlaps(l, "complement check is defined for trim lattices")
    return _complementary(galois_graph(l, idx), _label_complex(l, overlap))


def _complementary(g: GaloisGraph, comp: SimplicialComplex) -> bool:
    """Whether the undirected g and the 1-skeleton of comp partition the
    edges of the complete graph."""
    gal = undirected(g).edges
    indep = comp.skeleton_edges()  # both are sets of pairs 1 <= a < b <= g.n
    return not gal & indep and len(gal) + len(indep) == g.n * (g.n - 1) // 2


def canonical_join_graph(l: Lattice) -> SimpleGraph:
    """Edges {a, b} of irreducible labels such that {j_a, j_b} is a canonical
    join representation, for an extremal semidistributive lattice."""
    kappa = _kappas(l)
    if kappa is None:
        raise NotSemidistributive((l.bottom, l.top), "lattice", ())
    try:
        idx = index_irreducibles(l)
    except NotExtremal:
        raise NotExtremal("canonical join graph here uses the Galois indexing") from None
    down = down_up_labels(l, _sd_labelling(l, kappa).gamma_j).down
    return SimpleGraph(idx.n, frozenset(
        e for d in down for e in combinations(sorted(map(idx.beta_j, d)), 2)))
