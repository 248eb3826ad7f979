"""The independence complex of a trim lattice (the family of down-label
sets), the canonical join complex/graph of a semidistributive lattice,
flagness, independent-set enumeration, and the complementation between the
independence graph and the Galois graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import NotExtremal, NotSemidistributive, SizeLimitExceeded
from .galois import GaloisGraph, _trim_labels, galois_graph, index_irreducibles
from .labelling import _sd_labelling, down_up_labels
from .lattice import Lattice, _kappas, is_extremal
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

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges


def undirected(g: GaloisGraph) -> SimpleGraph:
    """Forget edge directions of a Galois graph."""
    return SimpleGraph(g.n, frozenset((k, i) for i, k in g.edges))


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, frozenset(combinations(range(1, n + 1), 2)))


def complement_graph(g: SimpleGraph) -> SimpleGraph:
    return SimpleGraph(
        g.n,
        frozenset(e for e in combinations(range(1, g.n + 1), 2)
                  if e not in g.edges),
    )


def _label_complex(l: Lattice, labels) -> SimplicialComplex:
    """The complex of down-label sets, checked to equal the family of
    up-label sets and to be closed under subsets."""
    sets = down_up_labels(l, labels)
    faces = frozenset(sets.down)
    assert faces == frozenset(sets.up), "down/up label families differ"
    for f in faces:
        for v in f:
            assert f - {v} in faces, "label family not closed under subsets"
    n = len(l.join_irr)
    return SimplicialComplex(frozenset(range(1, n + 1)), faces)


def independence_complex(l: Lattice) -> SimplicialComplex:
    """The complex of down-label sets of a trim lattice; checked on the fly
    to equal the family of up-label sets and to be closed under subsets."""
    _, labels = _trim_labels(l, "the independence complex needs a trim lattice")
    return _label_complex(l, labels)


def is_flag(c: SimplicialComplex) -> bool:
    """True iff every clique of the 1-skeleton is a face."""
    edges = c.skeleton_edges()
    verts = sorted(c.vertices)

    def adjacent(a, b):
        return (min(a, b), max(a, b)) in edges

    cliques = [[]]
    for k in range(1, len(verts) + 1):
        new = []
        for cl in cliques:
            start = verts.index(cl[-1]) + 1 if cl else 0
            for v in verts[start:]:
                if all(adjacent(u, v) for u in cl):
                    new.append(cl + [v])
        if not new:
            break
        for cl in new:
            if frozenset(cl) not in c.faces:
                return False
        cliques = new
    return frozenset() in c.faces or not c.faces


def independent_sets(g: SimpleGraph,
                     max_count: int = DEFAULT_MAX_ELEMENTS) -> frozenset[frozenset[int]]:
    """All vertex subsets containing no edge, including the empty set."""
    adj = {v: set() for v in range(1, g.n + 1)}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    out = []
    chosen: list[int] = []

    def rec(start: int):
        out.append(frozenset(chosen))
        if len(out) > max_count:
            raise SizeLimitExceeded(len(out), max_count, "independent sets")
        for v in range(start, g.n + 1):
            if not adj[v] & set(chosen):
                chosen.append(v)
                rec(v + 1)
                chosen.pop()

    rec(1)
    return frozenset(out)


def complement_check(l: Lattice) -> bool:
    """Whether the undirected Galois graph and the independence graph of a
    trim lattice partition the edges of the complete graph."""
    idx, labels = _trim_labels(l, "complement check is defined for trim lattices")
    return _complementary(galois_graph(l, idx), _label_complex(l, labels))


def _complementary(g: GaloisGraph, comp: SimplicialComplex) -> bool:
    """Whether the undirected g and the 1-skeleton of comp partition the
    edges of the complete graph."""
    gal = undirected(g)
    indep = comp.skeleton_edges()
    if gal.edges & indep:
        return False
    return gal.edges | indep == complete_graph(gal.n).edges


def canonical_join_graph(l: Lattice) -> SimpleGraph:
    """Edges {a, b} of irreducible labels such that {j_a, j_b} is a canonical
    join representation, for an extremal semidistributive lattice."""
    kappa = _kappas(l)
    if kappa is None:
        raise NotSemidistributive((l.bottom, l.top), "lattice", ())
    if not is_extremal(l):
        raise NotExtremal("canonical join graph here uses the Galois indexing")
    idx = index_irreducibles(l)
    sets = down_up_labels(l, _sd_labelling(l, kappa).gamma_j)
    edges = set()
    for d in sets.down:
        labs = sorted(idx.beta_j(j) for j in d)
        for a, b in combinations(labs, 2):
            edges.add((a, b))
    return SimpleGraph(idx.n, frozenset(edges))
