"""Shared test collections, independent brute-force oracles, the
closure and cover scan that building a poset from its relations replaced,
the pure-Python table builders that the vectorised table kernel replaced,
the scans that the trim pipeline and the property predicates replaced, the
frozenset label-set code that the label bitmasks replaced, and graph
helpers for the canonical join graph tests.

The sweep collections are deliberately exhaustive at desk scale: all posets
on <= 5 elements up to relabelling (enumerated as the transitively closed
subsets of the upper-triangular pair set, so every isomorphism class
appears), and all Galois graphs on <= 5 vertices.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, permutations

import numpy as np
import pytest

from trimlat import (
    GaloisGraph,
    Poset,
    SimpleGraph,
    boolean,
    chain_product,
    down_up_labels,
    fixture,
    fixture_lattice,
    fixture_names,
    index_irreducibles,
    lattice_from_graph,
    lattice_from_poset,
    order_ideals,
    poset_from_relations,
    root_ideals,
    semidistributive_labelling,
    tamari,
    weak_order_S,
)
from trimlat.complexes import SimplicialComplex, undirected
from trimlat.errors import (
    CycleDetected,
    NotALattice,
    NotDescriptive,
    NotExtremal,
    NotSemidistributive,
    NotTrim,
    SizeLimitExceeded,
)
from trimlat.galois import (
    MaxOrthPair,
    _closed_x_masks,
    _closure_tables,
    _overlaps,
    galois_graph,
    orth_complete_y,
)
from trimlat.labelling import _label_dict
from trimlat.lattice import Chain, Lattice, is_extremal, is_semidistributive, is_trim
from trimlat.poset import DEFAULT_MAX_ELEMENTS
from trimlat.rowmotion import permutation_from_map
from trimlat.poset import _bits, canonical_extension


def naturally_labeled_posets(n: int) -> list[Poset]:
    """All posets on 0..n-1 whose index order is a linear extension."""
    pairs = list(combinations(range(n), 2))
    out = []
    for bits in range(1 << len(pairs)):
        rel = {pairs[i] for i in range(len(pairs)) if (bits >> i) & 1}
        if all((a, c) in rel
               for a, b in rel for b2, c in rel if b == b2 and a != c):
            out.append(poset_from_relations(n, sorted(rel)))
    return out


def all_galois_graphs(n: int) -> list[GaloisGraph]:
    pairs = [(i, k) for i in range(1, n + 1) for k in range(1, i)]
    out = []
    for bits in range(1 << len(pairs)):
        edges = frozenset(pairs[i] for i in range(len(pairs)) if (bits >> i) & 1)
        out.append(GaloisGraph(n, edges))
    return out


@pytest.fixture(scope="session")
def small_posets() -> list[Poset]:
    out = []
    for n in range(1, 6):
        out.extend(naturally_labeled_posets(n))
    return out


@pytest.fixture(scope="session")
def small_graphs() -> list[GaloisGraph]:
    out = []
    for n in range(0, 6):
        out.extend(all_galois_graphs(n))
    return out


@pytest.fixture(scope="session")
def graph_lattices(small_graphs) -> list[tuple[GaloisGraph, Lattice]]:
    return [(g, lattice_from_graph(g)[0]) for g in small_graphs]


TRIM_FIXTURES = ("fig1", "fig2", "fig3_left", "fig4", "fig8")


@pytest.fixture(scope="session")
def fixture_trim_lattices() -> list[tuple[str, Lattice]]:
    out = [(name, fixture(name)) for name in TRIM_FIXTURES]
    for name in ("fig9_grid_tamari", "fig9_2cambrian"):
        out.append((name, lattice_from_graph(fixture(name))[0]))
    return out


@pytest.fixture(scope="session")
def trim_collection(small_posets, graph_lattices, fixture_trim_lattices):
    """Every trim test lattice: figure fixtures, J(Q) for all small posets,
    tamari(n <= 5), and the trim lattices of all small Galois graphs."""
    out = list(fixture_trim_lattices)
    out.extend((f"J(poset{i})", order_ideals(q))
               for i, q in enumerate(small_posets))
    out.extend((f"tamari({n})", tamari(n)) for n in range(1, 6))
    out.extend((f"L({sorted(g.edges)} on {g.n})", lat)
               for g, lat in graph_lattices if is_trim(lat))
    return out


@pytest.fixture(scope="session")
def property_lattices(small_posets, graph_lattices):
    """The n <= 5 sweeps, every lattice on 3 to 7 elements (a bottom and a
    top put around each sweep poset; some are semidistributive on one side
    only), every fixture, and the families up to the sizes the property
    matrix runs, plus the one-element lattice."""
    out = [(f"J(poset{i})", order_ideals(q)) for i, q in enumerate(small_posets)]
    for i, q in enumerate(small_posets):
        relations = [(a + 1, b + 1) for a, b in q.covers]
        relations += [(0, x + 1) for x in range(q.n)] + [(x + 1, q.n + 1) for x in range(q.n)]
        try:
            out.append((f"bounded(poset{i})",
                        lattice_from_poset(poset_from_relations(q.n + 2, relations))))
        except NotALattice:
            pass
    out += [(f"L({sorted(g.edges)} on {g.n})", lat) for g, lat in graph_lattices]
    out += [(name, fixture_lattice(name)) for name in fixture_names()]
    out += [(f"boolean({k})", boolean(k)) for k in range(9)]
    out += [(f"tamari({k})", tamari(k)) for k in range(1, 7)]
    out += [(f"weak_order_S({k})", weak_order_S(k)) for k in range(1, 6)]
    out += [("root_ideals(5)", root_ideals(5)), ("chain_product(5,5)", chain_product(5, 5))]
    return out


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def brute_distributive(l: Lattice) -> bool:
    n = l.n
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if l.meet_of(x, l.join_of(y, z)) != \
                        l.join_of(l.meet_of(x, y), l.meet_of(x, z)):
                    return False
    return True


def brute_left_modular(l: Lattice, x: int) -> bool:
    """Left modularity straight from the definition, over all pairs y <= z
    (not just covers)."""
    for y in range(l.n):
        for z in range(l.n):
            if l.leq(y, z):
                if l.meet_of(l.join_of(y, x), z) != l.join_of(y, l.meet_of(x, z)):
                    return False
    return True


def brute_canonical_join_rep(l: Lattice, x: int):
    """Canonical join representation straight from the definition: the
    irredundant set of join-irreducibles joining to x that refines every
    other join-irreducible representation of x.  None if there is none;
    asserts uniqueness when one exists."""
    irr = l.join_irr
    representations = []
    irredundant = []
    for r in range(len(irr) + 1):
        for combo in combinations(irr, r):
            if l.join_all(combo) != x:
                continue
            representations.append(combo)
            if not any(l.join_all(c for c in combo if c != skip) == x
                       for skip in combo):
                irredundant.append(frozenset(combo))
    # refinement-least: every member of the representation lies below some
    # member of any competing representation
    winners = [
        a for a in irredundant
        if all(any(l.leq(e, b) for b in bset) for bset in representations
               for e in a)
    ]
    assert len(winners) <= 1
    return winners[0] if winners else None


def irreducible_pair_oracle(l: Lattice):
    """All pairs (X, Y) with Y the meet-irreducibles above everything in X
    and X the join-irreducibles below everything in Y (brute force over
    subsets of the join-irreducibles)."""
    out = []
    for r in range(len(l.join_irr) + 1):
        for xs in combinations(l.join_irr, r):
            y = frozenset(m for m in l.meet_irr
                          if all(l.leq(j, m) for j in xs))
            x = frozenset(j for j in l.join_irr
                          if all(l.leq(j, m) for m in y))
            if x == frozenset(xs):
                out.append((x, y))
    return out


def brute_independent_sets(n: int, undirected_edges) -> set[frozenset[int]]:
    out = set()
    verts = range(1, n + 1)
    for r in range(n + 1):
        for combo in combinations(verts, r):
            if not any((min(a, b), max(a, b)) in undirected_edges
                       for a, b in combinations(combo, 2)):
                out.add(frozenset(combo))
    return out


# ---------------------------------------------------------------------------
# the closure and pairwise cover scan that building from the relations'
# two passes replaced, kept as the oracle they must match exactly
# ---------------------------------------------------------------------------

def oracle_poset_from_relations(n: int, relations) -> Poset:
    """Up-sets by closure over the successor bits in reverse Kahn order,
    down-sets filled one bit at a time, and b a cover of a when nothing
    of a's up-set lies strictly below b; the same CycleDetected(a, b)."""
    succ = [0] * n
    for a, b in relations:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"relation ({a}, {b}) out of range for n={n}")
        if a == b:
            raise CycleDetected(a, b)
        succ[a] |= 1 << b
    indeg = [0] * n
    for v in range(n):
        for w in _bits(succ[v]):
            indeg[w] += 1
    ready = deque(v for v in range(n) if indeg[v] == 0)
    order = []
    while ready:
        v = ready.popleft()
        order.append(v)
        for w in _bits(succ[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    if len(order) < n:
        cur = min(v for v in range(n) if indeg[v] > 0)
        seen = {cur}
        while True:
            nxt = next(w for w in _bits(succ[cur]) if indeg[w] > 0)
            if nxt in seen:
                raise CycleDetected(nxt, cur)
            seen.add(nxt)
            cur = nxt
    up = [0] * n
    for v in reversed(order):
        m = 1 << v
        for w in _bits(succ[v]):
            m |= up[w]
        up[v] = m
    down = [1 << v for v in range(n)]
    for v in order:
        for w in _bits(up[v] ^ (1 << v)):
            down[w] |= 1 << v
    covers = []
    for a in range(n):
        strict = up[a] ^ (1 << a)
        for b in _bits(strict):
            if strict & down[b] & ~(1 << b) == 0:
                covers.append((a, b))
    return Poset(n, covers, up, down)


# ---------------------------------------------------------------------------
# pure-Python table builders: the loops the table kernel replaced, kept as
# oracles that the kernel must match exactly
# ---------------------------------------------------------------------------

def oracle_lattice_from_poset(p: Poset, names=None) -> Lattice:
    """Scan every pair: the least upper bound is the lowest common upper
    bound in a topological order, if it lies below all the others."""
    n = p.n
    if n == 0:
        raise NotALattice(0, 0, "bottom")
    mins = [x for x in range(n) if p.down_mask(x) == 1 << x]
    maxs = [x for x in range(n) if p.up_mask(x) == 1 << x]
    if len(mins) > 1:
        raise NotALattice(mins[0], mins[1], "meet")
    if len(maxs) > 1:
        raise NotALattice(maxs[0], maxs[1], "join")
    bottom, top = mins[0], maxs[0]
    order = canonical_extension(p)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i

    def to_topo(mask: int) -> int:
        out = 0
        for v in _bits(mask):
            out |= 1 << pos[v]
        return out

    up_t = [to_topo(p.up_mask(v)) for v in range(n)]
    down_t = [to_topo(p.down_mask(v)) for v in range(n)]
    join = np.zeros((n, n), dtype=np.int32)
    meet = np.zeros((n, n), dtype=np.int32)
    for x in range(n):
        for y in range(x, n):
            if p.leq(x, y):
                j, m = y, x
            elif p.leq(y, x):
                j, m = x, y
            else:
                common_up = up_t[x] & up_t[y]
                if common_up == 0:
                    raise NotALattice(x, y, "join")
                low = common_up & -common_up
                j = order[low.bit_length() - 1]
                if common_up & ~up_t[j]:
                    raise NotALattice(x, y, "join")
                common_down = down_t[x] & down_t[y]
                if common_down == 0:
                    raise NotALattice(x, y, "meet")
                m = order[common_down.bit_length() - 1]
                if common_down & ~down_t[m]:
                    raise NotALattice(x, y, "meet")
            join[x, y] = join[y, x] = j
            meet[x, y] = meet[y, x] = m
    return Lattice(p, meet, join, bottom, top, names=names)


def _containment_masks(keys) -> tuple[list[int], list[int]]:
    n = len(keys)
    up = [0] * n
    down = [0] * n
    for i, a in enumerate(keys):
        for j, b in enumerate(keys):
            if a & ~b == 0:
                up[i] |= 1 << j
                down[j] |= 1 << i
    return up, down


def oracle_lattice_from_ideal_masks(q: Poset, masks) -> Lattice:
    """Meet and join of ideals by intersection and union, looked up in a
    dict, one pair at a time."""
    index = {m: i for i, m in enumerate(masks)}
    n = len(masks)
    covers = []
    strict_down = [q.down_mask(x) ^ (1 << x) for x in range(q.n)]
    for i, ideal in enumerate(masks):
        free = ~ideal & ((1 << q.n) - 1)
        for x in _bits(free):
            if strict_down[x] & ~ideal == 0:
                covers.append((i, index[ideal | (1 << x)]))
    up, down = _containment_masks(masks)
    meet = np.empty((n, n), dtype=np.int32)
    join = np.empty((n, n), dtype=np.int32)
    for i, a in enumerate(masks):
        for j in range(i, n):
            b = masks[j]
            meet[i, j] = meet[j, i] = index[a & b]
            join[i, j] = join[j, i] = index[a | b]
    names = tuple("{" + ",".join(map(str, _bits(m))) + "}" for m in masks)
    return Lattice(Poset(n, covers, up, down), meet, join, 0, n - 1, names=names)


def oracle_lattice_from_graph(g: GaloisGraph) -> Lattice:
    """Maximal orthogonal pairs; meets intersect the X sides and joins the
    Y sides, looked up in dicts one pair at a time."""
    out, _ = _closure_tables(g)
    x_masks = _closed_x_masks(g, 10 ** 6)
    y_masks = [orth_complete_y(g, xm, out) for xm in x_masks]
    index = {xm: i for i, xm in enumerate(x_masks)}
    y_index = {ym: i for i, ym in enumerate(y_masks)}
    n = len(x_masks)
    up, down = _containment_masks(x_masks)
    covers = []
    for a in range(n):
        strict = up[a] ^ (1 << a)
        for b in _bits(strict):
            if strict & down[b] & ~(1 << b) == 0:
                covers.append((a, b))
    meet = np.empty((n, n), dtype=np.int32)
    join = np.empty((n, n), dtype=np.int32)
    for a in range(n):
        for b in range(a, n):
            meet[a, b] = meet[b, a] = index[x_masks[a] & x_masks[b]]
            join[a, b] = join[b, a] = y_index[y_masks[a] & y_masks[b]]
    pairs = [MaxOrthPair(frozenset(i + 1 for i in _bits(xm)),
                         frozenset(k + 1 for k in _bits(ym)))
             for xm, ym in zip(x_masks, y_masks)]
    names = tuple(
        "({" + ",".join(map(str, sorted(p.X))) + "},{"
        + ",".join(map(str, sorted(p.Y))) + "})" for p in pairs)
    return Lattice(Poset(n, covers, up, down), meet, join, 0, n - 1, names=names)


def oracle_interval(l: Lattice, a: int, b: int) -> tuple[Lattice, tuple[int, ...]]:
    """The interval [a, b] with its order and tables copied one pair at a
    time."""
    members = tuple(sorted(_bits(l.poset.up_mask(a) & l.poset.down_mask(b))))
    index = {x: i for i, x in enumerate(members)}
    k = len(members)
    covers = [(index[y], index[z]) for y, z in l.covers
              if y in index and z in index]
    up = [0] * k
    down = [0] * k
    for i, x in enumerate(members):
        for j, y in enumerate(members):
            if l.leq(x, y):
                up[i] |= 1 << j
                down[j] |= 1 << i
    meet = np.empty((k, k), dtype=np.int32)
    join = np.empty((k, k), dtype=np.int32)
    for i, x in enumerate(members):
        for j, y in enumerate(members):
            meet[i, j] = index[int(l.meet[x, y])]
            join[i, j] = index[int(l.join[x, y])]
    names = tuple(l.name_of(x) for x in members) if l.names else None
    return Lattice(Poset(k, covers, up, down), meet, join, index[a], index[b],
                   names=names), members


def _inversion_mask(perm, pair_index) -> int:
    mask = 0
    for p, q in combinations(range(len(perm)), 2):
        lo, hi = min(perm[p], perm[q]), max(perm[p], perm[q])
        if perm[p] > perm[q]:
            mask |= 1 << pair_index[(lo, hi)]
    return mask


def oracle_weak_order_S(n: int) -> Lattice:
    """Weak order on S_n with the order read off inversion sets one pair at
    a time and the tables from :func:`oracle_lattice_from_poset`."""
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    pair_index = {pair: k for k, pair in enumerate(combinations(range(n), 2))}
    inv = [_inversion_mask(p, pair_index) for p in perms]
    covers = []
    for p in perms:
        for k in range(n - 1):
            if p[k] < p[k + 1]:
                q = p[:k] + (p[k + 1], p[k]) + p[k + 2:]
                covers.append((index[p], index[q]))
    up, down = _containment_masks(inv)
    names = tuple("".join(str(v + 1) for v in p) for p in perms)
    return oracle_lattice_from_poset(Poset(len(perms), covers, up, down), names=names)


def assert_same_lattice(got: Lattice, want: Lattice) -> None:
    """Identical order (covers, up and down masks), tables, bounds,
    irreducibles and names."""
    assert got.n == want.n
    assert got.covers == want.covers
    for x in range(want.n):
        assert got.poset.up_mask(x) == want.poset.up_mask(x)
        assert got.poset.down_mask(x) == want.poset.down_mask(x)
    assert got.meet.dtype == want.meet.dtype and got.join.dtype == want.join.dtype
    assert np.array_equal(got.meet, want.meet)
    assert np.array_equal(got.join, want.join)
    assert (got.bottom, got.top) == (want.bottom, want.top)
    assert (got.join_irr, got.meet_irr) == (want.join_irr, want.meet_irr)
    assert got.names == want.names


# ---------------------------------------------------------------------------
# the per-element scans the trim pipeline replaced, kept as oracles that the
# linear-time and vectorised paths must match exactly
# ---------------------------------------------------------------------------

def oracle_canonical_extension(q: Poset) -> tuple[int, ...]:
    """Bit scan: repeatedly remove the smallest-index minimal element."""
    remaining = (1 << q.n) - 1
    out = []
    while remaining:
        for x in _bits(remaining):
            if q.down_mask(x) & remaining == 1 << x:
                out.append(x)
                remaining ^= 1 << x
                break
    return tuple(out)


def oracle_heights(l: Lattice) -> tuple[list[int], list[int]]:
    """Heights and coheights relaxed along the oracle extension."""
    order = oracle_canonical_extension(l.poset)
    h = [0] * l.n
    for v in order:
        for w in l.upper_covers(v):
            h[w] = max(h[w], h[v] + 1)
    co = [0] * l.n
    for v in reversed(order):
        for w in l.lower_covers(v):
            co[w] = max(co[w], co[v] + 1)
    return h, co


def oracle_index(l: Lattice, chain) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The irreducibles each chain step adds and retires, by scanning all
    join- and meet-irreducibles with scalar order queries."""
    xs = chain.elements
    j = []
    m = []
    for i in range(1, len(xs)):
        (new_j,) = [t for t in l.join_irr
                    if l.leq(t, xs[i]) and not l.leq(t, xs[i - 1])]
        (new_m,) = [t for t in l.meet_irr
                    if l.leq(xs[i - 1], t) and not l.leq(xs[i], t)]
        j.append(new_j)
        m.append(new_m)
    return tuple(j), tuple(m)


def oracle_pair_masks(l: Lattice, idx) -> tuple[list[int], list[int]]:
    """Per element x, the bitmasks {i : j_i <= x} and {k : m_k >= x} from
    rank scalar order queries each."""
    xj = [0] * l.n
    ym = [0] * l.n
    for x in range(l.n):
        a = b = 0
        for i in range(idx.n):
            if l.leq(idx.j[i], x):
                a |= 1 << i
            if l.leq(x, idx.m[i]):
                b |= 1 << i
        xj[x] = a
        ym[x] = b
    return xj, ym


def oracle_element_pair(l: Lattice, x: int, idx) -> MaxOrthPair:
    """The maximal orthogonal pair of x from scalar order queries against
    every j_i and m_k."""
    return MaxOrthPair(
        frozenset(i + 1 for i in range(idx.n) if l.leq(idx.j[i], x)),
        frozenset(k + 1 for k in range(idx.n) if l.leq(x, idx.m[k])))


def oracle_first_non_overlapping_cover(l: Lattice):
    """The first cover y covered-by z, in cover order, with y_M & z_J
    empty, as (y, z, y_M, z_J), or None; two scalar pairs per cover."""
    idx = index_irreducibles(l)
    for y, z in l.covers:
        py = oracle_element_pair(l, y, idx)
        pz = oracle_element_pair(l, z, idx)
        if not (py.Y & pz.X):
            return y, z, py.Y, pz.X
    return None


def oracle_galois_graph(l: Lattice, idx) -> GaloisGraph:
    """Edges i -> k with j_i not below m_k, by one scalar order query per
    pair of labels."""
    edges = set()
    for i in range(1, idx.n + 1):
        for k in range(1, idx.n + 1):
            if i != k and not l.leq(idx.j[i - 1], idx.m[k - 1]):
                if i < k:
                    raise NotExtremal(
                        f"indexing inconsistent: edge {i}->{k} with i < k")
                edges.add((i, k))
    return GaloisGraph(idx.n, frozenset(edges))


# ---------------------------------------------------------------------------
# the triple and per-cover scans the property predicates replaced, kept as
# oracles that the irreducible tests must match exactly
# ---------------------------------------------------------------------------

def oracle_is_distributive(l: Lattice):
    """(verdict, witness): the first triple (x, y, z), row-major, with
    x ^ (y v z) != (x ^ y) v (x ^ z)."""
    M, J = l.meet, l.join
    for x in range(l.n):
        lhs = M[x][J]
        rhs = J[M[x][:, None], M[x][None, :]]
        if not np.array_equal(lhs, rhs):
            ys, zs = np.nonzero(lhs != rhs)
            return False, (x, int(ys[0]), int(zs[0]))
    return True, None


def oracle_is_semidistributive(l: Lattice):
    """(verdict, witness): per x, the first (y, z) breaking the join law,
    then the meet law, over all triples."""
    M, J = l.meet, l.join
    for x in range(l.n):
        jx, mx = J[x], M[x]
        eq = jx[:, None] == jx[None, :]
        bad = eq & (jx[M] != jx[:, None])
        if bad.any():
            ys, zs = np.nonzero(bad)
            return False, ("join", x, int(ys[0]), int(zs[0]))
        eq = mx[:, None] == mx[None, :]
        bad = eq & (mx[J] != mx[:, None])
        if bad.any():
            ys, zs = np.nonzero(bad)
            return False, ("meet", x, int(ys[0]), int(zs[0]))
    return True, None


def oracle_left_modular_elements(l: Lattice) -> tuple[int, ...]:
    """The per-cover loop: scalar table lookups on every cover, per x."""
    M, J = l.meet, l.join
    return tuple(x for x in range(l.n)
                 if all(M[J[y, x], z] == J[y, M[x, z]] for y, z in l.covers))


def oracle_left_modular_chain(l: Lattice):
    """Depth-first search over covers inside the precomputed set of
    left-modular elements, smallest index first."""
    lm = set(oracle_left_modular_elements(l))
    if l.bottom not in lm or l.top not in lm:
        return None
    stack = [(l.bottom, (l.bottom,))]
    seen = set()
    while stack:
        cur, path = stack.pop()
        if cur == l.top:
            return Chain(path, saturated=True)
        for w in sorted(l.upper_covers(cur), reverse=True):
            if w in lm and (w, len(path)) not in seen:
                seen.add((w, len(path)))
                stack.append((w, path + (w,)))
    return None


def _oracle_unique(l: Lattice, candidates, cover, side: str, dual: bool) -> int:
    best = l.join_all(candidates) if dual else l.meet_all(candidates)
    if best not in candidates:
        ext = [c for c in candidates
               if not any(l.lt(c, d) if dual else l.lt(d, c) for d in candidates)]
        raise NotSemidistributive(cover, side, tuple(ext))
    return best


def oracle_semidistributive_labelling(l: Lattice):
    """(gamma_j, gamma_m, kappa) by scanning every element per cover and
    per join-irreducible, raising NotSemidistributive as the labelling
    does."""
    gamma_j = {}
    gamma_m = {}
    for x, y in l.covers:
        gj = _oracle_unique(l, [z for z in range(l.n) if l.join_of(x, z) == y],
                            (x, y), "minimal-join", dual=False)
        gm = _oracle_unique(l, [z for z in range(l.n) if l.meet_of(z, y) == x],
                            (x, y), "maximal-meet", dual=True)
        if gj not in l.join_irr:
            raise NotSemidistributive((x, y), "join-irreducible", (gj,))
        if gm not in l.meet_irr:
            raise NotSemidistributive((x, y), "meet-irreducible", (gm,))
        gamma_j[(x, y)] = gj
        gamma_m[(x, y)] = gm
    kappa = {}
    for j in l.join_irr:
        j_star = l.lower_covers(j)[0]
        cand = [z for z in range(l.n) if l.leq(j_star, z) and not l.leq(j, z)]
        kappa[j] = _oracle_unique(l, cand, (j_star, j), "kappa", dual=True)
    if sorted(kappa.values()) != sorted(l.meet_irr):
        raise NotSemidistributive((l.bottom, l.top), "kappa-bijection",
                                  tuple(kappa.values()))
    for e, gj in gamma_j.items():
        if kappa[gj] != gamma_m[e]:
            raise NotSemidistributive(e, "kappa-consistency", (kappa[gj], gamma_m[e]))
    return gamma_j, gamma_m, kappa


# ---------------------------------------------------------------------------
# the frozenset label sets, complexes, independent sets and rowmotion map
# that the label bitmasks replaced, kept as oracles the mask paths must
# match exactly, errors included
# ---------------------------------------------------------------------------

def oracle_down_up_labels(l: Lattice, labelling):
    """(down, up): per element, the label sets of its lower and upper
    covers, built as Python sets."""
    labels = _label_dict(labelling)
    down = [set() for _ in range(l.n)]
    up = [set() for _ in range(l.n)]
    for (y, z), lab in labels.items():
        up[y].add(lab)
        down[z].add(lab)
    for x in range(l.n):
        if len(down[x]) != len(l.lower_covers(x)) or len(up[x]) != len(l.upper_covers(x)):
            raise ValueError(f"labelling not defined (or not distinct) around {x}")
    return tuple(map(frozenset, down)), tuple(map(frozenset, up))


def oracle_trim_labels(l: Lattice, what: str):
    """(indexing, overlap labels) of a trim lattice, extremality first by
    its own heights pass; NotTrim(what) otherwise."""
    if is_extremal(l):
        idx = index_irreducibles(l)
        labels = {c: v.bit_length() for c, v in zip(l.covers, _overlaps(l, idx))}
        if all(labels.values()):
            return idx, labels
    raise NotTrim(what)


def oracle_label_complex(l: Lattice, labels) -> SimplicialComplex:
    """The complex of down-label sets, checked to equal the family of
    up-label sets and to be closed under subsets, face by face."""
    down, up = oracle_down_up_labels(l, labels)
    faces = frozenset(down)
    assert faces == frozenset(up), "down/up label families differ"
    for f in faces:
        for v in f:
            assert f - {v} in faces, "label family not closed under subsets"
    return SimplicialComplex(frozenset(range(1, len(l.join_irr) + 1)), faces)


def oracle_independence_complex(l: Lattice) -> SimplicialComplex:
    _, labels = oracle_trim_labels(l, "the independence complex needs a trim lattice")
    return oracle_label_complex(l, labels)


def oracle_complement_check(l: Lattice) -> bool:
    """Whether the undirected Galois graph and the skeleton of the
    complex, as edge sets, partition the edges of the complete graph."""
    idx, labels = oracle_trim_labels(l, "complement check is defined for trim lattices")
    gal = undirected(galois_graph(l, idx))
    indep = oracle_label_complex(l, labels).skeleton_edges()
    if gal.edges & indep:
        return False
    return gal.edges | indep == frozenset(combinations(range(1, gal.n + 1), 2))


def oracle_independent_sets(g: SimpleGraph, max_count: int = DEFAULT_MAX_ELEMENTS):
    """Depth-first over a list of chosen vertices, smallest vertex first,
    testing each candidate against the set of those chosen."""
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


def oracle_rowmotion_global(l: Lattice, labelling):
    """row(x) = the unique y with U(y) = D(x), by a map keyed by the
    frozenset up-label sets."""
    down, up = oracle_down_up_labels(l, labelling)
    by_up: dict[frozenset, int] = {}
    for y, u in enumerate(up):
        if u in by_up:
            raise NotDescriptive(f"elements {by_up[u]} and {y} share up-labels")
        by_up[u] = y
    forward = []
    for x in range(l.n):
        if down[x] not in by_up:
            raise NotDescriptive(f"down-labels of {x} match no up-label set")
        forward.append(by_up[down[x]])
    return permutation_from_map(forward)


# ---------------------------------------------------------------------------
# graph helpers for the canonical join graph tests
# ---------------------------------------------------------------------------

def canonical_join_graph_elements(l: Lattice) -> SimpleGraph:
    """Canonical join graph of any semidistributive lattice, with vertices
    1..|J| numbering the join-irreducibles in element order (no Galois
    indexing required)."""
    if not is_semidistributive(l):
        raise NotSemidistributive((l.bottom, l.top), "lattice", ())
    sdl = semidistributive_labelling(l)
    sets = down_up_labels(l, sdl.gamma_j)
    label = {j: i + 1 for i, j in enumerate(l.join_irr)}
    edges = set()
    for d in sets.down:
        labs = sorted(label[j] for j in d)
        for a, b in combinations(labs, 2):
            edges.add((a, b))
    return SimpleGraph(len(l.join_irr), frozenset(edges))


def graph_isomorphic(g1: SimpleGraph, g2: SimpleGraph) -> bool:
    """Brute-force undirected graph isomorphism (intended for n <= 12)."""
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    verts = list(range(1, g1.n + 1))
    target = g2.edges
    for perm in permutations(verts):
        relabel = dict(zip(verts, perm))
        if all((min(relabel[a], relabel[b]), max(relabel[a], relabel[b])) in target
               for a, b in g1.edges):
            return True
    return False
