"""Shared test collections, independent brute-force oracles, the
closure and cover scan that building a poset from its relations replaced,
the closure of the edge list that the label poset's cover walk replaced,
the pairwise containment that building ideal and graph lattices on masks
replaced,
the pure-Python table builders that the vectorised table kernel replaced,
the table check that validation on up masks replaced, the eager table
constructions that tables built on first read replaced and the J/M-key
hash lookup that the recursion over covers replaced, the table reads
that congruences and the three label formulas on masks replaced,
the scans that the trim pipeline and the property predicates replaced, the
frozenset label-set code that the label bitmasks replaced, the pairwise
rational Dyck relations, graph helpers for the canonical join graph tests,
and the library functions that only tests call.

The sweep collections are deliberately exhaustive at desk scale: all posets
on <= 5 elements up to relabelling (enumerated as the transitively closed
subsets of the upper-triangular pair set, so every isomorphism class
appears), and all Galois graphs on <= 5 vertices.
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from itertools import combinations, permutations
from operator import and_

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
from trimlat.complexes import SimplicialComplex
from trimlat.errors import (
    CycleDetected,
    NotACongruence,
    NotALattice,
    NotDescriptive,
    NotExtremal,
    NotSemidistributive,
    NotTrim,
    SizeLimitExceeded,
    ThreeWayMismatch,
)
from trimlat.galois import MaxOrthPair, _pair_masks
from trimlat.generators import fixture_manifest
from trimlat.labelling import _label_dict
from trimlat.lattice import (
    Chain,
    Congruence,
    Lattice,
    _heights,
    _lattice_witness,
    _left_modular_test,
    congruence,
    is_extremal,
    is_semidistributive,
    is_trim,
)
from trimlat.poset import DEFAULT_MAX_ELEMENTS, _bits
from trimlat.rowmotion import permutation_from_map


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


def random_extension(rng, q) -> tuple[int, ...]:
    """A linear extension of the label poset q as labels 1..n, minimal
    labels first, each step a uniform choice among the minimal ones left."""
    left = (1 << q.n) - 1
    out = []
    while left:
        x = rng.choice([x for x in _bits(left) if q.down_mask(x) & left == 1 << x])
        out.append(x + 1)
        left ^= 1 << x
    return tuple(out)


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
    out += [(name, fixture_lattice(name)) for name in sorted(fixture_manifest())]
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


def _pack(masks, nbits: int) -> np.ndarray:
    """Python-int bitmasks of nbits bits as an (len(masks), w) uint64 array
    of keys, w >= 1."""
    w = max(1, -(-nbits // 64))
    buf = b"".join(m.to_bytes(8 * w, "little") for m in masks)
    return np.frombuffer(buf, dtype="<u8").reshape(len(masks), w)


# Rows of the oracles' pairwise compares and lookups go in blocks whose
# temporaries hold about this many cells, so their memory stays bounded.
_BLOCK_CELLS = 1 << 14

# odd, so multiplying by it permutes the uint64 values
_MIX = 0x9E3779B97F4A7C15


def _row_blocks(rows: int, width: int):
    step = max(1, _BLOCK_CELLS // max(1, width))
    for r0 in range(0, rows, step):
        yield r0, min(rows, r0 + step)


def _containment(keys: np.ndarray) -> Poset:
    """The order a <= b iff keys[a] is contained in keys[b], that is
    keys[a] & keys[b] == keys[a], for keys indexed in a linear extension of
    it (sorted by size, say)."""
    up: list[int] = []
    down: list[int] = []
    for r0, r1 in _row_blocks(len(keys), len(keys) * keys.shape[1]):
        block = keys[r0:r1, None, :]
        common = block & keys[None, :, :]
        for masks, rows in ((up, common == block), (down, common == keys[None])):
            packed = np.packbits(rows.all(axis=2), axis=1, bitorder="little")
            masks.extend(int.from_bytes(r.tobytes(), "little") for r in packed)
    covers = []
    for a, above in enumerate(up):
        # the lowest element left above a is minimal there: an upper cover
        rest = above ^ (1 << a)
        while rest:
            b = (rest & -rest).bit_length() - 1
            covers.append((a, b))
            rest &= ~up[b]
    return Poset(len(keys), covers, up, down)


def oracle_ideal_poset(q: Poset, max_elements: int = DEFAULT_MAX_ELEMENTS):
    """The ideals of q by a breadth-first walk that keeps no covers, sorted
    by (popcount, value), and their order by comparing every pair of packed
    masks (:func:`_containment`); the same SizeLimitExceeded."""
    strict_down = [q.down_mask(x) ^ (1 << x) for x in range(q.n)]
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for ideal in frontier:
            free = ~ideal & ((1 << q.n) - 1)
            for x in _bits(free):
                if strict_down[x] & ~ideal == 0:
                    new = ideal | (1 << x)
                    if new not in seen:
                        seen.add(new)
                        nxt.append(new)
            if len(seen) > max_elements:
                raise SizeLimitExceeded(len(seen), max_elements, "order ideals")
        frontier = nxt
    masks = tuple(sorted(seen, key=lambda m: (m.bit_count(), m)))
    return masks, _containment(_pack(masks, q.n))


# ---------------------------------------------------------------------------
# pure-Python table builders: the loops the table kernel replaced, kept as
# oracles that the kernel must match exactly
# ---------------------------------------------------------------------------

def eager_lattice(poset: Poset, meet, join, bottom: int, top: int) -> Lattice:
    """A Lattice holding the given int32 tables from the start, as every
    constructor built them before they were built on first read."""
    l = Lattice(poset, bottom, top)
    for table in (meet, join):
        table.setflags(write=False)
    l._meet, l._join = meet, join
    return l


def oracle_lattice_from_poset(p: Poset) -> Lattice:
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
    order = oracle_canonical_extension(p)
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
    return eager_lattice(p, meet, join, bottom, top)


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
    return eager_lattice(Poset(n, covers, up, down), meet, join, 0, n - 1)


def oracle_lattice_from_graph(g: GaloisGraph) -> Lattice:
    """Maximal orthogonal pairs; meets intersect the X sides and joins the
    Y sides, looked up in dicts one pair at a time."""
    x_masks, y_masks = _pair_masks(g, 10 ** 6)
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
    return eager_lattice(Poset(n, covers, up, down), meet, join, 0, n - 1)


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
    return eager_lattice(Poset(k, covers, up, down), meet, join, index[a], index[b]), members


def _inversion_mask(perm, pair_index) -> int:
    mask = 0
    for p, q in combinations(range(len(perm)), 2):
        lo, hi = min(perm[p], perm[q]), max(perm[p], perm[q])
        if perm[p] > perm[q]:
            mask |= 1 << pair_index[(lo, hi)]
    return mask


def _inversion_sets(perms, n: int) -> list[int]:
    """The inversion set of each permutation of 0..n-1, as a mask over the
    pairs of values in lexicographic order."""
    pair_index = {pair: k for k, pair in enumerate(combinations(range(n), 2))}
    return [_inversion_mask(p, pair_index) for p in perms]


def oracle_weak_order_S(n: int) -> Lattice:
    """Weak order on S_n with the order read off inversion sets one pair at
    a time and the tables from :func:`oracle_lattice_from_poset`."""
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    inv = _inversion_sets(perms, n)
    covers = []
    for p in perms:
        for k in range(n - 1):
            if p[k] < p[k + 1]:
                q = p[:k] + (p[k + 1], p[k]) + p[k + 2:]
                covers.append((index[p], index[q]))
    up, down = _containment_masks(inv)
    return oracle_lattice_from_poset(Poset(len(perms), covers, up, down))


def oracle_trees(n: int):
    """All binary trees with n internal nodes (None is a leaf), by left
    subtree size, then left, then right: the recursive generator that
    ``generators._trees`` replaced, which fixes the Tamari numbering."""
    if n == 0:
        yield None
        return
    for i in range(n):
        for left in oracle_trees(i):
            for right in oracle_trees(n - 1 - i):
                yield (left, right)


def _cambrian_avoids(perm, lower) -> bool:
    """Whether perm avoids 2-31 at each lower-barred value (those in
    ``lower``) and 31-2 at each upper-barred one: no value v between the
    two values of a descent perm[j] > perm[j + 1] stands left of it while
    lower-barred, or right of it while upper-barred.  Swapping every bar
    gives the dual convention and the same family of lattices."""
    for j in range(len(perm) - 1):
        hi, lo = perm[j], perm[j + 1]
        if hi > lo and any(lo < v < hi and (i < j) == (v in lower)
                           for i, v in enumerate(perm) if i not in (j, j + 1)):
            return False
    return True


def cambrian(n: int, lower=()) -> Lattice:
    """The type-A Cambrian lattice of a barring (Reading, Cambrian
    lattices, 2006): the permutations of 0..n-1 that avoid the barred
    patterns of :func:`_cambrian_avoids`, the values 1..n-2 in ``lower``
    lower-barred and the others upper-barred, ordered by containment of
    inversion sets as in :func:`oracle_weak_order_S`.  A sublattice of the
    weak order with Catalan(n) elements, numbered by (inversion count,
    inversion mask); built on masks and proved a lattice by
    lattice_from_poset."""
    kept = [p for p in permutations(range(n)) if _cambrian_avoids(p, set(lower))]
    inv = sorted(_inversion_sets(kept, n), key=lambda m: (m.bit_count(), m))
    k, full = len(inv), (1 << len(inv)) - 1
    # col[t]: the elements whose inversion set holds pair t
    col = [sum(1 << a for a, m in enumerate(inv) if m >> t & 1) for t in range(n * (n - 1) // 2)]
    up = [reduce(and_, map(col.__getitem__, _bits(m)), full) for m in inv]
    down = [0] * k
    covers = []
    # numbered along a linear extension, so the lowest element of up(a)
    # minus a is an upper cover of a; drop its up set and repeat
    for a in range(k):
        rest = up[a] ^ 1 << a
        while rest:
            b = (rest & -rest).bit_length() - 1
            covers.append((a, b))
            rest &= ~up[b]
        for b in _bits(up[a]):
            down[b] |= 1 << a
    return lattice_from_poset(Poset(k, covers, up, down))


def assert_same_lattice(got: Lattice, want: Lattice) -> None:
    """Identical order (covers, up and down masks), tables, bounds,
    irreducibles."""
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


# ---------------------------------------------------------------------------
# the table check that validation on up masks replaced, and the eager table
# constructions that tables built on first read replaced, kept as oracles:
# the same verdicts and NotALattice witnesses, the same tables
# ---------------------------------------------------------------------------

def _bool_rows(masks, nbits: int) -> np.ndarray:
    """Python-int bitmasks as a (len(masks), nbits) boolean array."""
    bits = _pack(masks, nbits).view(np.uint8)
    return np.unpackbits(bits, axis=1, count=nbits, bitorder="little").view(bool)


def _pack_bool(rows) -> np.ndarray:
    """An (n, k) boolean array as (n, w) uint64 keys, w >= 1, one bit per
    column."""
    n, k = rows.shape
    w = max(1, -(-k // 64))
    out = np.zeros((n, 8 * w), dtype=np.uint8)
    out[:, :-(-k // 8)] = np.packbits(rows, axis=1, bitorder="little")
    return out.view("<u8")


def _order_matrix(p: Poset) -> np.ndarray:
    """The n-by-n boolean matrix of a <= b."""
    return _bool_rows([p.up_mask(x) for x in range(p.n)], p.n)


def _oracle_mix(words):
    h = words[0]
    for w in words[1:]:
        h = (h ^ h >> np.uint64(31)) * np.uint64(_MIX) ^ w
    return h


def oracle_tables(jkey, mkey):
    """Meet and join tables from per-element keys, as the J/M-key hash
    kernel that the recursion over covers replaced built them, with its hit
    flag: each AND is looked up from its home slot (the top bits of its
    64-bit mix times _MIX) in a linear-probing slot table.  The third value
    is False when some AND matches no key, which lattice keys never do.  A
    key that repeats (in a non-lattice) is found by the AND alone, so the
    lookup is a function of the key, as :func:`_joins_are_least` needs."""
    n = len(jkey)
    b = (4 * n - 1).bit_length()
    shift = np.uint64(64 - b)
    mix = np.uint64(_MIX)
    rank = np.arange(n)
    tables = []
    hit = True
    for key in (jkey, mkey):
        words = [key[:, k] for k in range(key.shape[1])]
        home = (_oracle_mix(words) * mix >> shift).view(np.int64)
        order = home.argsort(kind="stable")
        ranked = home[order]
        pos = np.maximum.accumulate(ranked - rank) + rank
        span = (pos - ranked).max() + 1
        slots = np.zeros((1 << b) + span, dtype=np.int32)
        slots[pos] = order
        held = [w[slots] for w in words]
        table = np.empty((n, n), dtype=np.int32)
        for r0, r1 in _row_blocks(n, n):
            want = [(w[r0:r1, None] & w[None, :]).reshape(-1) for w in words]
            at = (_oracle_mix(want) * mix >> shift).view(np.int64)
            miss = np.logical_or.reduce([h[at] != v for h, v in zip(held, want)]).nonzero()[0]
            for _ in range(1, span):
                if not len(miss):
                    break
                at[miss] += 1
                miss = miss[np.logical_or.reduce([h[at[miss]] != v[miss]
                                                  for h, v in zip(held, want)])]
            hit = hit and not len(miss)
            table[r0:r1] = slots[at].reshape(r1 - r0, n)
        tables.append(table)
    return tables[0], tables[1], hit


def _joins_are_least(le, join) -> bool:
    """True iff every join[x, y] is the least upper bound of x and y, for a
    join table that :func:`oracle_tables` built from M-keys with every
    lookup hit.

    Two tests: join[x, x] == x, and join[x, y] >= x (so also >= y, as the
    table is symmetric).  Write e(K) for the element the lookup returns for
    key K, so join[x, y] = e(M(x) & M(y)).  Let z = join[x, y] and u be any
    upper bound of x and y.  Then M(u) is contained in M(x) & M(y) = M(z),
    so join[u, z] = e(M(u)) = join[u, u], which is u by the first test; the
    second gives u = join[u, z] >= z.
    """
    n = len(join)
    cols = np.arange(n)
    if not (join[cols, cols] == cols).all():
        return False
    return bool(le[cols[:, None], join].all())


def table_check_lattice_from_poset(p: Poset) -> Lattice:
    """``lattice_from_poset`` as it was: tables from the order matrix's
    J- and M-keys, proved by the three table-wide tests (every AND hits,
    join[x, x] == x, join[x, y] >= x), and the same scalar witness search
    on failure."""
    n = p.n
    if n == 0:
        raise NotALattice(0, 0, "bottom")
    mins = [x for x in range(n) if not p.lower_covers(x)]
    maxs = [x for x in range(n) if not p.upper_covers(x)]
    if len(mins) > 1:
        raise NotALattice(mins[0], mins[1], "meet")
    if len(maxs) > 1:
        raise NotALattice(maxs[0], maxs[1], "join")
    le = _order_matrix(p)
    jirr = [x for x in range(n) if len(p.lower_covers(x)) == 1]
    mirr = [x for x in range(n) if len(p.upper_covers(x)) == 1]
    meet, join, hit = oracle_tables(_pack_bool(le[jirr].T), _pack_bool(le[:, mirr]))
    if not (hit and _joins_are_least(le, join)):
        raise _lattice_witness(p)
    return eager_lattice(p, meet, join, mins[0], maxs[0])


def eager_lattice_from_ideal_masks(order: Poset, masks, width: int) -> Lattice:
    """An ideal lattice with its tables keyed by the ideals and their
    complements, as ``lattice_from_ideal_masks`` built it."""
    full = (1 << width) - 1
    meet, join, hit = oracle_tables(_pack(masks, width), _pack([full ^ m for m in masks], width))
    assert hit
    return eager_lattice(order, meet, join, 0, len(masks) - 1)


def eager_lattice_from_graph(g: GaloisGraph) -> Lattice:
    """The lattice of maximal orthogonal pairs with its tables keyed by the
    X and Y masks, as ``lattice_from_graph`` built it."""
    x_masks, y_masks = _pair_masks(g, DEFAULT_MAX_ELEMENTS)
    meet, join, hit = oracle_tables(_pack(x_masks, g.n), _pack(y_masks, g.n))
    assert hit
    return eager_lattice(_containment(_pack(x_masks, g.n)), meet, join, 0, len(x_masks) - 1)


# ---------------------------------------------------------------------------
# the table reads that congruences and the three label formulas on masks
# replaced, kept as oracles
# ---------------------------------------------------------------------------

def oracle_congruence(l: Lattice, classes) -> Congruence:
    """``congruence`` with every x1 ^ y and x1 v y read from the tables."""
    cls = [tuple(sorted(c)) for c in classes]
    cls.sort(key=lambda c: c[0])
    seen = [x for c in cls for x in c]
    if sorted(seen) != list(range(l.n)):
        raise ValueError("classes do not partition the elements")
    of = {x: i for i, c in enumerate(cls) for x in c}
    M, J = l.meet, l.join
    for c in cls:
        for x1, x2 in combinations(c, 2):
            for y in range(l.n):
                if of[int(M[x1, y])] != of[int(M[x2, y])]:
                    raise NotACongruence(x1, x2, y, "meet")
                if of[int(J[x1, y])] != of[int(J[x2, y])]:
                    raise NotACongruence(x1, x2, y, "join")
    return Congruence(tuple(cls))


def oracle_three_formula_labels(l: Lattice, xs) -> dict:
    """``labelling._three_formula_labels`` with every meet and join read
    from the tables."""
    n = len(xs) - 1
    beta_j = {j: min(i for i in range(1, n + 1) if l.leq(j, xs[i]))
              for j in l.join_irr}
    beta_m = {m: max(i for i in range(1, n + 1) if l.leq(xs[i - 1], m))
              for m in l.meet_irr}
    labels: dict[tuple[int, int], int] = {}
    for y, z in l.covers:
        v1 = min(beta_j[j] for j in l.join_irr if l.join_of(y, j) == z)
        v2 = min(i for i in range(1, n + 1)
                 if l.join_of(y, l.meet_of(xs[i], z)) == z)
        v3 = max(beta_m[m] for m in l.meet_irr if l.meet_of(z, m) == y)
        if not (v1 == v2 == v3):
            raise ThreeWayMismatch((y, z), (v1, v2, v3))
        labels[(y, z)] = v1
    return labels


def oracle_transposed_masks(l: Lattice, idx) -> tuple[list[int], list[int]]:
    """The pair masks as ``index_irreducibles`` built them with numpy: the
    up-sets of the j_i and the down-sets of the m_k, unpacked to rank-by-n
    bits, transposed and packed again per element."""
    out = []
    for rows in (_bool_rows([l.poset.up_mask(t) for t in idx.j], l.n),
                 _bool_rows([l.poset.down_mask(t) for t in idx.m], l.n)):
        out.append([int.from_bytes(row.tobytes(), "little") for row in _pack_bool(rows.T)])
    return out[0], out[1]


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


def oracle_galois_edges(l: Lattice, idx) -> set[tuple[int, int]]:
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
    return edges


def oracle_galois_graph(l: Lattice, idx) -> GaloisGraph:
    return GaloisGraph(idx.n, frozenset(oracle_galois_edges(l, idx)))


def oracle_galois_poset(g: GaloisGraph) -> Poset:
    """The label poset as the closure of the edge list: an edge i -> k
    puts element k-1 below element i-1."""
    return poset_from_relations(g.n, [(k - 1, i - 1) for i, k in g.edges])


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
            return Chain(path)
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
        labels = {(y, z): (idx.ym[y] & idx.xj[z]).bit_length() for y, z in l.covers}
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
    gal = {(k, i) for i, k in oracle_galois_edges(l, idx)}
    indep = oracle_label_complex(l, labels).skeleton_edges()
    if gal & indep:
        return False
    return gal | indep == set(combinations(range(1, idx.n + 1), 2))


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
# the pairwise relations that the two neighbour steps replaced in
# rational_dyck_poset
# ---------------------------------------------------------------------------

def oracle_rational_dyck_poset(a: int, b: int) -> Poset:
    """Every comparable pair of boxes above the diagonal as a relation."""
    boxes = sorted(((i, j) for i in range(a) for j in range(b)
                    if b * i >= a * (j + 1)), key=lambda e: (e[0], -e[1]))
    index = {box: k for k, box in enumerate(boxes)}
    rels = []
    for (i, j) in boxes:
        for (i2, j2) in boxes:
            if (i, j) != (i2, j2) and i <= i2 and j >= j2:
                rels.append((index[(i, j)], index[(i2, j2)]))
    return poset_from_relations(len(boxes), rels)


# ---------------------------------------------------------------------------
# library functions that only tests call
# ---------------------------------------------------------------------------

def all_congruences(l: Lattice) -> list[Congruence]:
    """Brute-force enumeration of all congruences (set partitions filtered
    by compatibility).  Exponential; intended for small test lattices."""
    out = []
    for part in _set_partitions(list(range(l.n))):
        try:
            out.append(congruence(l, part))
        except NotACongruence:
            pass
    return out


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def is_graded(l: Lattice) -> bool:
    """True iff all maximal chains share the same length."""
    h = _heights(l)
    return all(h[z] == h[y] + 1 for y, z in l.covers)


def left_modular_elements(l: Lattice) -> tuple[int, ...]:
    return tuple(filter(_left_modular_test(l), range(l.n)))


def dual_poset(p: Poset) -> Poset:
    return Poset(p.n, tuple((b, a) for a, b in p.covers),
                 tuple(map(p.down_mask, range(p.n))), tuple(map(p.up_mask, range(p.n))))


def complement_graph(g: SimpleGraph) -> SimpleGraph:
    return SimpleGraph(
        g.n,
        frozenset(e for e in combinations(range(1, g.n + 1), 2)
                  if e not in g.edges),
    )


def delete_vertices(g: GaloisGraph, gone) -> GaloisGraph:
    """Induced subgraph with surviving labels compressed to 1..m,
    preserving relative order."""
    keep = [v for v in range(1, g.n + 1) if v not in set(gone)]
    relabel = {v: i + 1 for i, v in enumerate(keep)}
    edges = frozenset(
        (relabel[i], relabel[k]) for i, k in g.edges
        if i in relabel and k in relabel
    )
    return GaloisGraph(len(keep), edges)


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
