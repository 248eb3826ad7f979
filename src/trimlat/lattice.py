"""Validated finite lattices: meet/join tables, irreducibles, chains, and the
structural predicates (distributive, extremal, left modular, semidistributive,
trim), plus congruence validation and quotients.

Meet and join tables are dense n-by-n int32 arrays, read-only once built.
The predicates are exact and decide through the irreducibles, not over all
triples; when a test says False and a witness is wanted, the triple scan
it replaced runs and names the same first witness.

Every constructor fills its tables through one kernel, :func:`_tables`.
In a finite lattice x |-> J(x), the set of join-irreducibles below x, is
injective and sends meets to intersections; x |-> M(x), the
meet-irreducibles above x, does the same for joins (Markowsky).  Each
element's key is its J or M set packed into uint64 words; meet[x, y] is
the element whose J-key equals J(x) & J(y), and join[x, y] dually, found
in a linear-probing slot table from a home slot given by the AND's 64-bit
mix (a fold of its words) and confirmed by a compare of all words.  Order
ideals and their complements, the X and Y masks of maximal orthogonal
pairs, and the up/down masks restricted to the irreducibles are such
keys.  The order is the closure of the covers; for maximal orthogonal
pairs, X(a) in X(b).

Posets from outside are checked, not trusted.  When every M-key AND
matches a key, join[x, x] == x and join[x, y] >= x for all x, y, every
join[x, y] is the least upper bound (proof in :func:`_joins_are_least`).
A bounded poset with all joins is a lattice, so the J-key meets are then
exact too.  When the check fails, a scalar search names the first pair
without a join or meet, as the pairwise scan it replaced did.

Rows are processed in blocks of about 2**14 cells, so temporaries stay
small next to the tables; the largest other array is the n-by-n boolean
order matrix of a checked poset, an eighth of the two tables.  The kernel
uses no floats and no BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import combinations

import numpy as np

from .errors import (
    NotACongruence,
    NotALattice,
    NotComparable,
    NotExtremal,
)
from .poset import Poset, _bits, canonical_extension, poset_from_relations


@dataclass(frozen=True)
class Chain:
    """A strictly increasing sequence of lattice elements."""

    elements: tuple[int, ...]
    saturated: bool

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def length(self) -> int:
        """Number of steps (one less than the number of elements)."""
        return len(self.elements) - 1


class Lattice:
    """Immutable finite lattice with precomputed meet/join tables.

    Attributes:
        poset: the underlying order.
        meet, join: read-only n-by-n int32 tables.
        bottom, top: indices of the least and greatest elements.
        join_irr: elements (other than bottom) covering exactly one element.
        meet_irr: elements (other than top) covered by exactly one element.
        names: optional per-element display strings.
    """

    __slots__ = ("poset", "meet", "join", "bottom", "top",
                 "join_irr", "meet_irr", "names")

    def __init__(self, poset: Poset, meet, join, bottom: int, top: int,
                 names=None):
        self.poset = poset
        meet = np.asarray(meet, dtype=np.int32)
        join = np.asarray(join, dtype=np.int32)
        meet.setflags(write=False)
        join.setflags(write=False)
        self.meet = meet
        self.join = join
        self.bottom = bottom
        self.top = top
        self.join_irr = tuple(
            x for x in range(poset.n)
            if x != bottom and len(poset.lower_covers(x)) == 1
        )
        self.meet_irr = tuple(
            x for x in range(poset.n)
            if x != top and len(poset.upper_covers(x)) == 1
        )
        self.names = tuple(names) if names is not None else None

    @property
    def n(self) -> int:
        return self.poset.n

    def leq(self, a: int, b: int) -> bool:
        return self.poset.leq(a, b)

    def lt(self, a: int, b: int) -> bool:
        return self.poset.lt(a, b)

    def upper_covers(self, x: int) -> tuple[int, ...]:
        return self.poset.upper_covers(x)

    def lower_covers(self, x: int) -> tuple[int, ...]:
        return self.poset.lower_covers(x)

    @property
    def covers(self) -> tuple[tuple[int, int], ...]:
        return self.poset.covers

    def meet_of(self, a: int, b: int) -> int:
        return int(self.meet[a, b])

    def join_of(self, a: int, b: int) -> int:
        return int(self.join[a, b])

    def join_all(self, elements) -> int:
        out = self.bottom
        for x in elements:
            out = int(self.join[out, x])
        return out

    def meet_all(self, elements) -> int:
        out = self.top
        for x in elements:
            out = int(self.meet[out, x])
        return out

    def name_of(self, x: int) -> str:
        return self.names[x] if self.names is not None else str(x)

    def __repr__(self) -> str:
        return f"Lattice(n={self.n}, length={length(self)})"


def lattice_from_poset(p: Poset, names=None) -> Lattice:
    """Compute meet/join tables for p; raises NotALattice(x, y, kind) naming
    the first incomparable pair (x < y, row-major) with no unique join, or
    else no unique meet."""
    n = p.n
    if n == 0:
        raise NotALattice(0, 0, "bottom")
    mins = [x for x in range(n) if not p.lower_covers(x)]
    maxs = [x for x in range(n) if not p.upper_covers(x)]
    if len(mins) > 1:
        raise NotALattice(mins[0], mins[1], "meet")
    if len(maxs) > 1:
        raise NotALattice(maxs[0], maxs[1], "join")
    bottom, top = mins[0], maxs[0]

    le = _order_matrix(p)
    jirr = np.array([x for x in range(n) if len(p.lower_covers(x)) == 1], dtype=np.intp)
    mirr = np.array([x for x in range(n) if len(p.upper_covers(x)) == 1], dtype=np.intp)
    meet, join, hit = _tables(_pack_bool(le[jirr].T), _pack_bool(le[:, mirr]))
    if not (hit and _joins_are_least(le, join)):
        raise _lattice_witness(p)
    return Lattice(p, meet, join, bottom, top, names=names)


def lattice_from_ideal_masks(q: Poset, masks: tuple[int, ...]) -> Lattice:
    """Distributive lattice on the given ideal bitmasks of q, sorted by size
    (meet/join are intersection/union; masks must be closed under both)."""
    full = (1 << q.n) - 1
    # containment of the q.n-bit ideal masks is cheaper than the closure
    ideals = _pack(masks, q.n)
    meet, join, _ = _tables(ideals, _pack([full ^ m for m in masks], q.n))
    names = tuple("{" + ",".join(map(str, _bits(m))) + "}" for m in masks)
    return Lattice(_containment(ideals), meet, join, 0, len(masks) - 1, names=names)


# ---------------------------------------------------------------------------
# the table kernel
# ---------------------------------------------------------------------------

# Rows of a table are processed in blocks whose temporaries hold about this
# many cells, so memory beyond the tables themselves stays bounded.
_BLOCK_CELLS = 1 << 14

# tables of several row blocks are mirrored in square tiles of this side
_TILE = 128
_BELOW = np.tri(_TILE, k=-1, dtype=bool)


def _row_blocks(rows: int, width: int):
    step = max(1, _BLOCK_CELLS // max(1, width))
    for r0 in range(0, rows, step):
        yield r0, min(rows, r0 + step)


def _pack(masks, nbits: int) -> np.ndarray:
    """Python-int bitmasks of nbits bits as an (len(masks), w) uint64 array
    of keys, w >= 1."""
    w = max(1, -(-nbits // 64))
    buf = b"".join(m.to_bytes(8 * w, "little") for m in masks)
    return np.frombuffer(buf, dtype="<u8").reshape(len(masks), w)


def _pack_bool(rows: np.ndarray) -> np.ndarray:
    """An (n, k) boolean array as (n, w) uint64 keys, w >= 1, one bit per
    column."""
    n, k = rows.shape
    w = max(1, -(-k // 64))
    out = np.zeros((n, 8 * w), dtype=np.uint8)
    out[:, :-(-k // 8)] = np.packbits(rows, axis=1, bitorder="little")
    return out.view("<u8")


# odd, so multiplying by it permutes the uint64 values
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _mix(words) -> np.ndarray:
    """One uint64 per key from its words (a sequence of equal-shaped
    arrays), folded nonlinearly; a key of one word is its own mix."""
    h = words[0]
    for w in words[1:]:
        h = (h ^ h >> np.uint64(31)) * _MIX ^ w
    return h


def _tables(jkey: np.ndarray, mkey: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Meet and join tables from per-element keys.

    meet[x, y] is the element whose J-key is jkey[x] & jkey[y], join[x, y]
    the one whose M-key is mkey[x] & mkey[y]: the first of the span slots
    from the AND's home (the top b bits of its mix times _MIX, 2**b >= 4n)
    whose key equals the AND in every word.  Linear probing in home order
    puts every key fewer than span slots past its home; unfilled slots hold
    element 0.  A key that repeats (in a non-lattice) is found by the AND
    alone, so the lookup is a function of the key, as
    :func:`_joins_are_least` needs.  Tables of several row blocks are looked
    up from each block's first row and mirrored.  The third value is False
    when some AND matches no key, which lattice keys never do.
    """
    n = len(jkey)
    b = (4 * n - 1).bit_length()
    shift = np.uint64(64 - b)
    rank = np.arange(n)
    tables = []
    hit = True
    for key in (jkey, mkey):
        words = [key[:, k] for k in range(key.shape[1])]
        home = (_mix(words) * _MIX >> shift).view(np.int64)
        order = home.argsort(kind="stable")
        ranked = home[order]
        pos = np.maximum.accumulate(ranked - rank) + rank
        span = (pos - ranked).max() + 1
        slots = np.zeros((1 << b) + span, dtype=np.int32)
        slots[pos] = order
        held = [w[slots] for w in words]
        table = np.empty((n, n), dtype=np.int32)
        for r0, r1 in _row_blocks(n, n):
            want = [(w[r0:r1, None] & w[None, r0:]).reshape(-1) for w in words]
            at = (_mix(want) * _MIX >> shift).view(np.int64)
            miss = reduce(np.logical_or, [h[at] != v for h, v in zip(held, want)]).nonzero()[0]
            for _ in range(1, span):
                if not len(miss):
                    break
                at[miss] += 1
                miss = miss[reduce(np.logical_or, [h[at[miss]] != v[miss] for h, v in zip(held, want)])]
            hit = hit and not len(miss)
            table[r0:r1, r0:] = slots[at].reshape(r1 - r0, n - r0)
        for i0 in range(0, n, _TILE) if r0 else ():  # several blocks: mirror
            rows = slice(i0, i0 + _TILE)
            for j0 in range(0, i0, _TILE):
                table[rows, j0:j0 + _TILE] = table[j0:j0 + _TILE, rows].T
            tile = table[rows, rows]
            np.copyto(tile, tile.T, where=_BELOW[:len(tile), :len(tile)])
        tables.append(table)
    return tables[0], tables[1], hit


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


def _bool_rows(masks, nbits: int) -> np.ndarray:
    """Python-int bitmasks as a (len(masks), nbits) boolean array, the
    inverse of :func:`_pack_bool`."""
    bits = _pack(masks, nbits).view(np.uint8)
    return np.unpackbits(bits, axis=1, count=nbits, bitorder="little").view(bool)


def _ints(keys: np.ndarray) -> list[int]:
    """(n, w) uint64 keys as Python-int bitmasks."""
    if keys.shape[1] == 1:
        return keys[:, 0].tolist()
    return [int.from_bytes(row.tobytes(), "little") for row in keys]


def _order_matrix(p: Poset) -> np.ndarray:
    """The n-by-n boolean matrix of a <= b."""
    return _bool_rows([p.up_mask(x) for x in range(p.n)], p.n)


def _joins_are_least(le: np.ndarray, join: np.ndarray) -> bool:
    """True iff every join[x, y] is the least upper bound of x and y, for a
    join table that :func:`_tables` built from M-keys with every lookup hit.

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
    flat = le.reshape(-1)  # le[x, z] is flat[x * n + z]
    for r0, r1 in _row_blocks(n, n):
        if not flat[cols[r0:r1, None] * n + join[r0:r1]].all():
            return False
    return True


def _lattice_witness(p: Poset) -> NotALattice:
    """The first incomparable pair x < y, in row-major order, whose upper
    bounds have no least element ("join"), or else whose lower bounds have
    no greatest element ("meet").  A scalar search, run only once the table
    check has failed; p must have a bottom and a top."""
    # in a topologically sorted label space the lowest set bit of a set of
    # bounds is a minimal one, the only candidate for its least element
    order = canonical_extension(p)
    pos = [0] * p.n
    for i, v in enumerate(order):
        pos[v] = i

    def to_topo(mask: int) -> int:
        out = 0
        for v in _bits(mask):
            out |= 1 << pos[v]
        return out

    up_t = [to_topo(p.up_mask(v)) for v in range(p.n)]
    down_t = [to_topo(p.down_mask(v)) for v in range(p.n)]
    for x in range(p.n):
        for y in range(x + 1, p.n):
            if p.leq(x, y) or p.leq(y, x):
                continue
            common = up_t[x] & up_t[y]
            if common & ~up_t[order[(common & -common).bit_length() - 1]]:
                return NotALattice(x, y, "join")
            common = down_t[x] & down_t[y]
            if common & ~down_t[order[common.bit_length() - 1]]:
                return NotALattice(x, y, "meet")
    raise AssertionError("the table check rejected a lattice")


def _heights(l: Lattice) -> list[int]:
    """Longest-path distance from bottom, per element."""
    return _longest_paths(l.n, l.poset.lower_covers, l.poset.upper_covers)


def _coheights(l: Lattice) -> list[int]:
    """Longest-path distance to top, per element."""
    return _longest_paths(l.n, l.poset.upper_covers, l.poset.lower_covers)


def _longest_paths(n: int, below, above) -> list[int]:
    """Longest path from a minimal element to each element, following
    ``above``; Kahn's algorithm over the covers, O(n + covers)."""
    missing = [len(below(x)) for x in range(n)]
    order = [x for x in range(n) if not missing[x]]
    h = [0] * n
    for v in order:  # grows while it is walked
        hv = h[v] + 1
        for w in above(v):
            if h[w] < hv:
                h[w] = hv
            missing[w] -= 1
            if not missing[w]:
                order.append(w)
    return h


def length(l: Lattice) -> int:
    """The maximum length of a chain in l."""
    return _heights(l)[l.top]


def maximal_length_chain(l: Lattice) -> Chain:
    """The deterministic maximal-length chain: follow covers that stay on a
    longest bottom-to-top path, tie-breaking on smallest element index."""
    return _longest_chain(l, _coheights(l))


def _longest_chain(l: Lattice, co: list[int]) -> Chain:
    """:func:`maximal_length_chain` from the coheights ``co``."""
    chain = [l.bottom]
    cur = l.bottom
    while cur != l.top:
        cur = min(w for w in l.upper_covers(cur) if co[w] == co[cur] - 1)
        chain.append(cur)
    return Chain(tuple(chain), saturated=True)


def is_graded(l: Lattice) -> bool:
    """True iff all maximal chains share the same length."""
    h = _heights(l)
    return all(h[z] == h[y] + 1 for y, z in l.covers)


def is_distributive(l: Lattice, witness: bool = False):
    """Whether x ^ (y v z) == (x ^ y) v (x ^ z) for all x, y, z.

    Birkhoff: exactly when J(x v y) == J(x) | J(y) for all x, y, J(x) being
    the join-irreducibles below x, compared as packed keys in row blocks.
    Only when that fails and a witness is wanted does the triple scan run,
    for the first failing (x, y, z) in row-major order.
    """
    key = _pack_bool(_bool_rows([l.poset.up_mask(j) for j in l.join_irr], l.n).T)
    ok = all((key[l.join[r0:r1]] == key[r0:r1, None] | key[None]).all()
             for r0, r1 in _row_blocks(l.n, l.n * key.shape[1]))
    if ok or not witness:
        return (ok, None) if witness else ok
    M, J = l.meet, l.join
    for x in range(l.n):
        ys, zs = np.nonzero(M[x][J] != J[M[x][:, None], M[x][None, :]])
        if len(ys):
            return False, (x, int(ys[0]), int(zs[0]))
    raise AssertionError("the J-key test rejected a distributive lattice")


def is_extremal(l: Lattice) -> bool:
    n = length(l)
    return len(l.join_irr) == n and len(l.meet_irr) == n


def _left_modular_test(l: Lattice):
    """x |-> whether (y v x) ^ z == y v (x ^ z) for every cover y covered-by
    z (which suffices for all y <= z), one numpy pass over the covers."""
    ys, zs = np.array(l.covers, dtype=np.intp).reshape(-1, 2).T
    return lambda x: bool((l.meet[l.join[ys, x], zs] == l.join[ys, l.meet[x, zs]]).all())


def is_left_modular_element(l: Lattice, x: int) -> bool:
    """True iff (y v x) ^ z == y v (x ^ z) for all y <= z."""
    return _left_modular_test(l)(x)


def left_modular_elements(l: Lattice) -> tuple[int, ...]:
    return tuple(filter(_left_modular_test(l), range(l.n)))


def is_left_modular_lattice(l: Lattice) -> Chain | None:
    """A saturated bottom-to-top chain of left-modular elements if one
    exists, else None.  The search walks covers inside the set of
    left-modular elements from the bottom (always one), smallest index
    first, and tests each element only when it first reaches it."""
    lm = cache(_left_modular_test(l))
    stack = [(l.bottom, (l.bottom,))]
    seen = set()
    while stack:
        cur, path = stack.pop()
        if cur == l.top:
            return Chain(path, saturated=True)
        for w in sorted(l.upper_covers(cur), reverse=True):
            if (w, len(path)) not in seen and lm(w):
                seen.add((w, len(path)))
                stack.append((w, path + (w,)))
    return None


def is_trim(l: Lattice) -> bool:
    """Fast trimness test: extremal with every cover overlapping in the
    maximal-orthogonal-pair representation.

    The definitional route (extremal and some maximal chain is left modular)
    is available as :func:`is_trim_definitional`; the two must agree.
    """
    from .galois import _overlaps, index_irreducibles

    try:  # extremality from the indexing's coheights
        return all(_overlaps(l, index_irreducibles(l)))
    except NotExtremal:
        return False


def is_trim_definitional(l: Lattice) -> bool:
    return is_extremal(l) and is_left_modular_lattice(l) is not None


def _kappas(l: Lattice) -> list[int] | None:
    """kappa(j), the greatest element above j_* and not above j, for each j
    in l.join_irr; None when some kappa(j), or dually some kappa^d(m), does
    not exist.  kappa(j) exists iff the join of up(j_*) minus up(j) is not
    above j; each such set is joined pairwise through the table in log2(n)
    numpy steps (an odd middle column is joined with itself).
    """
    out = []
    for table, unit, mask, irr, cover in (
            (l.join, l.bottom, l.poset.up_mask, l.join_irr, l.lower_covers),
            (l.meet, l.top, l.poset.down_mask, l.meet_irr, l.upper_covers)):
        ends: list[int] = []
        for r0, r1 in _row_blocks(len(irr), l.n):
            inside = _bool_rows([mask(cover(x)[0]) & ~mask(x) for x in irr[r0:r1]], l.n)
            vals = np.where(inside, np.arange(l.n, dtype=np.int32), np.int32(unit))
            while vals.shape[1] > 1:
                half = (vals.shape[1] + 1) // 2
                vals = table[vals[:, :half], vals[:, -half:]]
            ends.extend(vals[:, 0].tolist())
        if any(mask(x) >> e & 1 for x, e in zip(irr, ends)):
            return None
        out.append(ends)
    return out[0]


def is_semidistributive(l: Lattice, witness: bool = False):
    """Whether x v y == x v z implies x v (y ^ z) == x v y, and dually.

    Freese-Jezek-Nation (Free Lattices, Thm 2.56): exactly when every
    kappa(j) and kappa^d(m) exists (:func:`_kappas`).  Only when one is
    missing and a witness is wanted does the triple scan run, for the
    first failing ("join" or "meet", x, y, z).
    """
    ok = _kappas(l) is not None
    if ok or not witness:
        return (ok, None) if witness else ok
    for x in range(l.n):
        for side, outer, inner in (("join", l.join, l.meet), ("meet", l.meet, l.join)):
            row = outer[x]
            ys, zs = np.nonzero((row[:, None] == row[None, :]) & (row[inner] != row[:, None]))
            if len(ys):
                return False, (side, x, int(ys[0]), int(zs[0]))
    raise AssertionError("the kappa test rejected a semidistributive lattice")


def interval(l: Lattice, a: int, b: int) -> tuple[Lattice, tuple[int, ...]]:
    """The induced lattice on {x : a <= x <= b} and the element map back to
    l (sublattice element i is original element map[i])."""
    if not l.leq(a, b):
        raise NotComparable(a, b)
    members = tuple(_bits(l.poset.up_mask(a) & l.poset.down_mask(b)))
    index = {x: i for i, x in enumerate(members)}
    # covers of an interval of a lattice are exactly the restricted covers
    covers = [(index[y], index[z]) for y, z in l.covers
              if y in index and z in index]
    poset = poset_from_relations(len(members), covers)
    rows = np.array(members, dtype=np.intp)
    back = np.full(l.n, -1, dtype=np.int32)
    back[rows] = np.arange(len(members))
    sub_meet = back[l.meet[np.ix_(rows, rows)]]
    sub_join = back[l.join[np.ix_(rows, rows)]]
    names = tuple(l.name_of(x) for x in members) if l.names else None
    sub = Lattice(poset, sub_meet, sub_join, index[a], index[b], names=names)
    return sub, members


def spine(l: Lattice) -> tuple[int, ...]:
    """Elements lying on some maximal-length chain of an extremal lattice."""
    h, co = _heights(l), _coheights(l)
    if not len(l.join_irr) == len(l.meet_irr) == h[l.top]:
        raise NotExtremal("spine requires an extremal lattice")
    return tuple(x for x in range(l.n) if h[x] + co[x] == h[l.top])


@dataclass(frozen=True)
class Congruence:
    """A validated lattice congruence, stored as its partition into classes
    (each class sorted, classes sorted by least element)."""

    classes: tuple[tuple[int, ...], ...]


def congruence(l: Lattice, classes) -> Congruence:
    """Validate that the partition is a lattice congruence.

    Compatibility is checked one side at a time (x1 ~ x2 implies
    x1 ^ y ~ x2 ^ y and dually), which suffices by transitivity.  Raises
    NotACongruence with the witness triple on failure.
    """
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


def quotient(l: Lattice, c: Congruence) -> tuple[Lattice, tuple[tuple[int, ...], ...]]:
    """The lattice on the congruence classes, plus the class list (class i of
    the result collects the original elements c.classes[i])."""
    of = {x: i for i, cl in enumerate(c.classes) for x in cl}
    k = len(c.classes)
    relations = {(of[a], of[b]) for a, b in l.covers if of[a] != of[b]}
    p = poset_from_relations(k, sorted(relations))
    names = None
    if l.names is not None:
        names = tuple("|".join(l.name_of(x) for x in cl) for cl in c.classes)
    return lattice_from_poset(p, names=names), c.classes
