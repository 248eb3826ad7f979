"""Validated finite lattices: meet/join lookups, irreducibles, chains, and
the structural predicates (distributive, extremal, left modular,
semidistributive, trim), plus congruence validation and quotients.

A lattice is its order (a Poset subclass): posets from outside are proved
lattices on their covers and J-keys (:func:`lattice_from_poset`), and every
algorithm reads only covers and masks.  A lattice keeps what it derives,
built on first use: the longest-path pass (:func:`_coheights`), the default
irreducible indexing, the lookups {up(x): x} and {down(x): x}
(:func:`_by_mask`), which every meet and join reads, as up(a) & up(b) =
up(a v b), and the irreducibles' keys (:func:`_irr_keys`).  Only the
``meet`` and ``join`` properties build the n-by-n int32 tables
(:func:`_tables`, the one import of numpy); no function reads them.

The predicates are exact and decided on masks and the irreducibles.  One
pass gives each element's J-key and M-key (:func:`_pair_keys`); seeded
along the kept pass, a key set's lowest bit is one of its minimal (J) or
maximal (M) members, which kappa, gamma_j and their witnesses read.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import combinations
from operator import and_, or_
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    NotACongruence,
    NotALattice,
    NotComparable,
    NotExtremal,
)
from .poset import Poset, _bits, poset_from_relations

if TYPE_CHECKING:
    import numpy as np


class Chain(NamedTuple):
    """A strictly increasing sequence of lattice elements; ``len`` counts
    the elements, not the one field."""

    elements: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def length(self) -> int:
        """Number of steps (one less than the number of elements)."""
        return len(self.elements) - 1


# the NamedTuple _make, which _replace calls, checks len() against the fields
Chain._make = classmethod(tuple.__new__)


class Lattice(Poset):
    """Immutable finite lattice on the elements 0..n-1, a :class:`Poset`;
    each constructor documents how it numbers the elements.

    Attributes:
        poset: the lattice itself, which is its own order.
        meet, join: read-only n-by-n int32 tables, both built on the first
            read of either from the covers and the up and down masks.
        bottom, top: indices of the least and greatest elements.
        join_irr: elements covering exactly one element.
        meet_irr: elements covered by exactly one element.
        _co, _index, _by, _keys: None until first use, then kept: the
            longest-path pass, the default irreducible indexing, the mask
            lookups and the irreducibles' key order.
    """

    __slots__ = ("bottom", "top", "join_irr", "meet_irr", "_meet", "_join", "_co", "_index", "_by",
                 "_keys")

    def __init__(self, poset: Poset, bottom: int, top: int):
        for name in Poset.__slots__:  # shared, not rebuilt
            setattr(self, name, getattr(poset, name))
        self.bottom = bottom
        self.top = top
        self.join_irr = tuple([x for x, cs in enumerate(self._lower) if len(cs) == 1])
        self.meet_irr = tuple([x for x, cs in enumerate(self._upper) if len(cs) == 1])
        self._meet = self._join = self._co = self._index = self._by = self._keys = None

    poset = property(lambda self: self)

    @property
    def meet(self) -> np.ndarray:
        if self._meet is None:
            self._meet, self._join = _tables(self)
        return self._meet

    @property
    def join(self) -> np.ndarray:
        if self._join is None:
            self._meet, self._join = _tables(self)
        return self._join

    def meet_of(self, a: int, b: int) -> int:
        return _by_mask(self)[1][self._down[a] & self._down[b]]

    def join_of(self, a: int, b: int) -> int:
        return _by_mask(self)[0][self._up[a] & self._up[b]]

    def join_all(self, elements) -> int:
        up = self._up
        return _by_mask(self)[0][reduce(and_, map(up.__getitem__, elements), up[self.bottom])]

    def meet_all(self, elements) -> int:
        down = self._down
        return _by_mask(self)[1][reduce(and_, map(down.__getitem__, elements), down[self.top])]

    def __repr__(self) -> str:
        return f"Lattice(n={self.n}, length={length(self)})"


def lattice_from_poset(p: Poset) -> Lattice:
    """The lattice of p, proved on its covers and its J-keys; raises
    NotALattice(x, y, kind) naming the first incomparable pair (x < y,
    row-major) with no unique join, or else no unique meet.

    With K(x) the J-key of x (bit i when join_irr[i] <= x, :func:`_pair_keys`),
    a poset with one minimal element 0 and one maximal element 1 is a
    lattice exactly when (a) every x with two or more lower covers has up(x)
    equal to the AND of its lower covers' up masks, and (b) every two lower
    covers c != c' of one element have K(c) & K(c') the key of some element.

    1. Under (a), K(w) <= K(z) implies w <= z, by induction upward on w: 0
       is trivial, a join-irreducible w is in its own key, and otherwise z
       lies in the AND of up(c) over w's lower covers c, up(w).
    2. By 1, K(c) & K(c') = K(w) makes w = c ^ c': each common lower bound
       v has K(v) <= K(w).
    3. Any y, z <= x have a meet, by induction upward on x: else y <= c < x,
       z <= c' < x, c != c', and with w = c ^ c' (by 2), s = y ^ w,
       t = z ^ w (at c, c'), every common lower bound of y and z lies below
       w, so below s and t, so below s ^ t (at w), which is y ^ z.
    4. So p is a finite meet-semilattice with a top, hence a lattice.

    Conversely, in a lattice an x with lower covers c != c' is c v c', and
    K(c) & K(c') = K(c ^ c').  (b) alone accepts the bowtie, and (a) alone
    the non-lattice 0<1, 0<2, 1<3, 2<4, 3<5, 2<5, 1<6, 4<6, 5<7, 6<7, where
    K(5) & K(6) = {1, 2} is no key.
    Cost: an n-bit AND per cover, one key pass and, for each x, one AND of
    |J|-bit keys per pair of its lower covers.
    """
    if not p.n:
        raise NotALattice(0, 0, "bottom")
    mins = [x for x, cs in enumerate(p._lower) if not cs]
    maxs = [x for x, cs in enumerate(p._upper) if not cs]
    if len(mins) > 1:
        raise NotALattice(mins[0], mins[1], "meet")
    if len(maxs) > 1:
        raise NotALattice(maxs[0], maxs[1], "join")
    l = Lattice(p, mins[0], maxs[0])
    up = p._up
    if all(up[x] == reduce(and_, map(up.__getitem__, cs))
           for x, cs in enumerate(p._lower) if len(cs) > 1):  # (a)
        key = _pair_keys(l, l.join_irr, ())[0]
        if set(key).issuperset(key[a] & key[b] for cs in p._lower if len(cs) > 1
                               for a, b in combinations(cs, 2)):  # (b)
            return l
    raise _lattice_witness(p)


# ---------------------------------------------------------------------------
# the table kernel
# ---------------------------------------------------------------------------

# masks are unpacked, and table rows remapped, this many rows at a time, so
# memory beyond the tables themselves stays bounded
_ROWS = 256


def _tables(l: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-by-n int32 meet and join tables of l, by a recursion
    over its covers along the kept pass's order reversed (a linear
    extension, bottom first), in which each element's rank is its position.

    Row y of the meet table holds y on up(y), and elsewhere the elementwise
    maximum, by rank, of the rows of y's lower covers.  Proof: if y is not
    below x, then x ^ y < y lies below some lower cover c of y, so
    x ^ y = x ^ c, and every other x ^ c' lies below x ^ y, so has a lower
    rank in any linear extension.  The least element has no lower covers and
    is below everything.  The join table is the same walk reversed, over
    upper covers and down masks.  Rows hold ranks until a table is done,
    then map back to elements.
    """
    import numpy as np

    p, n = l.poset, l.n
    w = -(-n // 8)
    order = _coheights(l)[1]  # top first
    tables = []
    for walk, below, masks in ((order[::-1], p._lower, p._up), (order, p._upper, p._down)):
        table = np.empty((n, n), dtype=np.int32)
        for i0 in range(0, n, _ROWS):
            chunk = walk[i0:i0 + _ROWS]
            buf = b"".join(masks[y].to_bytes(w, "little") for y in chunk)
            bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8).reshape(len(chunk), w),
                                 axis=1, count=n, bitorder="little").view(bool)
            for i, y in enumerate(chunk, i0):
                row, covers = table[y], below[y]
                if covers:
                    row[:] = table[covers[0]]
                    for c in covers[1:]:
                        np.maximum(row, table[c], out=row)
                np.copyto(row, i, where=bits[i - i0])
        element = np.array(walk, dtype=np.int32)
        for r0 in range(0, n, _ROWS):
            block = table[r0:r0 + _ROWS]
            np.take(element, block, out=block, mode="clip")  # unbuffered, unlike "raise"
        table.setflags(write=False)
        tables.append(table)
    return tables[0], tables[1]


def _lattice_witness(p: Poset) -> NotALattice:
    """The first incomparable pair x < y, in row-major order, whose upper
    bounds have no least element ("join"), or else whose lower bounds have
    no greatest element ("meet"), once the lattice check has failed; p must
    have a bottom and a top.  The upper bounds of x and y form the up set
    up(x) & up(y), not empty as p has a top, and it has a least element z
    exactly when it equals up(z).  Dually for the lower bounds.
    """
    up, down = p._up, p._down
    ups, downs = set(up), set(down)
    for x, y in combinations(range(p.n), 2):
        if (up[x] | down[x]) >> y & 1:
            continue
        if up[x] & up[y] not in ups:
            return NotALattice(x, y, "join")
        if down[x] & down[y] not in downs:
            return NotALattice(x, y, "meet")
    raise AssertionError("the mask check rejected a lattice")


def _heights(l: Lattice) -> list[int]:
    """Longest-path distance from bottom, per element."""
    return _longest_paths(l.n, l.poset._lower, l.poset._upper)[0]


def _coheights(l: Lattice) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Longest-path distance to top, per element, and the elements in the
    order the pass reached them, a linear extension read from the top; the
    pass runs once per lattice, and its result is kept on it."""
    if l._co is None:
        co, order = _longest_paths(l.n, l.poset._upper, l.poset._lower)
        l._co = tuple(co), tuple(order)
    return l._co


def _by_mask(l: Lattice) -> tuple[dict[int, int], dict[int, int]]:
    """({up(x): x}, {down(x): x}), built once per lattice and kept; O(n)."""
    if l._by is None:
        l._by = tuple({mask: x for x, mask in enumerate(masks)} for masks in (l._up, l._down))
    return l._by


def _longest_paths(n: int, below, above) -> tuple[list[int], list[int]]:
    """Longest path from a minimal element to each element, following the
    cover tuples ``above`` (``below`` holds the opposite covers), and Kahn's
    order of the elements; O(n + covers)."""
    missing = list(map(len, below))
    order = [x for x in range(n) if not missing[x]]
    h = [0] * n
    for v in order:  # grows while it is walked
        hv = h[v] + 1
        for w in above[v]:
            if h[w] < hv:
                h[w] = hv
            missing[w] -= 1
            if not missing[w]:
                order.append(w)
    return h, order


def length(l: Lattice) -> int:
    """The maximum length of a chain in l."""
    return _coheights(l)[0][l.bottom]


def maximal_length_chain(l: Lattice) -> Chain:
    """The deterministic maximal-length chain: follow covers that stay on a
    longest bottom-to-top path, tie-breaking on smallest element index."""
    co = _coheights(l)[0]
    chain = [l.bottom]
    cur = l.bottom
    while cur != l.top:
        cur = min(w for w in l.upper_covers(cur) if co[w] == co[cur] - 1)
        chain.append(cur)
    return Chain(tuple(chain))


def is_distributive(l: Lattice, witness: bool = False):
    """Whether x ^ (y v z) == (x ^ y) v (x ^ z) for all x, y, z.

    Exactly when l is graded and trim: a distributive lattice is both, and a
    graded trim lattice is distributive (Thomas, Order 23, 2006).  Only when
    that fails and a witness is wanted is one searched for.
    """
    co = _coheights(l)[0]
    ok = all(co[y] == co[z] + 1 for y, z in l.covers) and is_trim(l)  # graded and trim
    if ok or not witness:
        return (ok, None) if witness else ok
    return False, _distributive_witness(l)


def _distributive_witness(l: Lattice) -> tuple[int, int, int]:
    """The first (x, y, z), row-major, with x ^ (y v z) != (x ^ y) v (x ^ z),
    on a lattice that is not distributive.

    f(v) = x ^ v preserves meets, and f(y v z) >= f(y) v f(z).  With
    S_m = {v : f(v) <= m}, a down set, the law fails at (y, z) exactly when
    y and z lie in some S_m, m meet-irreducible, and y v z does not: a
    failure has f(y v z) not below f(y) v f(z), so not below some
    meet-irreducible m above it (it is their meet), and the converse is
    the definition.  S_m closed under joins is down(max S_m), so:

    1. x fails exactly when some S_m is no down(t).  S_m is the complement
       of the union of up(j) over the join-irreducibles j <= x not below m,
       as x ^ v <= m unless such a j is below v; they are the bits of
       key[x] minus key[m] (:func:`_irr_keys`).  The bottom and the top are
       skipped: meet with either (constant, or the identity) preserves
       joins.
    2. At the first failing x, f(v) <= m exactly when f(v) <= w = x ^ m,
       so S_m is the union of the fibres {v : f(v) = u} over u <= w: down(w)
       (u = f(u) there) and the fibres of two or more members over u <= w.
       It is built once per distinct w; an S that is some down(t) is
       dropped.
    3. For y in S, y v z lies in S exactly when z lies below some t in S
       above y, or a maximal one.  A maximal member t of S is w, or lies
       in one of those fibres and is maximal in it (a lone u <= w is below
       w).  Row y's failing z are the OR, over the kept S that hold y, of S
       minus the down(t) of S's maximal t >= y.
    4. The first row with a failing z gives (y, z), z its lowest: the law
       is symmetric and holds at y == z and at y the bottom, so a z < y
       would have failed in row z.
    """
    up, down = l._up, l._down
    js, _, key, _ = _irr_keys(l)
    ups = [up[j] for j in js]
    by_down = _by_mask(l)[1]
    x = next(x for x in range(l.n) if x != l.bottom and x != l.top and any(
        down[l.top] ^ _key_union(ups, key[x] & ~key[m]) not in by_down for m in l.meet_irr))
    f = [by_down[down[x] & d] for d in down]
    fibre = dict.fromkeys(f, 0)
    for v, u in enumerate(f):
        fibre[u] |= 1 << v
    # the fibres of two or more members, and their maximal members
    wide = {u: [v for v in _bits(m) if m & up[v] == 1 << v] for u, m in fibre.items() if m & m - 1}
    at = sum(1 << u for u in wide)
    kept = []
    for w in {f[m] for m in l.meet_irr}:
        us = list(_bits(down[w] & at))
        s = reduce(or_, map(fibre.__getitem__, us), down[w])
        if s not in by_down:
            kept.append((s, [t for t in {w}.union(*map(wide.__getitem__, us)) if s & up[t] == 1 << t]))
    for y in (y for y in range(l.n) if y != l.bottom):
        bad = 0
        for s, ts in kept:
            if s >> y & 1:
                bad |= s & ~reduce(or_, [down[t] for t in ts if up[y] >> t & 1])
        if bad:
            return x, y, (bad & -bad).bit_length() - 1
    raise AssertionError("the graded-and-trim test rejected a distributive lattice")


def is_extremal(l: Lattice) -> bool:
    return len(l.join_irr) == len(l.meet_irr) == length(l)


def _pair_keys(l: Lattice, js, ms) -> tuple[list[int], list[int]]:
    """Per element x, its J-key (bit i when js[i] <= x) and its M-key (bit
    k when x <= ms[k]), from one pass over the covers in the order of the
    kept longest-path pass: a J-key is the OR of its lower covers' keys,
    plus bit i at js[i], and an M-key dually; O(n + covers)."""
    p = l.poset
    order = _coheights(l)[1]  # top first
    xj, ym = [0] * l.n, [0] * l.n
    for keys, seeds, covers, walk in ((xj, js, p._lower, reversed(order)),
                                      (ym, ms, p._upper, order)):
        for i, t in enumerate(seeds):
            keys[t] = 1 << i
        for x in walk if seeds else ():  # with no seeds every key is 0
            acc = keys[x]
            for c in covers[x]:
                acc |= keys[c]
            keys[x] = acc
    return xj, ym


def _irr_keys(l: Lattice) -> tuple[tuple[int, ...], tuple[int, ...], list[int], list[int]]:
    """(js, ms, J-keys, M-keys): the join-irreducibles bottom first and the
    meet-irreducibles top first, both along the kept pass, and the keys
    they seed (:func:`_pair_keys`); built once per lattice and kept.  The
    pass lists each element after everything above it, so the lowest bit
    of a set of J-key bits is one of its minimal members, and of M-key bits
    one of its maximal members."""
    if l._keys is None:
        order, lower, upper = _coheights(l)[1], l._lower, l._upper  # top first
        js = tuple([x for x in reversed(order) if len(lower[x]) == 1])
        ms = tuple([x for x in order if len(upper[x]) == 1])
        l._keys = (js, ms, *_pair_keys(l, js, ms))
    return l._keys


def _key_union(masks, key: int) -> int:
    """The union of masks[i] over the bits i of key."""
    out = 0
    while key:
        low = key & -key
        out |= masks[low.bit_length() - 1]
        key ^= low
    return out


def _left_modular_test(l: Lattice) -> int:
    """The mask of the elements x with (y v x) ^ z == y v (x ^ z) for every
    cover y covered-by z (which suffices for all y <= z), decided once per
    distinct pair of cover keys.

    Both sides lie in [y, z] = {y, z} and the right is below the left, so
    the law fails exactly when the left is z and the right is y.  The right
    is z exactly when some join-irreducible j <= x is in D = J(z) minus J(y)
    (then x ^ z is not below y); the left is y exactly when some
    meet-irreducible m >= x is in E = M(y) minus M(z).  So x passes the
    cover exactly when it lies in U(D) | V(E), U(D) the union of up(j) over
    D and V(E) of down(m) over E (the same sets as the unions over the
    minimal members of D and maximal members of E alone, as every other
    member lies above or below one).  The left-modular set is the AND of
    U(D) | V(E) over the distinct (D, E), read from the kept keys of
    :func:`_irr_keys` (any numbering of the irreducibles gives the same
    sets), with each union built once per distinct key: boolean(12) has
    24576 covers and 12 pairs.  The bottom and the top are left modular and
    the other candidates only shrink: V is skipped when U keeps every
    candidate, and the walk stops when none is left.
    """
    js, ms, jk, mk = _irr_keys(l)
    w = len(ms)
    keys = [a << w | b for a, b in zip(jk, mk)]
    ups, downs = [l._up[j] for j in js], [l._down[m] for m in ms]
    U, V = {}, {}
    bounds = 1 << l.bottom | 1 << l.top
    lm = (1 << l.n) - 1 & ~bounds
    # J(y) lies in J(z) and M(z) in M(y), so XOR takes both differences;
    # neither is empty at a cover, so no union is 0
    for de in {keys[y] ^ keys[z] for y, z in l.covers}:
        if not lm:
            break
        d, e = de >> w, de & (1 << w) - 1
        u = U.get(d) or U.setdefault(d, _key_union(ups, d))
        if lm & ~u:
            lm &= u | (V.get(e) or V.setdefault(e, _key_union(downs, e)))
    return lm | bounds


def is_left_modular_element(l: Lattice, x: int) -> bool:
    """True iff (y v x) ^ z == y v (x ^ z) for all y <= z: x alone, on the
    kept keys, passes every cover y covered-by z exactly when its J-key
    meets J(z) minus J(y) or its M-key meets M(y) minus M(z)
    (:func:`_left_modular_test`)."""
    if not 0 <= x < l.n:
        raise ValueError(f"element {x} out of range for n={l.n}")
    _, _, jk, mk = _irr_keys(l)
    a, b = jk[x], mk[x]
    return all(a & (jk[y] ^ jk[z]) or b & (mk[y] ^ mk[z]) for y, z in l.covers)


def is_left_modular_lattice(l: Lattice) -> Chain | None:
    """A saturated bottom-to-top chain of left-modular elements if one
    exists, else None: a depth-first walk over covers inside that set from
    the bottom (always in it), smallest index first, on one path list, as
    every state popped since one at depth d was pushed lies deeper."""
    lm, upper = _left_modular_test(l), l._upper
    path, seen, stack = [], set(), [(l.bottom, 0)]
    while stack:
        cur, d = stack.pop()
        path[d:] = [cur]
        if cur == l.top:
            return Chain(tuple(path))
        for w in reversed(upper[cur]):
            if lm >> w & 1 and (w, d + 1) not in seen:
                seen.add((w, d + 1))
                stack.append((w, d + 1))
    return None


def is_trim(l: Lattice) -> bool:
    """Fast trimness test: extremal with every cover overlapping in the
    maximal-orthogonal-pair representation.

    The definitional route (extremal and some maximal chain is left modular)
    is available as :func:`is_trim_definitional`; the two must agree.
    """
    from .galois import index_irreducibles

    return is_extremal(l) and all(index_irreducibles(l).overlap)


def is_trim_definitional(l: Lattice) -> bool:
    return is_extremal(l) and is_left_modular_lattice(l) is not None


def _cover_failure(l: Lattice, covers) -> tuple[tuple[int, int], str, tuple[int, ...]] | None:
    """The first cover x covered-by y in covers at which {z : x v z = y} =
    down(y) minus down(x) has no least element ("minimal-join"), or else
    {z : z ^ y = x} = up(x) minus up(y) has no greatest ("maximal-meet"),
    as (cover, side, the set's minimal or maximal members by index); None
    when there is none.  A minimal member of the first set has one lower
    cover, as two would lie below x and so would their join; so the lowest
    bit of J(y) minus J(x) (:func:`_irr_keys`) is one, g, and the set has a
    least element exactly when it lies in up(g).  The second is the dual.
    """
    p = l.poset
    js, ms, jk, mk = _irr_keys(l)
    for x, y in covers:
        for side, s, d, irr, step, beyond in (
                ("minimal-join", p._down[y] & ~p._down[x], jk[y] ^ jk[x], js, p._lower, p._up),
                ("maximal-meet", p._up[x] & ~p._up[y], mk[x] ^ mk[y], ms, p._upper, p._down)):
            if s & ~beyond[irr[(d & -d).bit_length() - 1]]:
                ends = sorted(irr[i] for i in _bits(d) if not s >> step[irr[i]][0] & 1)
                return (x, y), side, tuple(ends)
    return None


def _kappas(l: Lattice) -> dict[int, int] | None:
    """{j: kappa(j)} over l.join_irr, kappa(j) the greatest element above
    j_* and not above j; None when some kappa(j), or dually some
    kappa^d(m), does not exist.  kappa(j)'s set is the second set of
    :func:`_cover_failure` at j_* covered-by j (the first is {j}), and
    kappa^d(m)'s the first at m covered-by m^* (the second is {m})."""
    lower, upper = l._lower, l._upper
    if _cover_failure(l, [(lower[j][0], j) for j in l.join_irr]
                      + [(m, upper[m][0]) for m in l.meet_irr]):
        return None
    _, ms, _, mk = _irr_keys(l)
    return {j: ms[((e := mk[lower[j][0]] & ~mk[j]) & -e).bit_length() - 1] for j in l.join_irr}


def is_semidistributive(l: Lattice, witness: bool = False):
    """Whether x v y == x v z implies x v (y ^ z) == x v y, and dually.

    Freese-Jezek-Nation (Free Lattices, Thm 2.56): exactly when every
    kappa(j) and kappa^d(m) exists (:func:`_kappas`).  Only when one is
    missing and a witness is wanted is one searched for
    (:func:`_semidistributive_witness`).
    """
    ok = _kappas(l) is not None
    if ok or not witness:
        return (ok, None) if witness else ok
    return False, _semidistributive_witness(l)


def _semidistributive_witness(l: Lattice) -> tuple[str, int, int, int]:
    """The first ("join", x, y, z) with x v y == x v z != x v (y ^ z), or
    dually ("meet", ...), of a lattice that is not semidistributive: x in
    index order, the join law before the meet law, then (y, z) row-major.

    1. The join law holds at x exactly when each fibre {v : x v v = w} has
       a least element, that is one minimal member: fibres are convex, and
       the law folds to the fibre's meet.  There is a fibre per w >= x, so
       the law holds exactly when n - |up(x)| elements have a lower cover
       in their own fibre.
    2. A cover u covered-by v leaves x's fibre exactly when x v u is not
       above v, that is when some meet-irreducible m >= x lies in
       E = M(u) minus M(v) (:func:`_irr_keys`): x's M-key meets E.
    3. So, with each distinct E holding the mask of the v at which it
       occurs, the elements with a lower cover in their own fibre are the
       OR of those masks over the E that x's M-key misses.
    The meet law is the dual, on J-keys and upper covers.  The bottom and
    the top are skipped: there x v y and x ^ y are y or constant, so both
    laws hold.  A failing pair lies in a fibre with two minimal members;
    only those are scanned, for y < z (the law is symmetric and holds at
    y == z), by mask lookups.
    """
    n, up, down, by = l.n, l._up, l._down, _by_mask(l)
    _, _, jk, mk = _irr_keys(l)
    # per side: its key, the masks up and down its order, their lookups and
    # the end of a cover that the cover can hold in its fibre (v going up, u
    # going down); held, built on first use, maps each distinct cover key
    # difference to the mask of those ends
    sides = (("join", mk, up, down, by, 1), ("meet", jk, down, up, by[::-1], 0))
    held = {}
    for x in (x for x in range(n) if x != l.bottom and x != l.top):
        for side, key, ups, downs, (by_up, by_down), end in sides:
            if side not in held:
                diffs = {}
                for cover in l.covers:
                    e = key[cover[0]] ^ key[cover[1]]
                    diffs[e] = diffs.get(e, 0) | 1 << cover[end]
                held[side] = list(diffs.items())
            kx, ux = key[x], ups[x]
            flat = 0
            for e, ends in held[side]:
                if not kx & e:
                    flat |= ends
            if flat.bit_count() == n - ux.bit_count():
                continue
            f = [by_up[ux & u] for u in ups]
            minimal = Counter(f[v] for v in _bits((1 << n) - 1 & ~flat))
            return next((side, x, y, z) for y in range(n) if minimal[f[y]] > 1
                        for z in range(y + 1, n)
                        if f[z] == f[y] and f[by_down[downs[y] & downs[z]]] != f[y])
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
    return Lattice(poset, index[a], index[b]), members


def spine(l: Lattice) -> tuple[int, ...]:
    """Elements lying on some maximal-length chain of an extremal lattice."""
    if not is_extremal(l):
        raise NotExtremal("spine requires an extremal lattice")
    h, co = _heights(l), _coheights(l)[0]
    return tuple(x for x in range(l.n) if h[x] + co[x] == h[l.top])


class Congruence(NamedTuple):
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
    seen = [x for c in cls for x in c]
    if not all(cls) or sorted(seen) != list(range(l.n)):
        raise ValueError("classes do not partition the elements")
    cls.sort(key=lambda c: c[0])
    # x ^ y is looked up by down(x) & down(y), x v y dually
    up, down, (by_up, by_down) = l._up, l._down, _by_mask(l)
    of = {x: i for i, c in enumerate(cls) for x in c}
    for c in cls:
        for x1, x2 in combinations(c, 2):
            for y in range(l.n):
                if of[by_down[down[x1] & down[y]]] != of[by_down[down[x2] & down[y]]]:
                    raise NotACongruence(x1, x2, y, "meet")
                if of[by_up[up[x1] & up[y]]] != of[by_up[up[x2] & up[y]]]:
                    raise NotACongruence(x1, x2, y, "join")
    return Congruence(tuple(cls))


def quotient(l: Lattice, c: Congruence) -> tuple[Lattice, tuple[tuple[int, ...], ...]]:
    """The lattice on the congruence classes, plus the class list (class i of
    the result collects the original elements c.classes[i])."""
    of = {x: i for i, cl in enumerate(c.classes) for x in cl}
    k = len(c.classes)
    relations = {(of[a], of[b]) for a, b in l.covers if of[a] != of[b]}
    p = poset_from_relations(k, sorted(relations))
    return lattice_from_poset(p), c.classes
