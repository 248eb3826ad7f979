"""Validated finite lattices: meet/join tables, irreducibles, chains, and the
structural predicates (distributive, extremal, left modular, semidistributive,
trim), plus congruence validation and quotients.

A lattice is its order (a Poset subclass): posets from outside are proved
lattices on their covers and J-keys (:func:`lattice_from_poset`), and every
algorithm reads only covers and masks.  A lattice keeps what it derives,
built on first use: the longest-path pass (:func:`_coheights`), the default
irreducible indexing, and the read-only n-by-n int32 meet and join tables,
built together on the first read of ``Lattice.meet`` or ``join`` by
:func:`_tables`, each element's row from the rows of its covers and its mask.

The predicates are exact.  Distributivity (graded and trim),
semidistributivity (every kappa exists) and left modularity are decided on
masks and the irreducibles, and the first distributive and
semidistributive witnesses, the lattice witness and congruences too: no
function reads the tables, and only the table kernel imports numpy.  One
pass gives each element's J-key and M-key (:func:`_pair_keys`), which the
left-modular test, the irreducible indexing and gamma_j all read.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import combinations, repeat
from operator import and_
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
        join_irr: elements (other than bottom) covering exactly one element.
        meet_irr: elements (other than top) covered by exactly one element.
        _co, _index: None until first use, then kept: the longest-path pass
            (:func:`_coheights`) and the default irreducible indexing.
    """

    __slots__ = ("bottom", "top", "join_irr", "meet_irr", "_meet", "_join", "_co", "_index")

    def __init__(self, poset: Poset, bottom: int, top: int):
        for name in Poset.__slots__:  # shared, not rebuilt
            setattr(self, name, getattr(poset, name))
        self.bottom = bottom
        self.top = top
        self.join_irr = tuple([x for x, cs in enumerate(self._lower)
                               if len(cs) == 1 and x != bottom])
        self.meet_irr = tuple([x for x, cs in enumerate(self._upper)
                               if len(cs) == 1 and x != top])
        self._meet = self._join = self._co = self._index = None

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
        return int(self.meet[a, b])

    def join_of(self, a: int, b: int) -> int:
        return int(self.join[a, b])

    def join_all(self, elements) -> int:
        out, join = self.bottom, self.join
        for x in elements:
            out = int(join[out, x])
        return out

    def meet_all(self, elements) -> int:
        out, meet = self.top, self.meet
        for x in elements:
            out = int(meet[out, x])
        return out

    def __repr__(self) -> str:
        return f"Lattice(n={self.n}, length={length(self)})"


def lattice_from_poset(p: Poset) -> Lattice:
    """The lattice of p, proved on its covers and its J-keys; raises
    NotALattice(x, y, kind) naming the first incomparable pair (x < y,
    row-major) with no unique join, or else no unique meet.

    With K(x) the J-key of x (bit i when join_irr[i] <= x, :func:`_pair_keys`),
    a poset with one minimal element 0 and one maximal element 1 is a
    lattice exactly when (a) every x with two or more lower covers has up(x)
    equal to the AND of its lower covers' up masks, and (c) for every x and
    every meet-irreducible m, K(x) & K(m) is the key of some element.

    1. Under (a), K(w) <= K(z) implies w <= z, by induction upward on w: 0
       is trivial, a join-irreducible w is in its own key, and otherwise z
       lies in the AND of up(c) over w's lower covers c, up(w).
    2. Every y != 1 has K(y) = AND of K(m) over the meet-irreducibles
       m >= y, by induction downward: a non-meet-irreducible y has upper
       covers u != v, neither 1; folding (c) over K(v) = AND of K(m),
       m >= v, gives w with K(w) = K(u) & K(v), and by 1 y <= w <= u, v, so
       w = y (w = u would force u <= v).
    3. Folding (c) along 2 gives, for any x and y, a z with K(z) =
       K(x) & K(y), by 1 their meet; with a top and all meets, p is a lattice.

    Conversely, in a lattice an x with lower covers c != c' is c v c', and
    K(x ^ m) = K(x) & K(m).  Cost: an n-bit AND per cover, one key pass and
    n * |M| ANDs of |J|-bit keys.
    """
    n = p.n
    if n == 0:
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
        keys = set(key)
        if all(keys.issuperset(map(and_, key, repeat(key[m], n))) for m in l.meet_irr):  # (c)
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

    f(v) = x ^ v preserves joins exactly when, for each meet-irreducible m,
    S = {v : x ^ v <= m} is some down(t): if f preserves joins, S is a down
    set closed under joins, down(max S); conversely, for w = f(y) v f(z),
    {v : f(v) <= w} is the intersection of S over the m above w (w is their
    meet), so it is down(t) with y v z <= t, and f(y v z) <= w.  S is the
    complement of the union of up(j) over the join-irreducibles j <= x not
    below m, as x ^ v <= m unless such a j is below v; they are the bits of
    key[x] minus key[m] (:func:`_pair_keys`).  Only the first failing x's
    (y, z) plane is scanned, on mask lookups, for y < z: the law is
    symmetric in y and z and holds when y == z.
    """
    up, down, key = l.poset._up, l.poset._down, _pair_keys(l, l.join_irr, ())[0]
    ups = [up[j] for j in l.join_irr]
    by_up, by_down = ({mask: v for v, mask in enumerate(masks)} for masks in (up, down))
    x = next(x for x in range(l.n) if any(
        down[l.top] ^ _key_union(ups, key[x] & ~key[m]) not in by_down for m in l.meet_irr))
    f = [by_down[down[x] & d] for d in down]
    return next((x, y, z) for y in range(l.n) for z in range(y + 1, l.n)
                if f[by_up[up[y] & up[z]]] != by_up[up[f[y]] & up[f[z]]])


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


def _key_union(masks, key: int) -> int:
    """The union of masks[i] over the bits i of key."""
    out = 0
    while key:
        low = key & -key
        out |= masks[low.bit_length() - 1]
        key ^= low
    return out


def _left_modular_test(l: Lattice):
    """x |-> whether (y v x) ^ z == y v (x ^ z) for every cover y covered-by
    z (which suffices for all y <= z), decided once per distinct pair of
    cover keys.

    Both sides lie in [y, z] = {y, z} and the right is below the left, so
    the law fails exactly when the left is z and the right is y.  The right
    is z exactly when some join-irreducible j <= x is in D = J(z) minus J(y)
    (then x ^ z is not below y); the left is y exactly when some
    meet-irreducible m >= x is in E = M(y) minus M(z).  So x passes the
    cover exactly when it lies in U(D) | V(E), U(D) the union of up(j) over
    D and V(E) of down(m) over E (the same sets as the unions over the
    minimal members of D and maximal members of E alone, as every other
    member lies above or below one).  The left-modular set is the AND of
    U(D) | V(E) over the distinct (D, E), read from the keys of
    :func:`_pair_keys`, with each union built once per distinct key:
    boolean(12) has 24576 covers and 12 pairs.  The bottom and the top are
    left modular and the other candidates only shrink: V is skipped when U
    keeps every candidate, and the walk stops when none is left.
    """
    p = l.poset
    w = len(l.meet_irr)
    keys = [a << w | b for a, b in zip(*_pair_keys(l, l.join_irr, l.meet_irr))]
    ups, downs = [p._up[j] for j in l.join_irr], [p._down[m] for m in l.meet_irr]
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
    lm |= bounds
    return lambda x: lm >> x & 1 == 1


def is_left_modular_element(l: Lattice, x: int) -> bool:
    """True iff (y v x) ^ z == y v (x ^ z) for all y <= z."""
    return _left_modular_test(l)(x)


def is_left_modular_lattice(l: Lattice) -> Chain | None:
    """A saturated bottom-to-top chain of left-modular elements if one
    exists, else None.  The search walks covers inside the set of
    left-modular elements from the bottom (always one), smallest index
    first."""
    lm = _left_modular_test(l)
    stack = [(l.bottom, (l.bottom,))]
    seen = set()
    while stack:
        cur, path = stack.pop()
        if cur == l.top:
            return Chain(path)
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
    from .galois import index_irreducibles

    return is_extremal(l) and all(index_irreducibles(l).overlap)


def is_trim_definitional(l: Lattice) -> bool:
    return is_extremal(l) and is_left_modular_lattice(l) is not None


def _ends(s: int, irr: int, step) -> list[int]:
    """The minimal members of s = down(b) minus down(a), ascending: the
    join-irreducibles in s (mask ``irr``) whose lower cover (``step``) is
    not in s, as two lower covers below a would put their join below a.
    Dually, with the meet-irreducibles and upper covers, the maximal
    members of s = up(a) minus up(b)."""
    out = []
    rest = s & irr
    while rest:
        low = rest & -rest
        t = low.bit_length() - 1
        if not s >> step[t][0] & 1:
            out.append(t)
        rest ^= low
    return out


def _kappas(l: Lattice) -> list[int] | None:
    """kappa(j), the greatest element above j_* and not above j, for each j
    in l.join_irr; None when some kappa(j), or dually some kappa^d(m), does
    not exist: when its set has more than one maximal (minimal) member
    (:func:`_ends`)."""
    p = l.poset
    jirr, mirr = (sum(1 << t for t in irr) for irr in (l.join_irr, l.meet_irr))
    kappa = [_ends(p._up[p._lower[j][0]] & ~p._up[j], mirr, p._upper) for j in l.join_irr]
    dual = [_ends(p._down[p._upper[m][0]] & ~p._down[m], jirr, p._lower) for m in l.meet_irr]
    if any(len(e) != 1 for e in kappa + dual):
        return None
    return [e[0] for e in kappa]


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

    The join law holds at x exactly when each fibre {v : x v v = w} has a
    least element, that is one minimal member: fibres are convex, and the
    law folds to the fibre's meet.  A cover u covered-by v stays in one
    fibre exactly when up(x) & up(u) lies in up(v), and there is a fibre
    per w >= x, so the law holds exactly when n - |up(x)| elements have a
    lower cover in their own fibre.  The meet law is the dual.  A failing
    pair lies in a fibre with two minimal members; only those are scanned,
    for y < z (the law is symmetric and holds at y == z), by mask lookups.
    """
    p, n = l.poset, l.n
    # per side: the masks up and down its order and, for each cover u -> v
    # going up it, v and up(u) minus up(v)
    sides = (("join", p._up, p._down, [(v, p._up[u] & ~p._up[v]) for u, v in l.covers]),
             ("meet", p._down, p._up, [(u, p._down[v] & ~p._down[u]) for u, v in l.covers]))
    for x in range(n):
        for side, up, down, gap in sides:
            ux = up[x]
            flat = {v for v, d in gap if not ux & d}
            if len(flat) == n - ux.bit_count():
                continue
            by_up, by_down = ({mask: v for v, mask in enumerate(masks)} for masks in (up, down))
            f = [by_up[ux & u] for u in up]
            minimal = Counter(f[v] for v in range(n) if v not in flat)
            return next((side, x, y, z) for y in range(n) if minimal[f[y]] > 1
                        for z in range(y + 1, n)
                        if f[z] == f[y] and f[by_down[down[y] & down[z]]] != f[y])
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
    # the class of x ^ y is looked up by down(x) & down(y), of x v y dually
    up, down = l.poset._up, l.poset._down
    of_up = {up[x]: i for i, c in enumerate(cls) for x in c}
    of_down = {down[x]: i for i, c in enumerate(cls) for x in c}
    for c in cls:
        for x1, x2 in combinations(c, 2):
            for y in range(l.n):
                if of_down[down[x1] & down[y]] != of_down[down[x2] & down[y]]:
                    raise NotACongruence(x1, x2, y, "meet")
                if of_up[up[x1] & up[y]] != of_up[up[x2] & up[y]]:
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
