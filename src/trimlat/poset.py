"""Finite posets on elements 0..n-1, with order ideals, antichains, and
linear extensions; :class:`~trimlat.lattice.Lattice` subclasses Poset.

Elements are dense integer indices; subsets of elements are manipulated as
Python-int bitmasks throughout, so every relation query is a shift-and-test.
"""

from __future__ import annotations

from .errors import CycleDetected, SizeLimitExceeded

DEFAULT_MAX_ELEMENTS = 100_000


class Poset:
    """Immutable finite poset.

    Attributes:
        n: number of elements, labelled 0..n-1.
        covers: sorted tuple of pairs (a, b) with a covered by b; these are
            exactly the transitive reduction of the order.

    The full order is held as per-element bitmasks: ``up[x]`` has bit y set
    iff x <= y (including x itself), and dually for ``down``.
    """

    __slots__ = ("n", "covers", "_up", "_down", "_upper", "_lower")

    def __init__(self, n: int, covers, up, down):
        upper = [[] for _ in range(n)]
        for a, b in covers:
            upper[a].append(b)
        self._set(tuple([tuple(sorted(bs)) for bs in upper]), up, down)

    @classmethod
    def _of_upper(cls, upper: tuple[tuple[int, ...], ...], up, down) -> Poset:
        p = cls.__new__(cls)
        p._set(upper, up, down)
        return p

    def _set(self, upper: tuple[tuple[int, ...], ...], up, down) -> None:
        """Keep each element's ascending upper covers and the up and down
        masks; the sorted cover pairs and the lower covers, each ascending,
        are read off the upper covers in element order."""
        n = len(upper)
        lower = [[] for _ in range(n)]
        for a, bs in enumerate(upper):
            for b in bs:
                lower[b].append(a)
        self.n, self._upper, self._up, self._down = n, upper, tuple(up), tuple(down)
        self.covers = tuple([(a, b) for a, bs in enumerate(upper) for b in bs])
        self._lower = tuple(map(tuple, lower))

    def leq(self, a: int, b: int) -> bool:
        return (self._up[a] >> b) & 1 == 1

    def lt(self, a: int, b: int) -> bool:
        return a != b and self.leq(a, b)

    def up_mask(self, x: int) -> int:
        """Bitmask of {y : x <= y}, including x."""
        return self._up[x]

    def down_mask(self, x: int) -> int:
        """Bitmask of {y : y <= x}, including x."""
        return self._down[x]

    def upper_covers(self, x: int) -> tuple[int, ...]:
        return self._upper[x]

    def lower_covers(self, x: int) -> tuple[int, ...]:
        return self._lower[x]

    def __eq__(self, other) -> bool:
        return isinstance(other, Poset) and (self.n, self.covers) == (other.n, other.covers)

    def __hash__(self) -> int:
        return hash((self.n, self.covers))

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, covers={list(self.covers)})"


def _bits(mask: int):
    """Iterate set-bit positions of a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def poset_from_relations(n: int, relations) -> Poset:
    """Build a poset from arbitrary (acyclic) relations a < b.

    The order is the reflexive-transitive closure; covers are the transitive
    reduction.  Raises CycleDetected when the closure would force
    a <= b <= a with a != b.

    Two passes in Kahn's order.  Backward, the elements strictly above v are
    its direct successors w and those strictly above them; w is a cover
    unless it is above another w, as every longer path from v leaves through
    one.  Forward, each down-set is pushed to the upper covers.  The
    relations are grouped by source into ascending successor tuples, so the
    cost is a few big-int ORs per distinct relation or cover, and grows with
    the relations, not the order.
    """
    nexts = [[] for _ in range(n)]
    for a, b in relations:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"relation ({a}, {b}) out of range for n={n}")
        if a == b:
            raise CycleDetected(a, b)
        nexts[a].append(b)
    nexts = [tuple(sorted(set(ws))) if len(ws) > 1 else tuple(ws) for ws in nexts]
    indeg = [0] * n
    for ws in nexts:
        for w in ws:
            indeg[w] += 1
    order = [v for v in range(n) if not indeg[v]]
    for v in order:  # grows while it is walked
        for w in nexts[v]:
            indeg[w] -= 1
            if not indeg[w]:
                order.append(w)
    if len(order) < n:
        raise _cycle(nexts, [int(d > 0) for d in indeg])
    above = [0] * n
    for v in reversed(order):  # narrows nexts[v] to the upper covers of v
        strict = succ = 0
        for w in nexts[v]:
            strict |= above[w]
            succ |= 1 << w
        above[v] = strict | succ
        if strict & succ:
            nexts[v] = tuple([w for w in nexts[v] if not strict >> w & 1])
    down = [1 << v for v in range(n)]
    for v in order:
        for w in nexts[v]:
            down[w] |= down[v]
    return Poset._of_upper(tuple(nexts), [m | 1 << v for v, m in enumerate(above)], down)


def _cycle(nexts, left: list[int]) -> CycleDetected:
    """The first edge b -> a back into the path (left[a] == 2) of a depth
    first search, least element and successor first, of those that Kahn's
    algorithm left (left[v] == 1); finished ones reach no cycle (0)."""
    for start in (v for v in range(len(nexts)) if left[v] == 1):
        left[start] = 2
        todo = [(start, iter(nexts[start]))]
        while todo:
            v, rest = todo[-1]
            w = next((w for w in rest if left[w]), None)
            if w is None:
                left[v] = 0
                todo.pop()
            elif left[w] == 2:
                return CycleDetected(w, v)
            else:
                left[w] = 2
                todo.append((w, iter(nexts[w])))
    raise AssertionError("Kahn's algorithm left no cycle")


def linear_extensions(q: Poset, limit: int) -> list[tuple[int, ...]]:
    """Enumerate linear extensions in lexicographic order, up to ``limit``,
    depth first on an explicit stack of frames, one per placed element.

    The first extension returned is always the canonical one (smallest-index
    minimal element first).
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    down = q._down

    def free(rest: int):  # the minimal elements of rest, ascending, lazily
        return (x for x in _bits(rest) if down[x] & rest == 1 << x)

    out: list[tuple[int, ...]] = []
    prefix: list[int] = []
    rest = (1 << q.n) - 1  # the elements not in prefix
    frames = [free(rest)]  # per depth, the candidates not yet tried
    while frames:
        x = next(frames[-1], None)
        if x is not None:
            prefix.append(x)
            rest ^= 1 << x
            frames.append(free(rest))
            continue
        frames.pop()
        if not rest:  # the frame had no element left to place
            out.append(tuple(prefix))
            if len(out) >= limit:
                break
        if prefix:
            rest |= 1 << prefix.pop()
    return out


def antichains(q: Poset) -> list[frozenset[int]]:
    """All antichains of q (pairwise-incomparable subsets), including the
    empty one, sorted by (size, elements)."""
    out: list[frozenset[int]] = []
    chosen: list[int] = []

    def rec(start: int, allowed: int):
        out.append(frozenset(chosen))
        m = allowed & ~((1 << start) - 1) if start else allowed
        for x in _bits(m):
            chosen.append(x)
            rec(x + 1, allowed & ~(q.up_mask(x) | q.down_mask(x)))
            chosen.pop()

    rec(0, (1 << q.n) - 1)
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


def ideal_masks(q: Poset, max_elements: int = DEFAULT_MAX_ELEMENTS) -> tuple[int, ...]:
    """All order ideals of q as bitmasks, sorted by (popcount, value).

    This canonical order is shared with :func:`order_ideals`, whose i-th
    lattice element is the i-th mask returned here."""
    return ideal_poset(q, max_elements)[0]


def ideal_poset(q: Poset, max_elements: int = DEFAULT_MAX_ELEMENTS) -> tuple[tuple, Poset]:
    """The order ideals of q as :func:`ideal_masks` numbers them, and their
    containment order, built from its covers.

    A breadth-first walk from the empty ideal, a size at a time, finds each
    ideal's upper covers I | {x} (in ascending x, so ascending number) and
    checks the cap after each ideal.  It visits only each ideal's addable
    set, the x outside I with all lower covers in I: that of I | {x} is I's
    minus x, plus the upper covers of x with all lower covers in I | {x}.
    The numbering by size is a linear extension, so the up masks come from
    one pass down the numbers and the down masks from one pass up them; no
    pair of ideals is compared."""
    strict_down = [q.down_mask(x) ^ (1 << x) for x in range(q.n)]
    free = {0: sum(1 << x for x in range(q.n) if not strict_down[x])}  # ideal: addable set
    frontier = [0]
    levels, ups = [], {}
    while frontier:
        nxt = []
        for ideal in frontier:
            ups[ideal] = kids = []
            for x in _bits(free[ideal]):
                new = ideal | 1 << x
                kids.append(new)
                if new not in free:
                    addable = free[ideal] ^ 1 << x
                    for w in q._upper[x]:
                        if not strict_down[w] & ~new:
                            addable |= 1 << w
                    free[new] = addable
                    nxt.append(new)
            if len(free) > max_elements:
                raise SizeLimitExceeded(len(free), max_elements, "order ideals")
        levels.append(sorted(frontier))
        frontier = nxt
    masks = tuple(m for level in levels for m in level)
    index = {m: i for i, m in enumerate(masks)}
    upper = tuple([tuple([index[c] for c in ups[m]]) for m in masks])
    n = len(masks)
    up = [1 << v for v in range(n)]
    for v in reversed(range(n)):
        for w in upper[v]:
            up[v] |= up[w]
    down = [1 << v for v in range(n)]
    for v in range(n):
        for w in upper[v]:
            down[w] |= down[v]
    return masks, Poset._of_upper(upper, up, down)


def order_ideals(q: Poset, max_elements: int = DEFAULT_MAX_ELEMENTS):
    """The distributive lattice J(q) of order ideals of q, ordered by
    containment, on the order of :func:`ideal_poset`.  Element 0 is the
    empty ideal; the top is all of q."""
    from .lattice import Lattice

    order = ideal_poset(q, max_elements)[1]
    return Lattice(order, 0, order.n - 1)
