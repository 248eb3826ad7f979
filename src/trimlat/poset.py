"""Finite posets on elements 0..n-1, with order ideals, antichains, and
linear extensions.

Elements are dense integer indices; subsets of elements are manipulated as
Python-int bitmasks throughout, so every relation query is a shift-and-test.
External names (if any) live in string tables on higher-level objects, never
in the algorithms here.
"""

from __future__ import annotations

from heapq import heappop, heappush

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
        self.n = n
        self.covers = tuple(sorted(covers))
        self._up = tuple(up)
        self._down = tuple(down)
        upper = [[] for _ in range(n)]
        lower = [[] for _ in range(n)]
        # the covers are sorted, so every list fills in ascending order
        for a, b in self.covers:
            upper[a].append(b)
            lower[b].append(a)
        self._upper = tuple(map(tuple, upper))
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

    def dual(self) -> "Poset":
        return Poset(
            self.n,
            tuple((b, a) for a, b in self.covers),
            self._down,
            self._up,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poset)
            and self.n == other.n
            and self.covers == other.covers
        )

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
    one.  Forward, each down-set is pushed to the upper covers.  One big-int
    OR per relation or cover: the cost grows with the relations, not the order.
    """
    succ = [0] * n
    for a, b in relations:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"relation ({a}, {b}) out of range for n={n}")
        if a == b:
            raise CycleDetected(a, b)
        succ[a] |= 1 << b
    nexts = [tuple(_bits(s)) for s in succ]
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
    above, upper = [0] * n, [()] * n
    for v in reversed(order):
        strict = 0
        for w in nexts[v]:
            strict |= above[w]
        above[v] = strict | succ[v]
        cover = succ[v] & ~strict
        upper[v] = nexts[v] if cover == succ[v] else tuple(_bits(cover))
    down = [1 << v for v in range(n)]
    for v in order:
        for w in upper[v]:
            down[w] |= down[v]
    return Poset(n, [(v, w) for v in range(n) for w in upper[v]],
                 [m | 1 << v for v, m in enumerate(above)], down)


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


def canonical_extension(q: Poset) -> tuple[int, ...]:
    """The deterministic linear extension: repeatedly remove the
    smallest-index minimal element.

    Kahn's algorithm over the covers with a min-heap of the elements whose
    lower covers are all removed, O((n + covers) log n)."""
    missing = [len(q.lower_covers(x)) for x in range(q.n)]
    ready = [x for x in range(q.n) if not missing[x]]
    out = []
    while ready:
        x = heappop(ready)
        out.append(x)
        for w in q.upper_covers(x):
            missing[w] -= 1
            if not missing[w]:
                heappush(ready, w)
    return tuple(out)


def linear_extensions(q: Poset, limit: int) -> list[tuple[int, ...]]:
    """Enumerate linear extensions in lexicographic order, up to ``limit``.

    The first extension returned is always the canonical one (smallest-index
    minimal element first).
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def rec(remaining: int):
        if len(out) >= limit:
            return
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for x in _bits(remaining):
            if q.down_mask(x) & remaining == 1 << x:
                prefix.append(x)
                rec(remaining ^ (1 << x))
                prefix.pop()
                if len(out) >= limit:
                    return

    rec((1 << q.n) - 1)
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
    lattice element is the i-th mask returned here.
    """
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
    return tuple(sorted(seen, key=lambda m: (m.bit_count(), m)))


def order_ideals(q: Poset, max_elements: int = DEFAULT_MAX_ELEMENTS):
    """The distributive lattice J(q) of order ideals of q, ordered by
    containment.  Element 0 is the empty ideal; the top is all of q."""
    from .lattice import lattice_from_ideal_masks

    return lattice_from_ideal_masks(q, ideal_masks(q, max_elements))
