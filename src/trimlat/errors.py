"""Exception types shared across the library."""

from __future__ import annotations


class TrimlatError(Exception):
    """Base class for all structured errors raised by trimlat."""


class CycleDetected(TrimlatError):
    """The supplied relations force a <= b <= a for distinct a, b."""

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b
        super().__init__(f"relations force a cycle through {a} and {b}")


class SizeLimitExceeded(TrimlatError):
    """An enumeration grew past the configured element cap; ``count`` is a
    closed form (a str such as "2^20000") where it passes 64 bits."""

    def __init__(self, count: int | str, cap: int, what: str = "elements"):
        self.count, self.cap, self.what = count, cap, what
        super().__init__(f"{what}: count exceeds cap ({count} > {cap})")


class NotALattice(TrimlatError):
    """Some pair of elements has no unique meet or join."""

    def __init__(self, x: int, y: int, kind: str = "join"):
        self.x, self.y, self.kind = x, y, kind
        super().__init__(f"elements {x} and {y} have no unique {kind}")


class NotComparable(TrimlatError):
    def __init__(self, a: int, b: int):
        self.a, self.b = a, b
        super().__init__(f"{a} is not below {b}")


class NotExtremal(TrimlatError):
    pass


class NotLeftModular(TrimlatError):
    pass


class NotTrim(TrimlatError):
    pass


class NotACongruence(TrimlatError):
    """Witness triple (x1, x2, y): x1 ~ x2 but combining with y breaks a class."""

    def __init__(self, x1: int, x2: int, y: int, op: str):
        self.witness = (x1, x2, y, op)
        super().__init__(f"classes not compatible with {op} at ({x1}~{x2}, {y})")


class NotSemidistributive(TrimlatError):
    """A cover's minimal-join (or maximal-meet) witness set has no unique extremum."""

    def __init__(self, cover: tuple[int, int], side: str, witnesses: tuple[int, ...]):
        self.cover, self.side, self.witnesses = cover, side, witnesses
        super().__init__(
            f"cover {cover}: no unique {side} witness among {sorted(witnesses)}"
        )


class NotDescriptive(TrimlatError):
    pass


class NotALinearExtension(TrimlatError):
    pass


class ThreeWayMismatch(TrimlatError):
    """Label formulas 1 and 3 disagreed: the chain is not left modular."""

    def __init__(self, cover: tuple[int, int], values: tuple[int, int, int]):
        self.cover, self.values = cover, values
        super().__init__(f"label formulas disagree on cover {cover}: {values}")


class InputError(TrimlatError):
    """Malformed external input (JSON files, CLI arguments)."""
