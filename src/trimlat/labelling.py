"""Cover labellings: the left-modular labelling, descriptive/EL/interpolating
predicates, down/up label sets, semidistributive labellings with the kappa
bijection, and canonical join and meet representations.

The left-modular labelling has one formula on the fast path: on a trim
lattice the label of a cover y covered-by z is the single label in
y_M & z_J, the cover's overlap mask that the irreducible indexing holds.
Every other lattice runs three equivalent formulas on every cover and
asserts them equal.  Both labellings are read from the up and down masks,
with no tables.

A labelling is a map from Hasse edges (y, z) to hashable labels, distinct
around each element.  Left-modular labellings use integer labels 1..n carrying
the Galois poset; semidistributive labellings use irreducible elements as
labels.

Label sets are int masks over an enumeration of the labels (bit i-1 for
label i of a trim lattice), checked distinct around each element by
popcount (:func:`_label_masks`); frozensets are built only for output.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .errors import (
    NotExtremal,
    NotLeftModular,
    NotSemidistributive,
    ThreeWayMismatch,
)
from .galois import galois_graph, galois_poset, index_irreducibles
from .lattice import (
    Chain,
    Lattice,
    _ends,
    _kappas,
    _pair_keys,
    is_extremal,
    is_left_modular_lattice,
)
from .poset import Poset, _bits


class CoverLabelling(NamedTuple):
    """An edge labelling together with the partial order on its labels
    (None means labels are unordered/discrete)."""

    labels: dict[tuple[int, int], int]
    label_poset: Poset | None = None


class LabelSets(NamedTuple):
    """Per-element downward and upward label sets."""

    down: tuple[frozenset, ...]
    up: tuple[frozenset, ...]


def _label_dict(labelling) -> dict:
    return labelling.labels if isinstance(labelling, CoverLabelling) else labelling


def _label_masks(l: Lattice, covers, bits) -> tuple[list[int], list[int]]:
    """Per element, the masks of its down- and up-labels, from each cover
    (y, z) in ``covers`` and its label's bit in ``bits``; raises ValueError
    around an element with a cover unlabelled or a label repeated."""
    down = [0] * l.n
    up = [0] * l.n
    for (y, z), bit in zip(covers, bits):
        up[y] |= bit
        down[z] |= bit
    p = l.poset
    for x in range(l.n):
        if (down[x].bit_count() != len(p.lower_covers(x))
                or up[x].bit_count() != len(p.upper_covers(x))):
            raise ValueError(f"labelling not defined (or not distinct) around {x}")
    return down, up


def _labelling_masks(l: Lattice, labelling) -> tuple[list, list[int], list[int]]:
    """(names, down, up): :func:`_label_masks` of a labelling with bit t
    standing for names[t], its labels in first-seen order."""
    labels = _label_dict(labelling)
    names = list(dict.fromkeys(labels.values()))
    bit = {lab: 1 << t for t, lab in enumerate(names)}
    return names, *_label_masks(l, labels, [bit[lab] for lab in labels.values()])


def down_up_labels(l: Lattice, labelling) -> LabelSets:
    names, down, up = _labelling_masks(l, labelling)
    sets = {m: frozenset(names[t] for t in _bits(m)) for m in {*down, *up}}
    return LabelSets(tuple(sets[m] for m in down), tuple(sets[m] for m in up))


def left_modular_labelling(l: Lattice, chain: Chain | None = None) -> CoverLabelling:
    """The label of each cover y covered-by z along a left-modular chain
    x_0 < ... < x_n.

    When no chain is supplied, the deterministic maximal-length chain is used
    for extremal lattices; otherwise a chain of left-modular elements is
    searched for.

    Fast path: when the lattice is extremal and every cover overlaps (so it
    is trim), the label is the overlap label, the one i in y_M & z_J, one
    AND of the indexing's pair masks per cover (Thomas-Williams).  On an
    extremal lattice the indexing also validates the chain, and the label
    poset is the Galois poset.

    Full path (every other lattice): three formulas, asserted equal on
    every cover,

    1. min over join-irreducibles j with y v j = z of beta_J(j),
    2. min i with y v (x_i ^ z) = z,
    3. max over meet-irreducibles m with z ^ m = y of beta_M(m).
    """
    try:
        idx = index_irreducibles(l, chain)
    except NotExtremal:  # a supplied chain on an extremal lattice is wrong
        if chain is not None and is_extremal(l):
            raise
        idx = None
    if idx is not None:
        overlap = idx.overlap
        labels = (dict(zip(l.covers, map(int.bit_length, overlap))) if all(overlap)
                  else _three_formula_labels(l, idx.chain.elements))
        return CoverLabelling(labels, galois_poset(galois_graph(l, idx)))
    if chain is None:
        chain = is_left_modular_lattice(l)
        if chain is None:
            raise NotLeftModular("no maximal chain of left-modular elements")
    n = chain.length
    discrete = tuple(1 << i for i in range(n))
    return CoverLabelling(_three_formula_labels(l, chain.elements), Poset(n, (), discrete, discrete))


def _three_formula_labels(l: Lattice, xs) -> dict:
    """The three label formulas on every cover along the chain xs, raising
    ThreeWayMismatch where they disagree; y v j = z exactly when
    up(y) & up(j) = up(z), and dually for meets."""
    n = len(xs) - 1
    up, down = l.poset._up, l.poset._down
    by_down = {mask: v for v, mask in enumerate(down)}
    beta_j = {j: min(i for i in range(1, n + 1) if l.leq(j, xs[i]))
              for j in l.join_irr}
    beta_m = {m: max(i for i in range(1, n + 1) if l.leq(xs[i - 1], m))
              for m in l.meet_irr}
    labels: dict[tuple[int, int], int] = {}
    for y, z in l.covers:
        v1 = min(beta_j[j] for j in l.join_irr if up[y] & up[j] == up[z])
        v2 = min(i for i in range(1, n + 1)
                 if up[y] & up[by_down[down[xs[i]] & down[z]]] == up[z])
        v3 = max(beta_m[m] for m in l.meet_irr if down[z] & down[m] == down[y])
        if not (v1 == v2 == v3):
            raise ThreeWayMismatch((y, z), (v1, v2, v3))
        labels[(y, z)] = v1
    return labels


def is_descriptive(l: Lattice, labelling) -> bool:
    """Whether down-label sets and up-label sets each determine elements and
    coincide as families of sets.  Labellings that repeat a label around an
    element (possible on non-extremal left-modular lattices) are not
    descriptive."""
    try:
        _, down, up = _labelling_masks(l, labelling)
    except ValueError:
        return False
    downs, ups = set(down), set(up)
    return len(downs) == l.n and len(ups) == l.n and downs == ups


def _lex_min_chain(l: Lattice, labels, x: int, z: int) -> list:
    """Greedy lexicographically-least saturated chain from x to z; returns
    the label word."""
    word = []
    cur = x
    while cur != z:
        step = min((labels[(cur, w)], w) for w in l.upper_covers(cur)
                   if l.leq(w, z))
        word.append(step[0])
        cur = step[1]
    return word


def _count_increasing(l: Lattice, labels, x: int, z: int) -> int:
    """Number of saturated chains from x to z with weakly increasing words."""
    memo: dict[tuple[int, int], int] = {}

    def rec(y: int, lo) -> int:
        if y == z:
            return 1
        key = (y, lo)
        if key in memo:
            return memo[key]
        total = 0
        for w in l.upper_covers(y):
            if l.leq(w, z):
                lab = labels[(y, w)]
                if lo is None or lab >= lo:
                    total += rec(w, lab)
        memo[key] = total
        return total

    return rec(x, None)


def is_EL(l: Lattice, labelling) -> bool:
    """EL property: in every interval, exactly one saturated chain has a
    weakly increasing label word, and that word strictly lexicographically
    precedes the word of every other saturated chain."""
    labels = _label_dict(labelling)
    for x in range(l.n):
        for z in range(l.n):
            if not l.lt(x, z):
                continue
            if _count_increasing(l, labels, x, z) != 1:
                return False
            word = _lex_min_chain(l, labels, x, z)
            # the unique increasing chain must realize the lex-least word;
            # then no second chain shares that word, as it would increase too
            if sorted(word) != word:
                return False
    return True


def is_interpolating(l: Lattice, labelling) -> bool:
    """Interpolating property (assumes is_EL): for every x < y < z by covers,
    either the two labels increase, or the increasing chain from x to z
    starts with the label of (y, z) and ends with the label of (x, y)."""
    labels = _label_dict(labelling)
    for x, y in l.covers:
        for z in l.upper_covers(y):
            a, b = labels[(x, y)], labels[(y, z)]
            if a < b:
                continue
            word = _lex_min_chain(l, labels, x, z)
            if word[0] != b or word[-1] != a:
                return False
    return True


class SemidistributiveLabelling(NamedTuple):
    """gamma_j: cover -> minimal z with x v z = y (a join-irreducible);
    gamma_m: cover -> maximal z with z ^ y = x (a meet-irreducible);
    kappa: the induced bijection from join- to meet-irreducibles."""

    gamma_j: dict[tuple[int, int], int]
    gamma_m: dict[tuple[int, int], int]
    kappa: dict[int, int]


def semidistributive_labelling(l: Lattice) -> SemidistributiveLabelling:
    """Compute gamma_j, gamma_m and kappa.

    When every kappa(j) and kappa^d(m) exists (:func:`trimlat.lattice._kappas`),
    the lattice is semidistributive, gamma_j(x covered-by y) is the unique
    join-irreducible j with j <= y, j not <= x and j_* <= x, the least
    element of down(y) minus down(x), and gamma_m = kappa o gamma_j.  It is
    read from the J-keys of :func:`trimlat.lattice._pair_keys`: D =
    key[y] ^ key[x] holds the join-irreducibles below y and not below x,
    and j_* <= x exactly when key[j_*] misses D, as j_* <= j <= y; so the
    label depends only on D and is found once per distinct D.  Otherwise
    the per-cover scan names the failure (:func:`_labelling_error`).
    """
    kappa = _kappas(l)
    if kappa is None:
        raise _labelling_error(l)
    key = _pair_keys(l, l.join_irr, ())[0]
    js, lower = l.join_irr, l.poset._lower
    label = cache(lambda d: next(js[i] for i in _bits(d) if not key[lower[js[i]][0]] & d))
    gamma_j = {(x, y): label(key[y] ^ key[x]) for x, y in l.covers}
    kappa_of = dict(zip(l.join_irr, kappa))
    return SemidistributiveLabelling(gamma_j, {c: kappa_of[j] for c, j in gamma_j.items()},
                                     kappa_of)


def _labelling_error(l: Lattice) -> NotSemidistributive:
    """The first failure of the per-cover scan on a lattice that is not
    semidistributive: per cover x covered-by y, {z : x v z = y} = down(y)
    minus down(x) with no least element ("minimal-join", its minimal
    members), then {z : z ^ y = x} = up(x) minus up(y) with no greatest
    ("maximal-meet").  The first set of m covered-by m^* is kappa^d(m)'s and
    the second of j_* covered-by j is kappa(j)'s, so one set fails exactly
    when the lattice is not semidistributive."""
    p = l.poset
    jirr, mirr = (sum(1 << t for t in irr) for irr in (l.join_irr, l.meet_irr))
    for x, y in l.covers:
        for side, ends in (("minimal-join", _ends(p._down[y] & ~p._down[x], jirr, p._lower)),
                           ("maximal-meet", _ends(p._up[x] & ~p._up[y], mirr, p._upper))):
            if len(ends) > 1:
                return NotSemidistributive((x, y), side, tuple(ends))
    raise AssertionError("the kappa test rejected a semidistributive lattice")


def canonical_join_rep(l: Lattice, x: int,
                       sdl: SemidistributiveLabelling | None = None) -> frozenset[int]:
    """The canonical join representation of x: the gamma_j labels of its
    lower covers (empty for the bottom element)."""
    if sdl is None:
        sdl = semidistributive_labelling(l)
    return frozenset(sdl.gamma_j[(y, x)] for y in l.lower_covers(x))


def canonical_meet_rep(l: Lattice, x: int,
                       sdl: SemidistributiveLabelling | None = None) -> frozenset[int]:
    """The canonical meet representation of x: kappa applied to the gamma_j
    labels of its upper covers."""
    if sdl is None:
        sdl = semidistributive_labelling(l)
    return frozenset(sdl.gamma_m[(x, z)] for z in l.upper_covers(x))
