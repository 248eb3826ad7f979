"""Cover labellings: the left-modular labelling, descriptive/EL/interpolating
predicates, down/up label sets, semidistributive labellings with the kappa
bijection, and canonical join and meet representations.

The left-modular labelling has one formula on the fast path: on a trim
lattice the label of a cover y covered-by z is the single label in
y_M & z_J, one AND of the two pair masks the irreducible indexing carries.
Every other lattice, and ``verify=True`` on any lattice, runs three
equivalent formulas on every cover and asserts them equal (and equal to
the overlap label when the lattice is trim).

A labelling is a map from Hasse edges (y, z) to hashable labels, distinct
around each element.  Left-modular labellings use integer labels 1..n carrying
the Galois poset; semidistributive labellings use irreducible elements as
labels.

Label sets are int masks over an enumeration of the labels (bit i-1 for
label i of a trim lattice), checked distinct around each element by
popcount (:func:`_label_masks`); frozensets are built only for output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NotExtremal,
    NotLeftModular,
    NotSemidistributive,
    ThreeWayMismatch,
)
from .galois import _overlaps, _trim_overlaps, galois_graph, galois_poset, index_irreducibles
from .lattice import (
    Chain,
    Lattice,
    _bool_rows,
    _kappas,
    _row_blocks,
    is_extremal,
    is_left_modular_lattice,
)
from .poset import Poset, _bits


@dataclass(frozen=True)
class CoverLabelling:
    """An edge labelling together with the partial order on its labels
    (None means labels are unordered/discrete)."""

    labels: dict[tuple[int, int], int]
    label_poset: Poset | None = None

    def __post_init__(self):
        object.__setattr__(self, "labels", dict(self.labels))


@dataclass(frozen=True)
class LabelSets:
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


def left_modular_labelling(l: Lattice, chain: Chain | None = None,
                           verify: bool = False) -> CoverLabelling:
    """The label of each cover y covered-by z along a left-modular chain
    x_0 < ... < x_n.

    When no chain is supplied, the deterministic maximal-length chain is used
    for extremal lattices; otherwise a chain of left-modular elements is
    searched for.

    Fast path: when the lattice is extremal and every cover overlaps (so it
    is trim), the label is the overlap label, the one i in y_M & z_J, one
    AND of the indexing's pair masks per cover (Thomas-Williams).  On an
    extremal lattice the indexing also validates the chain.  Extremality is
    read from the indexing's coheights.

    Full path (every other lattice, and ``verify=True``): three formulas,
    asserted equal on every cover,

    1. min over join-irreducibles j with y v j = z of beta_J(j),
    2. min i with y v (x_i ^ z) = z,
    3. max over meet-irreducibles m with z ^ m = y of beta_M(m),

    plus, for trim lattices, the check that they equal the overlap label.
    """
    try:
        idx = index_irreducibles(l, chain)
    except NotExtremal:  # a supplied chain on an extremal lattice is wrong
        if chain is not None and is_extremal(l):
            raise
        idx = None
    labels = None
    if idx is not None:
        chain = idx.chain
        overlap = _overlaps(l, idx)
        labels = dict(zip(l.covers, map(int.bit_length, overlap))) if all(overlap) else None
    elif chain is None:
        chain = is_left_modular_lattice(l)
        if chain is None:
            raise NotLeftModular("no maximal chain of left-modular elements")
    if labels is None or verify:
        labels = _three_formula_labels(l, chain.elements, labels)

    if idx is not None:
        label_poset = galois_poset(galois_graph(l, idx))
    else:
        n = chain.length
        label_poset = Poset(n, (), tuple(1 << i for i in range(n)),
                            tuple(1 << i for i in range(n)))
    return CoverLabelling(labels, label_poset)


def _trim_labelling(l: Lattice) -> CoverLabelling:
    """``left_modular_labelling(l)`` of a trim lattice from one indexing;
    raises NotTrim when l is not trim."""
    idx, overlap = _trim_overlaps(l, "not a trim lattice")
    return CoverLabelling(dict(zip(l.covers, map(int.bit_length, overlap))),
                          galois_poset(galois_graph(l, idx)))


def _three_formula_labels(l: Lattice, xs, overlap) -> dict:
    """The three label formulas on every cover along the chain xs, raising
    ThreeWayMismatch where they disagree, or where the overlap label (if
    given, a dict by cover) is not the label they agree on."""
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
        if overlap is not None and overlap[(y, z)] != v1:
            raise ThreeWayMismatch((y, z), (v1, v1, overlap[(y, z)]))
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


def _count_word(l: Lattice, labels, x: int, z: int, word) -> int:
    """Number of saturated chains from x to z realizing the exact word."""

    def rec(y: int, i: int) -> int:
        if i == len(word):
            return 1 if y == z else 0
        total = 0
        for w in l.upper_covers(y):
            if l.leq(w, z) and labels[(y, w)] == word[i]:
                total += rec(w, i + 1)
        return total

    return rec(x, 0)


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
            # the unique increasing chain must realize the lex-least word,
            # and no second chain may share that word
            if sorted(word) != word:
                return False
            if _count_word(l, labels, x, z, word) != 1:
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


@dataclass(frozen=True)
class SemidistributiveLabelling:
    """gamma_j: cover -> minimal z with x v z = y (a join-irreducible);
    gamma_m: cover -> maximal z with z ^ y = x (a meet-irreducible);
    kappa: the induced bijection from join- to meet-irreducibles."""

    gamma_j: dict[tuple[int, int], int]
    gamma_m: dict[tuple[int, int], int]
    kappa: dict[int, int]

    def __post_init__(self):
        object.__setattr__(self, "gamma_j", dict(self.gamma_j))
        object.__setattr__(self, "gamma_m", dict(self.gamma_m))
        object.__setattr__(self, "kappa", dict(self.kappa))


def semidistributive_labelling(l: Lattice) -> SemidistributiveLabelling:
    """Compute gamma_j, gamma_m and kappa.

    When every kappa(j) and kappa^d(m) exists (:func:`trimlat.lattice._kappas`),
    the lattice is semidistributive, gamma_j(x covered-by y) is the unique
    join-irreducible j with j <= y, j not <= x and j_* <= x, and
    gamma_m = kappa o gamma_j; gamma_j of all covers comes from one boolean
    |J| x covers array (in blocks of covers) by argmax.  Otherwise the
    per-cover scan names the failure (:func:`_labelling_error`).
    """
    kappa = _kappas(l)
    if kappa is None:
        raise _labelling_error(l)
    return _sd_labelling(l, kappa)


def _sd_labelling(l: Lattice, kappa: list[int]) -> SemidistributiveLabelling:
    """gamma_j by argmax and gamma_m = kappa o gamma_j, given the kappas of
    a semidistributive lattice (:func:`semidistributive_labelling`)."""
    irr = np.array(l.join_irr, dtype=np.intp)
    up = _bool_rows([l.poset.up_mask(j) for j in l.join_irr], l.n)
    up_star = _bool_rows([l.poset.up_mask(l.lower_covers(j)[0]) for j in l.join_irr], l.n)
    xs, ys = np.array(l.covers, dtype=np.intp).reshape(-1, 2).T
    pos = np.empty(len(xs), dtype=np.intp)
    for c0, c1 in _row_blocks(len(xs), len(irr)):
        x, y = xs[c0:c1], ys[c0:c1]
        pos[c0:c1] = (up[:, y] & ~up[:, x] & up_star[:, x]).argmax(axis=0)
    return SemidistributiveLabelling(dict(zip(l.covers, irr[pos].tolist())),
                                     dict(zip(l.covers, np.array(kappa)[pos].tolist())),
                                     dict(zip(l.join_irr, kappa)))


def _labelling_error(l: Lattice) -> NotSemidistributive:
    """The first failure of the per-cover scan on a lattice that is not
    semidistributive: per cover x covered-by y, {z : x v z = y} with no
    least element ("minimal-join", its minimal members), then
    {z : z ^ y = x} with no greatest ("maximal-meet"); then per j in
    l.join_irr, kappa(j)'s set {z >= j_*, not >= j} with no greatest
    ("kappa").  On m covered-by m^* the first set is kappa^d(m)'s, so one
    set fails exactly when the lattice is not semidistributive."""
    def sets():
        for x, y in l.covers:
            yield (x, y), "minimal-join", [z for z in range(l.n) if l.join_of(x, z) == y]
            yield (x, y), "maximal-meet", [z for z in range(l.n) if l.meet_of(z, y) == x]
        for j in l.join_irr:
            j_star = l.lower_covers(j)[0]
            yield (j_star, j), "kappa", [z for z in range(l.n)
                                         if l.leq(j_star, z) and not l.leq(j, z)]

    for cover, side, cand in sets():
        least = side == "minimal-join"
        if (l.meet_all(cand) if least else l.join_all(cand)) not in cand:
            return NotSemidistributive(cover, side, tuple(
                c for c in cand
                if not any(l.lt(d, c) if least else l.lt(c, d) for d in cand)))
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
