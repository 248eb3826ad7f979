"""Cover labellings: the left-modular labelling, descriptive/EL/interpolating
predicates, down/up label sets, semidistributive labellings with the kappa
bijection, and canonical join and meet representations.

The left-modular labelling has one formula on the fast path: on a trim
lattice the label of a cover y covered-by z is the single label in
y_M & z_J, the cover's overlap mask that the irreducible indexing holds.
Every other lattice reads formulas 1 and 3 from key bits on every cover
and asserts them equal; formula 2 is formula 1 (:func:`_three_formula_labels`).
Both labellings are read from masks and keys, with no tables.

A labelling is a map from Hasse edges (y, z) to hashable labels, distinct
around each element.  Left-modular labellings use integer labels 1..n carrying
the Galois poset; semidistributive labellings use irreducible elements as
labels.

Label sets are int masks over an enumeration of the labels (bit i-1 for
label i of a trim lattice), checked distinct around each element by
popcount (:func:`_label_masks`); frozensets are built only for output.
"""

from __future__ import annotations

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
    _coheights,
    _cover_failure,
    _irr_keys,
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

    Full path (every other lattice): formulas 1 and 3, read from key bits
    and asserted equal on every cover (formula 2 equals formula 1),

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
    """Formulas 1 and 3 on every cover y covered-by z along the maximal
    chain xs, raising ThreeWayMismatch(cover, (v1, v1, v3)) where first
    they disagree.  y v j = z exactly when j is in J(z) minus J(y), and
    z ^ m = y exactly when m is in M(y) minus M(z), so with the keys
    (:func:`trimlat.lattice._pair_keys`) seeded in beta_J and beta_M order
    formula 1 is the lowest bit of the J-key difference and formula 3 the
    highest of the M-key difference.  Formula 2 is formula 1: y v (x_i ^ z)
    = z exactly when x_i ^ z, the join of the join-irreducibles below it, is
    not below y, that is when some j in J(z) minus J(y) lies below x_i.
    """
    down, up = l._down, l._up
    jirr, mirr = (sum(1 << t for t in irr) for irr in (l.join_irr, l.meet_irr))
    steps = list(enumerate(zip(xs, xs[1:]), 1))
    # beta_J(j) is the i where j enters down(x_i), beta_M(m) where m leaves up(x_{i-1})
    js = [(i, j) for i, (a, b) in steps for j in _bits(down[b] & ~down[a] & jirr)]
    ms = [(i, m) for i, (a, b) in steps for m in _bits(up[a] & ~up[b] & mirr)]
    jk, mk = _pair_keys(l, [j for _, j in js], [m for _, m in ms])
    labels: dict[tuple[int, int], int] = {}
    for y, z in l.covers:
        d = jk[z] ^ jk[y]
        v1, v3 = js[(d & -d).bit_length() - 1][0], ms[(mk[y] ^ mk[z]).bit_length() - 1][0]
        if v1 != v3:
            raise ThreeWayMismatch((y, z), (v1, v1, v3))
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


def is_EL(l: Lattice, labelling) -> bool:
    """EL property: in every interval, exactly one saturated chain has a
    weakly increasing label word, and that word strictly lexicographically
    precedes the word of every other saturated chain.

    One pass per x over up(x), bottom first along the kept pass
    (:func:`trimlat.lattice._coheights`), carries the last label and first
    step of each increasing chain from x.  It accepts [x, z] when one chain
    reaches z and starts at the greedy step, min (label, w) over the covers
    w of x below z.  This is the definitional test (one increasing chain,
    and the greedy word increases): an increasing greedy word is the one
    increasing chain; conversely, by induction on intervals, the greedy
    chain of [x, z] is its greedy step w, where the increasing chain starts,
    and then the greedy chain of [w, z], the increasing one.  No other chain
    has that word, as it would increase too.
    """
    labels = _label_dict(labelling)
    up, co = l._up, _coheights(l)[0]
    for x in range(l.n):
        # before[w]: the z above a cover ahead of w in (label, w) order
        before, seen = {}, 0
        for _, w in sorted((labels[(x, w)], w) for w in l.upper_covers(x)):
            before[w], seen = seen, seen | up[w]
        ends = {w: [(labels[(x, w)], w)] for w in before}
        for z in sorted(_bits(up[x] ^ 1 << x), key=co.__getitem__, reverse=True):
            if len(chains := ends.pop(z, ())) != 1 or before[chains[0][1]] >> z & 1:
                return False
            (last, first), = chains
            for w in l.upper_covers(z):
                if last <= (lab := labels[(z, w)]):
                    ends.setdefault(w, []).append((lab, first))
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
    the lattice is semidistributive, gamma_j(x covered-by y) is the least
    element of down(y) minus down(x), and gamma_m = kappa o gamma_j.  The
    lowest bit of J(y) minus J(x) (:func:`trimlat.lattice._irr_keys`) is a
    minimal member, so it is gamma_j.  Otherwise NotSemidistributive names
    the first cover whose set fails (:func:`trimlat.lattice._cover_failure`),
    as the covers that kappa tests are among them.
    """
    kappa = _kappas(l)
    if kappa is None:
        raise NotSemidistributive(*_cover_failure(l, l.covers))
    js, _, key, _ = _irr_keys(l)
    gamma_j = {(x, y): js[((d := key[y] ^ key[x]) & -d).bit_length() - 1] for x, y in l.covers}
    return SemidistributiveLabelling(gamma_j, {c: kappa[j] for c, j in gamma_j.items()}, kappa)


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
