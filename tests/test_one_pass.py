"""The one-pass EL test, congruence check and chain labels against the
rescans they replaced (the oracles in conftest), on collections where both
outcomes of each check occur."""

from __future__ import annotations

import random

from trimlat import (
    Chain,
    NotACongruence,
    NotSemidistributive,
    ThreeWayMismatch,
    is_EL,
    is_extremal,
    left_modular_labelling,
    semidistributive_labelling,
)
from trimlat.lattice import congruence
from conftest import oracle_congruence, oracle_is_EL, oracle_three_formula_labels


def _el_counts(labelled) -> tuple[int, int]:
    """(EL, not EL) over the (lattice, labelling) pairs, each checked
    against the oracle."""
    counts = [0, 0]
    for l, labels in labelled:
        got = is_EL(l, labels)
        assert got == oracle_is_EL(l, labels), (l, labels)
        counts[not got] += 1
    return counts[0], counts[1]


def test_is_EL_matches_interval_scan(trim_collection, property_lattices):
    assert _el_counts((l, left_modular_labelling(l)) for _, l in trim_collection) == (1449, 0)
    semi = []
    for _, l in property_lattices:
        try:
            semi.append((l, semidistributive_labelling(l).gamma_j))
        except NotSemidistributive:
            pass
    # gamma_j labels by element index, an order with no meaning for EL
    assert _el_counts(semi) == (989, 540)
    rng = random.Random(35)
    small = [l for _, l in property_lattices if l.n <= 12]
    assert _el_counts((l, {c: rng.randint(1, 4) for c in l.covers})
                      for l in small for _ in range(3)) == (79, 3752)


def _outcome(check, l, classes):
    try:
        return check(l, classes).classes
    except NotACongruence as exc:
        return exc.witness


def test_congruence_matches_every_pair_check(property_lattices):
    # one seeded partition per lattice on 7 to 64 elements, then, while it
    # is no congruence, the two classes that its witness separates merged:
    # every step is compared, and each run ends at a congruence
    rng = random.Random(35)
    congruences = rejected = 0
    for label, l in property_lattices:
        if not 7 <= l.n <= 64:
            continue
        k = rng.randint(1, l.n)
        part = [rng.randrange(k) for _ in range(l.n)]
        while True:
            classes = [[x for x in range(l.n) if part[x] == i] for i in set(part)]
            got = _outcome(congruence, l, classes)
            assert got == _outcome(oracle_congruence, l, classes), (label, classes)
            if not isinstance(got[-1], str):
                congruences += 1
                break
            rejected += 1
            x1, x2, y, side = got
            op = l.meet_of if side == "meet" else l.join_of
            keep, gone = part[op(x1, y)], part[op(x2, y)]
            part = [keep if i == gone else i for i in part]
    assert (congruences, rejected) == (1806, 7042)


def _maximal_chains(l, cap: int) -> list[Chain]:
    """Up to cap maximal chains, depth first, smaller upper covers first."""
    out, stack = [], [(l.bottom,)]
    while stack and len(out) < cap:
        path = stack.pop()
        if path[-1] == l.top:
            out.append(Chain(path))
        else:
            stack += [path + (w,) for w in reversed(l.upper_covers(path[-1]))]
    return out


def _label_outcome(make):
    try:
        return make()
    except ThreeWayMismatch as exc:
        return exc.cover, exc.values


def test_chain_labels_match_three_formulas(property_lattices):
    # every maximal chain (at most 40) of each non-extremal lattice, most of
    # them not left modular, so that the formulas also disagree
    labelled = mismatched = 0
    for label, l in property_lattices:
        if is_extremal(l):
            continue
        for chain in _maximal_chains(l, 40):
            got = _label_outcome(lambda: left_modular_labelling(l, chain).labels)
            assert got == _label_outcome(
                lambda: oracle_three_formula_labels(l, chain.elements)), (label, chain)
            if isinstance(got, dict):
                labelled += 1
            else:
                mismatched += 1
    assert (labelled, mismatched) == (423, 490)
