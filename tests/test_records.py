"""The result records are immutable named tuples: same-type equality and
hashing over their fields, the ``Name(field=value, ...)`` repr, no
attribute assignment, ``_replace`` for edits, and ``len`` of a chain
counting its elements."""

from __future__ import annotations

import pytest

from trimlat import (
    Chain,
    CoverLabelling,
    boolean,
    congruence,
    down_up_labels,
    element_pair,
    independence_complex,
    index_irreducibles,
    left_modular_labelling,
    maximal_length_chain,
    rowmotion_global,
    semidistributive_labelling,
)

# each record built on the 4-element Boolean lattice, and its repr
REPRS = {
    "Chain": "Chain(elements=(0, 1, 3))",
    "Congruence": "Congruence(classes=((0, 1), (2, 3)))",
    "IrreducibleIndexing": (
        "IrreducibleIndexing(chain=Chain(elements=(0, 1, 3)), j=(1, 2), m=(2, 1), "
        "xj=(0, 1, 2, 3), ym=(3, 2, 1, 0), covers=((0, 1), (0, 2), (1, 3), (2, 3)), "
        "overlap=(1, 2, 2, 1))"),
    "MaxOrthPair": "MaxOrthPair(X=frozenset({1}), Y=frozenset({2}))",
    "CoverLabelling": ("CoverLabelling(labels={(0, 1): 1, (0, 2): 2, (1, 3): 2, (2, 3): 1}, "
                       "label_poset=Poset(n=2, covers=[]))"),
    "LabelSets": ("LabelSets(down=(frozenset(), frozenset({1}), frozenset({2}), "
                  "frozenset({1, 2})), up=(frozenset({1, 2}), frozenset({2}), "
                  "frozenset({1}), frozenset()))"),
    "SemidistributiveLabelling": (
        "SemidistributiveLabelling(gamma_j={(0, 1): 1, (0, 2): 2, (1, 3): 2, (2, 3): 1}, "
        "gamma_m={(0, 1): 2, (0, 2): 1, (1, 3): 1, (2, 3): 2}, kappa={1: 2, 2: 1})"),
    "SimplicialComplex": ("SimplicialComplex(vertices=frozenset({1, 2}), faces=frozenset("
                          "{frozenset(), frozenset({2}), frozenset({1}), frozenset({1, 2})}))"),
    "LatticePermutation": ("LatticePermutation(forward=(3, 2, 1, 0), cycles=((0, 3), (1, 2)), "
                           "cycle_type=(2, 2), order=2)"),
}
# the records holding a dict are not hashable
UNHASHABLE = {"CoverLabelling", "SemidistributiveLabelling"}


def _records() -> list:
    l = boolean(2)
    lm = left_modular_labelling(l)
    return [maximal_length_chain(l), congruence(l, [[0, 1], [2, 3]]), index_irreducibles(l),
            element_pair(l, 1), lm, down_up_labels(l, lm), semidistributive_labelling(l),
            independence_complex(l), rowmotion_global(l, lm)]


def test_records_compare_hash_and_print_on_their_fields():
    records = _records()
    assert sorted(type(r).__name__ for r in records) == sorted(REPRS)
    for r in records:
        name = type(r).__name__
        assert repr(r) == REPRS[name]
        fields = tuple(getattr(r, f) for f in r._fields)
        copy = type(r)(*fields)
        assert copy == r and not copy != r and copy is not r, name
        assert r == fields and tuple(r) == fields, name
        # a record with one field changed is another record
        other = r._replace(**{r._fields[0]: None})
        assert other != r and type(other) is type(r), name
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(r)
        else:
            assert hash(copy) == hash(r) == hash(fields), name
            assert len({r, copy, other}) == 2, name


def test_records_are_immutable():
    for r in _records():
        with pytest.raises(AttributeError):
            setattr(r, r._fields[0], None)
        with pytest.raises(AttributeError):
            r.extra = 1


def test_chain_len_counts_elements():
    chain = maximal_length_chain(boolean(3))
    assert len(chain) == len(chain.elements) == 4 and chain.length == 3
    short = chain._replace(elements=(0, 1))
    assert type(short) is Chain and short == Chain((0, 1)) and len(short) == 2
    assert short.length == 1 and not Chain(())


def test_cover_labelling_keeps_the_callers_dict():
    """A caller who builds a CoverLabelling owns its dict; the library's
    labellings each get a dict of their own."""
    labels = {(0, 1): 1}
    assert CoverLabelling(labels).labels is labels
    l = boolean(2)
    assert left_modular_labelling(l).labels is not left_modular_labelling(l).labels
