"""Posets, ideals, antichains, linear extensions."""

from __future__ import annotations

import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from trimlat import (
    CycleDetected,
    Poset,
    SizeLimitExceeded,
    antichains,
    ideal_masks,
    linear_extensions,
    order_ideals,
    poset_from_relations,
)
from trimlat.generators import (
    antichain_poset,
    product_of_chains_poset,
    rational_dyck_poset,
    root_poset_A,
)
from trimlat.poset import ideal_poset
from conftest import oracle_canonical_extension, oracle_ideal_poset, oracle_poset_from_relations

V_POSET = poset_from_relations(3, [(0, 2), (1, 2)])


def test_from_relations_v_poset():
    assert V_POSET.covers == ((0, 2), (1, 2))
    assert V_POSET.leq(0, 2) and V_POSET.leq(1, 2)
    assert not V_POSET.leq(0, 1) and not V_POSET.leq(2, 0)


def test_from_relations_singleton():
    p = poset_from_relations(1, [])
    assert p.n == 1 and p.covers == ()


def test_from_relations_chain_reduction():
    p = poset_from_relations(3, [(0, 1), (1, 2), (0, 2)])
    assert p.covers == ((0, 1), (1, 2))


def test_from_relations_cycle():
    with pytest.raises(CycleDetected):
        poset_from_relations(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(CycleDetected):
        poset_from_relations(2, [(0, 0)])
    # 0 lies above the cycle 1 <-> 2, with no successor to walk to
    with pytest.raises(CycleDetected) as exc:
        poset_from_relations(3, [(1, 0), (1, 2), (2, 1)])
    assert (exc.value.a, exc.value.b) == (1, 2)


def test_reduction_closure_roundtrip(small_posets):
    # rebuilding from the full set of strict relations recovers the covers
    for q in small_posets:
        rels = [(a, b) for a in range(q.n) for b in range(q.n) if q.lt(a, b)]
        assert poset_from_relations(q.n, rels).covers == q.covers


def _build_outcome(build, n, relations):
    """Covers, up and down masks, or the CycleDetected arguments."""
    try:
        p = build(n, relations)
    except CycleDetected as exc:
        return "cycle", exc.a, exc.b, exc.args
    except StopIteration:
        # the oracle's walk from the least leftover element dead-ends when
        # that element only lies above a cycle
        return "stuck", None, None, None
    return (p.covers, [p.up_mask(x) for x in range(n)],
            [p.down_mask(x) for x in range(n)],
            [p.upper_covers(x) for x in range(n)], [p.lower_covers(x) for x in range(n)])


def _assert_same_build(n, relations):
    got = _build_outcome(poset_from_relations, n, relations)
    want = _build_outcome(oracle_poset_from_relations, n, relations)
    if want[0] == "stuck":
        # then an edge b -> a with a path from a back to b
        _, a, b, _ = got
        succ = {}
        for u, w in relations:
            succ.setdefault(u, set()).add(w)
        reach, todo = {a}, [a]
        while todo:
            for w in succ.get(todo.pop(), set()) - reach:
                reach.add(w)
                todo.append(w)
        assert (b, a) in relations and b in reach, (n, relations)
    else:
        assert got == want, (n, relations)
    return got[0] == "cycle"


def test_from_relations_matches_oracle(small_posets, graph_lattices):
    # every sweep poset and every sweep lattice's order, given as its
    # covers, as its full closure, and relabelled with the relations
    # shuffled, repeated and padded with implied pairs
    rng = random.Random(8)
    orders = list(small_posets) + [l.poset for _, l in graph_lattices]
    for q in orders:
        n = q.n
        closure = [(a, b) for a in range(n) for b in range(n) if q.lt(a, b)]
        assert not _assert_same_build(n, list(q.covers))
        assert not _assert_same_build(n, closure)
        perm = list(range(n))
        rng.shuffle(perm)
        rels = list(q.covers) + rng.sample(closure, len(closure) // 2) + list(q.covers[:2])
        rng.shuffle(rels)
        assert not _assert_same_build(n, [(perm[a], perm[b]) for a, b in rels])


def test_from_relations_cycles_match_oracle(small_posets):
    # one relation reversed against the order, or a loop, in every sweep
    # poset: the same CycleDetected arguments as the oracle
    rng = random.Random(9)
    cycles = 0
    for q in small_posets:
        n = q.n
        closure = [(a, b) for a in range(n) for b in range(n) if q.lt(a, b)]
        for a, b in closure[:3] + closure[-2:]:
            rels = list(q.covers) + [(b, a)]
            rng.shuffle(rels)
            cycles += _assert_same_build(n, rels)
        x = rng.randrange(n)
        cycles += _assert_same_build(n, list(q.covers) + [(x, x)])
    assert cycles > 1000


@settings(derandomize=True, max_examples=300, deadline=None)
@given(n=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1))
def test_from_relations_random_dags(n, seed):
    """Random relations along a random linear order on <= 9 elements, with
    repeats, and the same relations with one pair reversed."""
    rng = random.Random(seed)
    line = list(range(n))
    rng.shuffle(line)
    pairs = [(line[i], line[j]) for i in range(n) for j in range(i + 1, n)]
    density = rng.random()
    rels = [e for e in pairs if rng.random() < density]
    rels += rng.choices(rels, k=len(rels) // 3) if rels else []
    rng.shuffle(rels)
    assert not _assert_same_build(n, rels)
    if rels:
        a, b = rng.choice(rels)
        assert _assert_same_build(n, rels + [(b, a)])


@pytest.mark.parametrize("seed", range(6))
def test_from_relations_wide_masks(seed):
    """Seeded DAGs on 100-400 elements, so every mask spans several machine
    words: each element gets 1-3 successors among the next few, many or all
    positions of a random linear order.  The relations are shuffled,
    repeated and padded with implied pairs, then one is reversed.  The
    public constructor, given the builder's covers shuffled, keeps the same
    cover pairs and cover tuples."""
    rng = random.Random(seed)
    n = rng.randrange(100, 401)
    span = rng.choice((5, 40, n))
    line = list(range(n))
    rng.shuffle(line)
    rels = [(line[i], line[j]) for i in range(n - 1)
            for j in rng.sample(range(i + 1, min(n, i + 1 + span)),
                                min(n - 1 - i, span, rng.randrange(1, 4)))]
    p = poset_from_relations(n, rels)
    implied = [(a, b) for a in range(n) for b in range(n) if p.lt(a, b)]
    rels += rng.sample(implied, len(implied) // 10) + rng.choices(rels, k=len(rels) // 3)
    rng.shuffle(rels)
    assert not _assert_same_build(n, rels)
    a, b = rng.choice(rels)
    assert _assert_same_build(n, rels + [(b, a)])
    covers = list(p.covers)
    rng.shuffle(covers)
    q = Poset(n, covers, [p.up_mask(x) for x in range(n)], [p.down_mask(x) for x in range(n)])
    assert (q.covers, q._upper, q._lower, q._up, q._down) == (
        p.covers, p._upper, p._lower, p._up, p._down)


def test_order_ideals_antichain_is_boolean():
    l = order_ideals(poset_from_relations(2, []))
    assert l.n == 4
    assert len(l.poset.covers) == 4


def test_order_ideals_fig1_poset():
    l = order_ideals(V_POSET)
    assert l.n == 5
    # masks sorted by (size, value): {}, {0}, {1}, {0,1}, {0,1,2}
    assert ideal_masks(V_POSET) == (0, 1, 2, 3, 7)


def test_order_ideals_chain():
    chain = poset_from_relations(3, [(0, 1), (1, 2)])
    l = order_ideals(chain)
    assert l.n == 4
    assert l.poset.covers == ((0, 1), (1, 2), (2, 3))


def test_order_ideals_size_cap():
    with pytest.raises(SizeLimitExceeded):
        order_ideals(poset_from_relations(6, []), max_elements=10)


def test_ideal_walk_visits_only_addable_elements(monkeypatch):
    """Past the cap, the [20]^3 walk refuses after visiting the addable
    elements of 2000 ideals, a few thousand bits; a scan of every element
    outside each ideal would visit about nine million."""
    import trimlat.poset

    q = product_of_chains_poset(20, 20, 20)
    bits, visited = trimlat.poset._bits, []

    def counting_bits(mask):
        for x in bits(mask):
            visited.append(x)
            yield x

    monkeypatch.setattr(trimlat.poset, "_bits", counting_bits)
    with pytest.raises(SizeLimitExceeded) as exc:
        ideal_poset(q, 2000)
    assert (exc.value.count, exc.value.cap) == (2001, 2000)
    assert len(visited) <= 20_000


def _assert_same_ideal_poset(q):
    """The walk's cover-built order equals pairwise containment: masks,
    covers, up and down masks, and the SizeLimitExceeded arguments at a cap
    of half, all but one and all of the ideals."""
    masks, got = ideal_poset(q)
    want_masks, want = oracle_ideal_poset(q)
    assert masks == want_masks == ideal_masks(q)
    assert got.covers == want.covers
    for x in range(got.n):
        assert got.up_mask(x) == want.up_mask(x) and got.down_mask(x) == want.down_mask(x)
        assert got.upper_covers(x) == want.upper_covers(x)
        assert got.lower_covers(x) == want.lower_covers(x)
    n = len(masks)
    for cap in (n // 2, n - 1, n):
        outcomes = []
        for build in (ideal_poset, oracle_ideal_poset):
            try:
                outcomes.append(build(q, cap)[0])
            except SizeLimitExceeded as exc:
                outcomes.append((exc.count, exc.cap, exc.what))
        assert outcomes[0] == outcomes[1], cap
        assert (outcomes[0] == masks) == (cap == n), cap


def test_ideal_poset_matches_oracle(small_posets):
    for q in small_posets:
        _assert_same_ideal_poset(q)


@pytest.mark.parametrize("q", [
    antichain_poset(9), antichain_poset(10), root_poset_A(6),
    product_of_chains_poset(5, 5), product_of_chains_poset(3, 3, 2),
    rational_dyck_poset(5, 8),
], ids=["boolean9", "boolean10", "root_ideals6", "chain_product5x5",
        "chain_product3x3x2", "rational_dyck5x8"])
def test_ideal_poset_families_match_oracle(q):
    _assert_same_ideal_poset(q)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(n=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1))
def test_ideal_poset_random_natural_posets(n, seed):
    """Naturally labelled posets (a < b only when a < b as integers) on
    <= 9 elements, of random density."""
    rng = random.Random(seed)
    density = rng.random()
    rels = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < density]
    _assert_same_ideal_poset(poset_from_relations(n, rels))


def test_linear_extensions_antichain2():
    q = poset_from_relations(2, [])
    assert linear_extensions(q, 10) == [(0, 1), (1, 0)]


def test_linear_extensions_chain():
    q = poset_from_relations(3, [(0, 1), (1, 2)])
    assert linear_extensions(q, 10) == [(0, 1, 2)]


def test_linear_extensions_fig1_poset():
    # oracle: filter all 3! total orders by the order relation
    want = [p for p in permutations(range(3))
            if all(not V_POSET.lt(p[j], p[i])
                   for i in range(3) for j in range(i + 1, 3))]
    got = linear_extensions(V_POSET, 10)
    assert sorted(got) == sorted(want)
    assert len(got) == 2


def test_linear_extensions_limit_and_canonical():
    q = poset_from_relations(4, [])
    exts = linear_extensions(q, 3)
    assert len(exts) == 3
    assert exts[0] == oracle_canonical_extension(q) == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        linear_extensions(q, 0)


def _recursive_extensions(q: Poset, limit: int) -> list[tuple[int, ...]]:
    """The recursive enumeration that the explicit stack replaced."""
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def rec(remaining: int):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for x in range(q.n):
            if remaining >> x & 1 and q.down_mask(x) & remaining == 1 << x:
                prefix.append(x)
                rec(remaining ^ (1 << x))
                prefix.pop()
                if len(out) >= limit:
                    return

    rec((1 << q.n) - 1)
    return out


def test_linear_extensions_match_recursion(small_posets):
    for q in [poset_from_relations(0, []), *small_posets]:
        for limit in (1, 2, 7, 200):
            assert linear_extensions(q, limit) == _recursive_extensions(q, limit), q


def test_linear_extensions_past_the_recursion_limit():
    n = 1200
    chain = poset_from_relations(n, [(i, i + 1) for i in range(n - 1)])
    assert linear_extensions(chain, 1) == linear_extensions(chain, 2) == [tuple(range(n))]
    assert linear_extensions(antichain_poset(n), 2) == [
        tuple(range(n)), (*range(n - 2), n - 1, n - 2)]


def test_extensions_refine_order(small_posets):
    for q in small_posets:
        for ext in linear_extensions(q, 30):
            pos = {x: i for i, x in enumerate(ext)}
            assert all(pos[a] < pos[b]
                       for a in range(q.n) for b in range(q.n) if q.lt(a, b))
        assert oracle_canonical_extension(q) == linear_extensions(q, 1)[0]


def test_antichains_fig1_poset():
    # oracle: brute force over all 2^3 subsets
    subsets = [frozenset(s) for k in range(4)
               for s in __import__("itertools").combinations(range(3), k)]
    want = {s for s in subsets
            if not any(V_POSET.lt(a, b) or V_POSET.lt(b, a)
                       for a in s for b in s)}
    got = antichains(V_POSET)
    assert set(got) == want
    assert len(got) == 5


def test_antichains_chain_and_antichain():
    chain = poset_from_relations(3, [(0, 1), (1, 2)])
    assert len(antichains(chain)) == 4
    for k in (1, 2, 3, 4):
        assert len(antichains(poset_from_relations(k, []))) == 2 ** k


def test_ideals_equal_antichains(small_posets):
    for q in small_posets:
        assert len(ideal_masks(q)) == len(antichains(q))


