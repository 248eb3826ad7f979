"""The property predicates' irreducible tests against the scans they
replaced (the oracles in conftest): kappa, distributive and
semidistributive verdicts and witnesses (also against the witness
searches that fibres and cover key differences replaced), left-modular
element sets, one element at a time too, and chains, and
semidistributive labellings with their dict order and error arguments;
past the sweeps on larger families, cubes and thin lattices, and the
left-modular test's one union per distinct cover key."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from trimlat import (
    GaloisGraph,
    NotALattice,
    NotSemidistributive,
    boolean,
    chain_product,
    is_distributive,
    is_extremal,
    is_left_modular_element,
    is_left_modular_lattice,
    is_semidistributive,
    is_trim,
    is_trim_definitional,
    lattice_from_graph,
    lattice_from_poset,
    poset_from_relations,
    semidistributive_labelling,
    tamari,
    weak_order_S,
)
from trimlat import lattice
from trimlat.lattice import _kappas, _left_modular_test
from conftest import (
    left_modular_elements,
    oracle_distributive_witness,
    oracle_kappas,
    oracle_is_distributive,
    oracle_is_semidistributive,
    oracle_left_modular_chain,
    oracle_left_modular_elements,
    oracle_semidistributive_labelling,
    oracle_semidistributive_witness,
    path_copy_chain,
)
from test_lazy_tables import _thin_families


def _labelling_outcome(fn, l):
    """The three dicts as item lists (so order counts), or the error."""
    try:
        got = fn(l)
    except NotSemidistributive as exc:
        return "error", exc.cover, exc.side, exc.witnesses, exc.args
    if not isinstance(got, tuple):
        got = (got.gamma_j, got.gamma_m, got.kappa)
    return tuple(list(d.items()) for d in got)


def _check_witnesses(label, l) -> None:
    """The fibre and cover-key-difference witnesses against the searches
    they replaced, where the law fails, and each element's own
    left-modular test against the whole mask."""
    if not is_distributive(l):
        assert lattice._distributive_witness(l) == oracle_distributive_witness(l), label
    if not is_semidistributive(l):
        assert lattice._semidistributive_witness(l) == oracle_semidistributive_witness(l), label
    lm = left_modular_elements(l)
    assert tuple(x for x in range(l.n) if is_left_modular_element(l, x)) == lm, label


def _check_against_oracles(label, l) -> tuple[bool, bool]:
    dist = oracle_is_distributive(l)
    assert is_distributive(l, witness=True) == dist, label
    assert is_distributive(l) == dist[0], label
    semi = oracle_is_semidistributive(l)
    assert is_semidistributive(l, witness=True) == semi, label
    assert is_semidistributive(l) == semi[0], label
    _check_witnesses(label, l)
    lm = oracle_left_modular_elements(l)
    assert left_modular_elements(l) == lm, label
    assert is_left_modular_lattice(l) == oracle_left_modular_chain(l), label
    labelling = _labelling_outcome(semidistributive_labelling, l)
    assert labelling == _labelling_outcome(oracle_semidistributive_labelling, l), label
    assert (labelling[0] == "error") == (not semi[0]), label
    return dist[0], semi[0]


def _on_cube(k: int, top):
    """The subsets of {0, ..., k-1}, each numbered by its bitmask, with a
    five-element lattice put on the full set t = 2**k - 1: ``top`` holds
    its covers (a, b) for the elements t + a < t + b."""
    n = 1 << k
    covers = [(a, a | 1 << i) for a in range(n) for i in range(k) if not a >> i & 1]
    covers += [(n - 1 + a, n - 1 + b) for a, b in top]
    return lattice_from_poset(poset_from_relations(n + 4, covers))


def _m3_on_cube(k: int):
    """M3 put on the cube: semidistributivity first fails at x = 2**k, the
    first atom of M3, after every element of the cube."""
    return _on_cube(k, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def _n5_on_cube(k: int):
    """N5 put on the cube: t < t + 1 < t + 2 < t + 4 and t < t + 3 < t + 4."""
    return _on_cube(k, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])


def test_late_semidistributive_witness():
    for k in range(9):
        l = _m3_on_cube(k)
        x = 1 << k
        assert is_semidistributive(l, witness=True) == (False, ("join", x, x + 1, x + 2)), k
        _check_against_oracles(f"M3 on boolean({k})", l)


def test_late_distributive_witness():
    """N5 put on the cube: distributivity first fails at x = 2**k + 1,
    the middle of N5's long side, after every element of the cube."""
    for k in range(9):
        l = _n5_on_cube(k)
        x = 1 << k
        assert is_distributive(l, witness=True) == (False, (x + 1, x, x + 2)), k
        _check_against_oracles(f"N5 on boolean({k})", l)


def test_meet_side_semidistributive_witness():
    # bounded(poset16) of the n <= 5 sweep: both laws hold at x = 0 and 1,
    # and at x = 2 the join law holds and the meet law fails
    l = lattice_from_poset(poset_from_relations(
        6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)]))
    assert is_semidistributive(l, witness=True) == (False, ("meet", 2, 3, 4))
    _check_against_oracles("bounded(poset16)", l)


def test_left_modular_past_the_sweeps():
    """The keyed left-modular test on lattices past the n <= 5 sweeps: a
    trim, a non-extremal and a distributive family, and M3 and N5 put on
    cubes, where one cover key pair stands for many covers."""
    lattices = [("tamari(7)", tamari(7)), ("weak_order_S(6)", weak_order_S(6)),
                ("boolean(9)", boolean(9))]
    lattices += [(f"{name} on boolean({k})", on_cube(k)) for k in range(7)
                 for name, on_cube in (("M3", _m3_on_cube), ("N5", _n5_on_cube))]
    for label, l in lattices:
        assert left_modular_elements(l) == oracle_left_modular_elements(l), label
        assert is_left_modular_lattice(l) == oracle_left_modular_chain(l), label


def test_gamma_past_the_sweeps():
    for l in (tamari(7), boolean(9)):
        got = _labelling_outcome(semidistributive_labelling, l)
        assert got == _labelling_outcome(oracle_semidistributive_labelling, l), l


def test_one_join_union_per_distinct_key(monkeypatch):
    """At a cover of a distributive lattice J(z) minus J(y) is one
    join-irreducible, so the test builds one union of up masks per
    join-irreducible, not one per cover: boolean(k) builds k, and the 252
    ideals of the 5 x 5 grid build 25.  (boolean(1) has only its bottom
    and top, both left modular, so it builds none.)"""
    unions = []
    key_union = lattice._key_union

    def counted(masks, key):
        unions.append((masks, key))
        return key_union(masks, key)

    monkeypatch.setattr(lattice, "_key_union", counted)
    for l, want in [(boolean(k), k) for k in range(2, 9)] + [(chain_product(5, 5), 25)]:
        unions.clear()
        _left_modular_test(l)
        ups = [l.up_mask(j) for j in lattice._irr_keys(l)[0]]
        assert sum(masks == ups for masks, _ in unions) == want, l
        assert len({(id(masks), key) for masks, key in unions}) == len(unions), l


def test_chain_search_matches_path_copies(property_lattices, monkeypatch):
    """The search keeps one path list: it gives the chain of the search
    that copies its path into every state, inside the same left-modular
    set, on every property lattice and every thin family (chains of up to
    300 elements among them).  No search on these lattices backtracks on
    its way to a chain, so seeded sets with the bottom and the top then
    stand in for the left-modular set, on which it does."""
    thin = [(f"thin family {i}", lattice_from_poset(p)) for i, p in enumerate(_thin_families())]
    for label, l in property_lattices + thin:
        assert is_left_modular_lattice(l) == path_copy_chain(l, left_modular_elements(l)), label
    rng = random.Random(33)
    mask = [0]
    monkeypatch.setattr(lattice, "_left_modular_test", lambda l: mask[0])
    for label, l in property_lattices + thin:
        for _ in range(3):
            mask[0] = 1 << l.bottom | 1 << l.top | rng.getrandbits(l.n)
            members = [x for x in range(l.n) if mask[0] >> x & 1]
            assert is_left_modular_lattice(l) == path_copy_chain(l, members), label


def test_one_key_pass_for_the_property_matrix(monkeypatch):
    """check --all runs one J- and M-key pass, the kept one
    (lattice._irr_keys), which kappa, the witnesses and the left-modular
    test all read; an extremal lattice adds only the irreducible
    indexing's chain-ordered pass.  Neither the left-modular predicates
    nor is_trim_definitional run another.  Lattices are built before the
    count starts, as lattice_from_poset runs a J-key pass of its own."""
    from trimlat import cli, galois

    m3 = lattice_from_poset(poset_from_relations(
        5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]))
    n5 = lattice_from_poset(poset_from_relations(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]))
    lattices = [("weak_order_S(4)", weak_order_S(4), 1), ("M3", m3, 1),
                ("tamari(4)", tamari(4), 2), ("N5", n5, 2)]
    calls = []
    pair_keys = lattice._pair_keys

    def counted(l, js, ms):
        calls.append(l)
        return pair_keys(l, js, ms)

    monkeypatch.setattr(lattice, "_pair_keys", counted)
    monkeypatch.setattr(galois, "_pair_keys", counted)
    for label, l, want in lattices:
        calls.clear()
        cli._property_matrix(l)
        assert len(calls) == want, label
        is_left_modular_lattice(l)
        is_left_modular_element(l, l.top)
        is_trim_definitional(l)
        assert len(calls) == want, label
        assert all(c is l for c in calls), label


def _kappa_items(kappa):
    return kappa if kappa is None else list(kappa.items())


def test_kappas_match_oracle(property_lattices):
    verdicts = []
    for label, l in property_lattices:
        kappa = _kappas(l)
        assert _kappa_items(kappa) == _kappa_items(oracle_kappas(l)), label
        verdicts.append(kappa is None)
    # both verdicts on many inputs
    assert sum(verdicts) > 350 and verdicts.count(False) > 1500


def test_thin_families_match_oracles():
    """Chains, M_k up to k = 40, 2 x k grids, chain_product(1, k) and
    binary trees of both orientations up to 128 elements, where kappa's
    sets and the semidistributive witnesses are long: M_k has k - 1
    maximal members in up(0) minus up(a).  The cubic oracles run up to 128
    elements; past that only chains are left, and only kappa and the
    per-element left-modular test are compared."""
    for i, p in enumerate(_thin_families()):
        l = lattice_from_poset(p)
        label = f"thin family {i} on {l.n}"
        assert _kappa_items(_kappas(l)) == _kappa_items(oracle_kappas(l)), label
        if l.n <= 128:
            _check_against_oracles(label, l)
        else:
            _check_witnesses(label, l)


def test_property_paths_match_oracles(property_lattices):
    assert len(property_lattices) > 1890
    verdicts = [_check_against_oracles(label, l) for label, l in property_lattices]
    # both branches of each test ran on many inputs
    assert sum(not d for d, _ in verdicts) > 1000
    assert sum(not s for _, s in verdicts) > 350
    assert sum(s for _, s in verdicts) > 1500


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(6, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_seeded_graph_lattices(n, seed):
    """Galois graphs on 6-8 vertices, past the exhaustive sweeps, with a
    seeded edge density; extremal and semidistributive implies trim."""
    rng = random.Random(seed)
    density = rng.random()
    edges = frozenset((i, k) for i in range(1, n + 1) for k in range(1, i)
                      if rng.random() < density)
    l = lattice_from_graph(GaloisGraph(n, edges))[0]
    _, semi = _check_against_oracles(f"graph {sorted(edges)} on {n}", l)
    if is_extremal(l) and semi:
        assert is_trim(l)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(n=st.integers(6, 9), seed=st.integers(0, 2 ** 32 - 1))
def test_seeded_bounded_lattices(n, seed):
    """Bounded posets on 6-9 elements: a bottom and a top put around a
    seeded poset on n - 2 elements, in a seeded labelling, drawn again until
    it is a lattice.  Most are not extremal, so the left-modular chain
    search runs beyond the n <= 5 sweeps."""
    rng = random.Random(seed)
    while True:
        density = rng.random()
        relations = [(a + 1, b + 1) for a in range(n - 2) for b in range(a + 1, n - 2)
                     if rng.random() < density]
        relations += [(0, a) for a in range(1, n - 1)] + [(a, n - 1) for a in range(1, n - 1)]
        perm = rng.sample(range(n), n)
        try:
            l = lattice_from_poset(poset_from_relations(n, [(perm[a], perm[b])
                                                            for a, b in relations]))
        except NotALattice:
            continue
        _check_against_oracles(f"bounded {sorted(relations)} on {n} as {perm}", l)
        return
