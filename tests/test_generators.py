"""The example families and shipped fixtures."""

from __future__ import annotations

import re
from math import comb, gcd

import pytest

from trimlat import (
    FamilySpec,
    GaloisGraph,
    InputError,
    SizeLimitExceeded,
    boolean,
    build_family,
    chain_product,
    fixture,
    fixture_lattice,
    ideal_rowmotion,
    is_distributive,
    is_extremal,
    is_semidistributive,
    is_trim,
    left_modular_labelling,
    length,
    rational_dyck,
    rational_dyck_poset,
    root_ideals,
    root_poset_A,
    rowmotion_global,
    tamari,
    weak_order_S,
)
from trimlat import generators
from trimlat.generators import fixture_manifest
from trimlat.poset import DEFAULT_MAX_ELEMENTS, ideal_masks
from conftest import oracle_rational_dyck_poset, oracle_trees


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def test_boolean():
    assert boolean(0).n == 1
    b2 = boolean(2)
    assert b2.n == 4 and is_distributive(b2)
    assert boolean(3).n == 8
    with pytest.raises(SizeLimitExceeded):
        boolean(20, max_elements=1000)


def test_chain_product():
    assert chain_product(1, 1).n == 2
    l = chain_product(2, 2)
    assert l.n == comb(4, 2) == 6 and is_distributive(l)
    assert chain_product(2, 3).n == comb(5, 2)
    assert chain_product(2, 2, 2).n == 20  # plane partitions in a cube


def test_root_poset_A():
    assert root_poset_A(2).covers == ((0, 2), (1, 2))
    assert root_poset_A(1).n == 1
    assert root_ideals(3).n == catalan(4) == 14
    assert root_ideals(2).covers == fixture("fig1").covers


def test_tamari():
    assert tamari(1).n == 1
    t2 = tamari(2)
    assert t2.n == 2
    t3 = tamari(3)
    assert t3.n == catalan(3) == 5
    assert not is_distributive(t3) and is_trim(t3)
    t4 = tamari(4)
    assert t4.n == 14 and is_trim(t4) and is_semidistributive(t4) and is_extremal(t4)
    assert length(t4) == 6
    assert tamari(5).n == 42
    # rowmotion on the Tamari lattice of 4-leaf trees has the order of the
    # Kreweras complement in rank 3 (twice the Coxeter number 4)
    row = rowmotion_global(t4, left_modular_labelling(t4))
    assert row.order == 8


def test_trees_match_the_recursive_numbering():
    # the Tamari lattice numbers its elements in this order
    for n in range(10):
        assert generators._trees(n) == list(oracle_trees(n)), n
    assert len(generators._trees(9)) == catalan(9)


def test_tamari_refused_before_its_trees(monkeypatch):
    """The cap is checked against Catalan(n) before any tree is built."""
    def no_trees(n):
        raise AssertionError("trees enumerated before the cap was checked")

    monkeypatch.setattr(generators, "_trees", no_trees)
    for make, count, cap in ((lambda: tamari(16), catalan(16), DEFAULT_MAX_ELEMENTS),
                             (lambda: tamari(5, max_elements=41), 42, 41),
                             (lambda: build_family(FamilySpec("tamari", (12,))),
                              catalan(12), DEFAULT_MAX_ELEMENTS)):
        with pytest.raises(SizeLimitExceeded) as exc:
            make()
        assert (exc.value.count, exc.value.cap, exc.value.what) == (count, cap, "Tamari lattice")


def test_rational_dyck_poset_shapes():
    # (a, a+1) gives the type-A staircase
    assert rational_dyck_poset(3, 4).covers == root_poset_A(2).covers
    assert rational_dyck_poset(1, 5).n == 0
    assert rational_dyck(1, 5).n == 1
    with pytest.raises(ValueError):
        rational_dyck_poset(2, 4)


def test_rational_dyck_poset_matches_pairwise_relations():
    """The two neighbour steps generate the order that every comparable
    pair of boxes gives, on all coprime pairs up to 15."""
    swept = 0
    for a in range(1, 16):
        for b in range(1, 16):
            if gcd(a, b) == 1:
                got, want = rational_dyck_poset(a, b), oracle_rational_dyck_poset(a, b)
                assert got.covers == want.covers, (a, b)
                assert [got.up_mask(x) for x in range(got.n)] == \
                    [want.up_mask(x) for x in range(want.n)], (a, b)
                swept += 1
    assert swept == 143


def test_rational_dyck_counts():
    for a, b in ((2, 3), (3, 4), (3, 5), (4, 5), (5, 6)):
        l = rational_dyck(a, b)
        assert l.n == comb(a + b, a) // (a + b)
        assert is_distributive(l)
    assert rational_dyck(3, 4).covers == fixture("fig1").covers


def test_weak_order():
    assert weak_order_S(2).n == 2
    s3 = weak_order_S(3)
    assert s3.covers == fixture("fig3_right").covers
    assert is_semidistributive(s3) and not is_extremal(s3)
    s4 = weak_order_S(4)
    assert s4.n == 24 and is_semidistributive(s4)
    with pytest.raises(SizeLimitExceeded):
        weak_order_S(8)


def test_fixture_loading():
    names = sorted(fixture_manifest())
    assert set(names) == {"fig1", "fig2", "fig3_left", "fig3_right", "fig4",
                          "fig7_left", "fig7_right", "fig8",
                          "fig9_grid_tamari", "fig9_2cambrian"}
    for name in names:
        obj = fixture(name)
        lat = fixture_lattice(name)
        if isinstance(obj, GaloisGraph):
            assert lat.n > obj.n
    with pytest.raises(InputError):
        fixture("fig99")


def test_family_dispatch():
    assert build_family(FamilySpec("boolean", (2,))).n == 4
    assert build_family(FamilySpec("chain-product", (2, 2))).n == 6
    assert build_family(FamilySpec("root-ideals", (2,))).n == 5
    assert build_family(FamilySpec("tamari", (3,))).n == 5
    assert build_family(FamilySpec("rational-dyck", (3, 4))).n == 5
    assert build_family(FamilySpec("weak-order", (3,))).n == 6
    assert build_family(FamilySpec("fixture", ("fig8",))).n == 6
    with pytest.raises(InputError):
        build_family(FamilySpec("nonsense", (1,)))
    with pytest.raises(InputError):
        build_family(FamilySpec("boolean", (1, 2, 3)))


def test_generated_distributive_lattices_are_trim_and_semidistributive():
    for l in (boolean(3), chain_product(2, 3), root_ideals(3),
              rational_dyck(3, 5)):
        assert is_distributive(l) and is_trim(l) and is_semidistributive(l)


def test_boolean_ideal_orbit_maxima():
    """Rowmotion on order ideals of the Boolean lattices: maximum orbit
    sizes 3, 4, 5, 6, 27 for ranks 1..5."""
    want = {1: 3, 2: 4, 3: 5, 4: 6, 5: 27}
    for n, m in want.items():
        q = boolean(n).poset
        perm = ideal_rowmotion(q, ideal_masks(q))
        assert max(perm.cycle_type) == m


def test_weak_order_s6_max_orbit():
    from trimlat import rowmotion_global, semidistributive_labelling

    l = weak_order_S(6)
    sdl = semidistributive_labelling(l)
    row = rowmotion_global(l, sdl.gamma_j)
    assert max(row.cycle_type) == 128


def test_fixture_dir_override(tmp_path, monkeypatch):
    import json
    import shutil
    from importlib import resources

    src = resources.files("trimlat") / "fixtures"
    for entry in src.iterdir():
        shutil.copy(str(entry), tmp_path / entry.name)
    # tweak the copied fig1 so the override is observable
    obj = json.loads((tmp_path / "fig1.json").read_text())
    obj["covers"] = [[0, 1], [1, 2]]
    obj["n"] = 3
    (tmp_path / "fig1.json").write_text(json.dumps(obj))
    monkeypatch.setenv("TRIMLAT_FIXTURES", str(tmp_path))
    assert fixture("fig1").n == 3


def test_fixture_dir_override_errors(tmp_path, monkeypatch):
    """A missing or malformed override file is an input error naming the
    file, not a traceback."""
    missing = tmp_path / "missing"
    monkeypatch.setenv("TRIMLAT_FIXTURES", str(missing))
    with pytest.raises(InputError, match=re.escape(str(missing / "manifest.json"))):
        fixture("fig1")
    (tmp_path / "manifest.json").write_text("{not json")
    monkeypatch.setenv("TRIMLAT_FIXTURES", str(tmp_path))
    with pytest.raises(InputError, match=re.escape(str(tmp_path / "manifest.json"))):
        fixture("fig1")


@pytest.mark.parametrize("manifest", ['{"fig1": {"kind": "lattice"}}',
                                      '{"fig1": {"file": "fig1.json"}}',
                                      '["fig1"]'])
def test_fixture_manifest_errors(tmp_path, monkeypatch, capsys, manifest):
    """A manifest that is not an object, or an entry without its file or
    kind, is an input error (exit 2) naming the manifest and the entry."""
    from trimlat import cli

    (tmp_path / "manifest.json").write_text(manifest)
    monkeypatch.setenv("TRIMLAT_FIXTURES", str(tmp_path))
    assert cli.main(["gen", "fixture", "fig1"]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "manifest.json") in err
    if manifest.startswith("{"):
        assert "'fig1'" in err
