"""Wire formats (JSON, DOT) and the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import trimlat
from trimlat import InputError, fixture, left_modular_labelling
from trimlat.io import (
    dot_galois,
    dot_hasse,
    galois_from_json,
    galois_to_json,
    labelled_from_json,
    labelled_to_json,
    lattice_from_json,
    lattice_to_json,
    poset_from_json,
    poset_to_json,
)


def test_poset_json_roundtrip_and_reduction():
    p = poset_from_json({"n": 3, "covers": [[0, 1], [1, 2], [0, 2]]})
    assert p.covers == ((0, 1), (1, 2))
    assert poset_to_json(p) == {"n": 3, "covers": [[0, 1], [1, 2]]}
    from trimlat import CycleDetected

    with pytest.raises(CycleDetected):
        poset_from_json({"n": 2, "covers": [[0, 1], [1, 0]]})
    with pytest.raises(InputError):
        poset_from_json({"covers": []})


def test_lattice_json_validates():
    with pytest.raises(Exception):
        lattice_from_json({"n": 3, "covers": [[0, 1], [0, 2]]})
    l = lattice_from_json(lattice_to_json(fixture("fig4")))
    assert l.covers == fixture("fig4").covers


def test_galois_json():
    g = galois_from_json({"n": 3, "edges": [[3, 1], [3, 2]]})
    assert g.edges == frozenset({(3, 1), (3, 2)})
    assert galois_to_json(g) == {"n": 3, "edges": [[3, 1], [3, 2]]}
    with pytest.raises(InputError):
        galois_from_json({"n": 3, "edges": [[1, 3]]})
    with pytest.raises(InputError):
        galois_from_json({"n": 2, "edges": [[1, 1]]})


def test_labelled_json_roundtrip():
    l = fixture("fig2")
    gamma = left_modular_labelling(l)
    obj = labelled_to_json(l, gamma)
    l2, labels2 = labelled_from_json(obj)
    assert l2.covers == l.covers and labels2 == gamma.labels


def test_dot_outputs():
    l = fixture("fig1")
    hasse = dot_hasse(l)
    assert "e0 -> e1;" in hasse and hasse.startswith("digraph")
    from trimlat import galois_graph

    gal = dot_galois(galois_graph(l))
    assert "v3 -> v1;" in gal


# the CLI children import the same trimlat as this test process
SRC = str(Path(trimlat.__file__).resolve().parent.parent)
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}


def run_cli(*argv, stdin: str | None = None):
    proc = subprocess.run(
        [sys.executable, "-m", "trimlat.cli", *argv],
        input=stdin, capture_output=True, text=True, env=CHILD_ENV)
    return proc.returncode, proc.stdout, proc.stderr


def gen(*argv) -> str:
    code, out, err = run_cli("gen", *argv)
    assert code == 0, err
    return out


def test_cli_gen_check_pipeline():
    lattice_json = gen("boolean", "0")
    code, out, _ = run_cli("check", "--all", "-", stdin=lattice_json)
    assert code == 0
    for line in ("distributive: true", "extremal: true", "left-modular: true",
                 "semidistributive: true", "trim: true"):
        assert line in out


def test_cli_check_fig7_witness():
    lattice_json = gen("fixture", "fig7_left")
    code, out, _ = run_cli("check", "--all", "-", stdin=lattice_json)
    assert code == 0
    assert "trim: false" in out
    assert "{1,2} ∩ {3,4} = ∅" in out


def test_cli_rowmotion_root_ideals():
    lattice_json = gen("root-ideals", "2")
    code, out, _ = run_cli("rowmotion", "--orbits", "-", stdin=lattice_json)
    assert code == 0
    assert out.splitlines()[0] == "cycle_type=[3,2] order=6"
    code, out, _ = run_cli("--json", "rowmotion", "-", stdin=lattice_json)
    assert code == 0
    assert json.loads(out) == {"cycle_type": [3, 2], "order": 6}


def test_cli_rowmotion_semidistributive_input():
    lattice_json = gen("weak-order", "3")
    code, out, _ = run_cli("rowmotion", "--order", "-", stdin=lattice_json)
    assert code == 0 and out.strip() == "order=4"


def test_cli_trace():
    lattice_json = gen("fixture", "fig1")
    code, out, _ = run_cli("rowmotion", "--trace", "--element", "1", "--ext", "1,2,3", "-",
                           stdin=lattice_json)
    assert code == 0
    assert out.splitlines()[0].startswith("start:")
    assert out.splitlines()[-1] == "end: {1}" or "end:" in out.splitlines()[-1]


def test_cli_galois_and_complex_and_export():
    lattice_json = gen("fixture", "fig4")
    code, out, _ = run_cli("--json", "galois", "-", stdin=lattice_json)
    assert code == 0
    assert json.loads(out)["n"] == 6 and len(json.loads(out)["edges"]) == 9
    code, out, _ = run_cli("--json", "complex", "-", stdin=lattice_json)
    payload = json.loads(out)
    assert code == 0 and payload["flag"] and payload["complement_partition"]
    assert payload["independent_sets"] == payload["elements"] == 14
    code, out, _ = run_cli("export", "--dot", "galois", "-", stdin=lattice_json)
    assert code == 0 and "v6 -> v4;" in out


def test_cli_weak_order_3_is_not_trim():
    lattice_json = gen("weak-order", "3")
    code, out, _ = run_cli("check", "--all", "-", stdin=lattice_json)
    assert code == 0 and out.splitlines()[-1] == "trim: false  (not extremal)"
    code, out, err = run_cli("complex", "-", stdin=lattice_json)
    assert (code, out, err) == (2, "", "error: the independence complex needs a trim lattice\n")


def test_cli_verify_figures():
    code, out, _ = run_cli("verify-figures")
    assert code == 0
    assert out.count("PASS") == 7 and "7/7" in out


def test_cli_byte_stability():
    outs = {gen("tamari", "4") for _ in range(3)}
    assert len(outs) == 1
    lattice_json = outs.pop()
    runs = set()
    for _ in range(2):
        code, out, _ = run_cli("--json", "check", "--all", "-", stdin=lattice_json)
        assert code == 0
        runs.add(out)
    assert len(runs) == 1


def test_cli_error_codes():
    code, _, err = run_cli("check", "-", stdin="{not json")
    assert code == 2 and "error:" in err
    code, _, err = run_cli("check", "/nonexistent/file.json")
    assert code == 2
    code, _, err = run_cli("--max-elements", "100", "gen", "boolean", "10")
    assert code == 3
    code, _, err = run_cli("gen", "rational-dyck", "2", "4")
    assert code == 2


def test_cli_json_input_honours_max_elements():
    chain12 = json.dumps({"n": 12, "covers": [[i, i + 1] for i in range(11)]})
    code, out, err = run_cli("--max-elements", "10", "check", "-", stdin=chain12)
    assert code == 3 and out == "" and "12 > 10" in err
    code, _, _ = run_cli("check", "-", "--max-elements", "12", stdin=chain12)
    assert code == 0


def test_lattice_json_cap_before_building():
    from trimlat import SizeLimitExceeded

    # a billion elements would take minutes and gigabytes to build
    with pytest.raises(SizeLimitExceeded):
        lattice_from_json({"n": 10 ** 9, "covers": []})
    with pytest.raises(SizeLimitExceeded):
        lattice_from_json({"n": 12, "covers": []}, max_elements=10)
    assert lattice_from_json({"n": 1, "covers": []}, max_elements=1).n == 1


def test_cli_gen_from_files(tmp_path):
    poset_file = tmp_path / "poset.json"
    poset_file.write_text('{"n": 3, "covers": [[0, 2], [1, 2]]}')
    out = gen("order-ideals", str(poset_file))
    assert json.loads(out)["n"] == 5
    graph_file = tmp_path / "graph.json"
    graph_file.write_text('{"n": 3, "edges": [[3, 1], [3, 2]]}')
    out = gen("galois-file", str(graph_file))
    assert json.loads(out)["n"] == 5


def _never(*args, **kwargs):
    raise AssertionError("the size cap should refuse before building")


def test_cli_order_ideals_file_honours_max_elements(tmp_path, monkeypatch, capsys):
    from trimlat import cli, io

    poset_file = tmp_path / "poset.json"
    poset_file.write_text('{"n": 50, "covers": []}')
    # J(P) has at least n + 1 ideals: refused before the poset is built
    monkeypatch.setattr(io, "poset_from_json", _never)
    assert cli.main(["--max-elements", "10", "gen", "order-ideals", str(poset_file)]) == 3
    assert "51 > 10" in capsys.readouterr().err
    monkeypatch.undo()
    small = tmp_path / "small.json"
    small.write_text('{"n": 3, "covers": [[0, 2], [1, 2]]}')
    assert cli.main(["gen", "order-ideals", str(small), "--max-elements", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 5


def test_cli_weak_order_honours_max_elements(monkeypatch, capsys):
    from trimlat import cli, generators

    monkeypatch.setattr(generators, "permutations", _never)
    monkeypatch.setattr(generators, "lattice_from_poset", _never)
    assert cli.main(["gen", "weak-order", "5", "--max-elements", "100"]) == 3
    assert "120 > 100" in capsys.readouterr().err
    monkeypatch.undo()
    assert cli.main(["gen", "weak-order", "5", "--max-elements", "120"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 120


def test_star_import_binds_no_modules():
    import trimlat

    namespace: dict = {}
    exec("from trimlat import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(trimlat.__all__)
    assert not [k for k, v in namespace.items() if isinstance(v, ModuleType)]


def test_cli_export_hasse_and_indep():
    lattice_json = gen("fixture", "fig4")
    code, out, _ = run_cli("export", "--dot", "hasse", "-", stdin=lattice_json)
    assert code == 0 and "e0 -> e1;" in out
    code, out, _ = run_cli("export", "--dot", "indep", "-", stdin=lattice_json)
    assert code == 0 and "v5 -- v6;" in out


def test_cli_flags_after_verb():
    lattice_json = gen("tamari", "4")
    code, out, _ = run_cli("complex", "--json", "-", stdin=lattice_json)
    assert code == 0 and json.loads(out)["elements"] == 14
    code, out, _ = run_cli("rowmotion", "-", "--json", stdin=lattice_json)
    assert code == 0 and "order" in json.loads(out)
    code, _, _ = run_cli("gen", "boolean", "10", "--max-elements", "50")
    assert code == 3


def test_cli_export_canonical_join_graph():
    lattice_json = gen("fixture", "fig8")
    code, out, _ = run_cli("export", "--dot", "cjg", "-", stdin=lattice_json)
    assert code == 0 and "v1 -- v4;" in out
    # not semidistributive: structured error, exit 2
    code, _, err = run_cli("export", "--dot", "cjg", "-",
                           stdin=gen("fixture", "fig3_left"))
    assert code == 2


def test_cli_complex_and_rowmotion_index_once(tmp_path, monkeypatch, capsys):
    from trimlat import cli, complexes, galois

    calls = {"index": 0, "complex": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    index = counted("index", galois.index_irreducibles)
    label_complex = counted("complex", complexes._label_complex)
    for name, module in list(sys.modules.items()):
        for attr, fn in (("index_irreducibles", index), ("_label_complex", label_complex)):
            if name.startswith("trimlat.") and hasattr(module, attr):
                monkeypatch.setattr(module, attr, fn)
    path = tmp_path / "fig4.json"
    path.write_text(json.dumps(lattice_to_json(fixture("fig4"))))
    for argv, want in ((["complex", str(path)], {"index": 1, "complex": 1}),
                       (["rowmotion", "--orbits", str(path)], {"index": 1, "complex": 0})):
        calls.update(index=0, complex=0)
        assert cli.main(argv) == 0, capsys.readouterr().err
        assert calls == want, argv
