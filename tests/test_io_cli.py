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
from trimlat import InputError, SizeLimitExceeded, fixture
from trimlat.io import (
    dot_galois,
    dot_hasse,
    galois_from_json,
    galois_to_json,
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
    # JSON booleans are not integers, though Python's bool is an int
    for bad in ({"n": True, "covers": []}, {"n": 2, "covers": [[False, True]]},
                {"n": 2, "covers": [[0, True]]}):
        with pytest.raises(InputError):
            poset_from_json(bad)
    with pytest.raises(InputError):
        lattice_from_json({"n": True, "covers": []})


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
    for bad in ({"n": 2, "edges": [[2, True]]}, {"n": True, "edges": []}):
        with pytest.raises(InputError):
            galois_from_json(bad)
    # a mask per label: a graph whose lattice would pass the cap is refused
    # before any is allocated
    with pytest.raises(SizeLimitExceeded, match=r"\(1000000000000001 > 100000\)"):
        galois_from_json({"n": 10**15, "edges": []})
    assert galois_from_json({"n": 5, "edges": []}, max_elements=6).n == 5


FIG1_DOT = {
    "hasse": """digraph hasse {
  rankdir=BT;
  e0 [label="0"];
  e1 [label="1"];
  e2 [label="2"];
  e3 [label="3"];
  e4 [label="4"];
  e0 -> e1;
  e0 -> e2;
  e1 -> e3;
  e2 -> e3;
  e3 -> e4;
}
""",
    "galois": """digraph galois {
  v1 [label="1"];
  v2 [label="2"];
  v3 [label="3"];
  v3 -> v1;
  v3 -> v2;
}
""",
    "indep": """graph independence {
  v1 [label="1"];
  v2 [label="2"];
  v3 [label="3"];
  v1 -- v2;
}
""",
    "cjg": """graph canonical_join {
  v1 [label="1"];
  v2 [label="2"];
  v3 [label="3"];
  v1 -- v2;
}
""",
}


def test_dot_outputs():
    """The full DOT text of fig1, in process and through every export."""
    from trimlat import galois_graph

    l = fixture("fig1")
    assert dot_hasse(l) == FIG1_DOT["hasse"]
    assert dot_galois(galois_graph(l)) == FIG1_DOT["galois"]
    lattice_json = gen("fixture", "fig1")
    for kind, want in FIG1_DOT.items():
        code, out, err = run_cli("export", "--dot", kind, "-", stdin=lattice_json)
        assert (code, out) == (0, want), err


# the CLI children import the same trimlat as this test process
SRC = str(Path(trimlat.__file__).resolve().parent.parent)
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}


def run_cli(*argv, stdin: str | None = None, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "trimlat.cli", *argv],
        input=stdin, capture_output=True, text=True, env=CHILD_ENV, cwd=cwd)
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


def test_cli_trace_of_the_one_element_lattice():
    # a lattice of length 0 has no labels, so its one extension is empty
    one = '{"n": 1, "covers": []}'
    code, out, err = run_cli("rowmotion", "--trace", "--element", "0", "--ext", "", "-",
                             stdin=one)
    assert (code, out, err) == (0, "start: 0\nend: 0\n", "")
    code, out, _ = run_cli("--json", "rowmotion", "--trace", "--element", "0", "--ext", "", "-",
                           stdin=one)
    assert code == 0 and json.loads(out) == {"start": 0, "steps": []}
    code, _, err = run_cli("rowmotion", "--trace", "--element", "0", "--ext", "", "-",
                           stdin=gen("boolean", "1"))
    assert code == 2 and "not a permutation of the labels" in err


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


def test_cli_galois_streams_the_sorted_edges(tmp_path, capsys):
    """The edges are written one label at a time, byte for byte as the
    sorted edge list renders, with "edges: " kept when there are none."""
    from trimlat import boolean, cli, galois_graph, tamari

    chains = [(f"chain{n}", {"n": n, "covers": [[i, i + 1] for i in range(n - 1)]})
              for n in (1, 2, 3, 4, 40)]
    lattices = [(name, lattice_to_json(fixture(name))) for name in
                ("fig1", "fig2", "fig3_left", "fig4", "fig7_left", "fig8")]
    lattices += [("boolean3", lattice_to_json(boolean(3))),
                 ("tamari4", lattice_to_json(tamari(4)))]
    for name, obj in chains + lattices:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        g = galois_graph(lattice_from_json(obj))
        assert cli.main(["galois", "--json", str(path)]) == 0, name
        assert capsys.readouterr().out == json.dumps(galois_to_json(g), sort_keys=True) + "\n"
        assert cli.main(["galois", str(path)]) == 0, name
        edges = capsys.readouterr().out.splitlines()[1]
        assert edges == "edges: " + " ".join(f"{i}->{k}" for i, k in g.sorted_edges()), name
        if name in ("chain1", "chain2", "chain40"):  # length 0 and 1: no edges
            assert (edges == "edges: ") == (name != "chain40"), name


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
    code, _, err = run_cli("check", "-", stdin='{"n": true, "covers": []}')
    assert code == 2 and "error: bad or missing 'n'" in err and "Traceback" not in err


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


def test_cli_gen_params_by_family(tmp_path):
    """The integer families refuse any other parameter; a path family reads
    a path even when it looks like an integer (never a file descriptor)."""
    for argv in (("boolean", "2", "junk"), ("chain-product", "2", "x"), ("tamari", "4.0")):
        code, out, err = run_cli("gen", *argv)
        assert code == 2 and out == "" and "bad parameters" in err, argv
    (tmp_path / "0").write_text('{"n": 3, "covers": [[0, 2], [1, 2]]}')
    (tmp_path / "7").write_text('{"n": 3, "edges": [[3, 1], [3, 2]]}')
    for argv in (("order-ideals", "0"), ("galois-file", "7")):
        code, out, err = run_cli("gen", *argv, stdin="", cwd=tmp_path)
        assert code == 0, err
        assert json.loads(out)["n"] == 5


def test_cli_order_ideals_refuses_a_boolean_count():
    """A JSON boolean is no element count, so the cap check before the
    poset is built skips it, and the poset loader names it."""
    code, out, err = run_cli("--max-elements", "1", "gen", "order-ideals", "-",
                             stdin='{"n": true, "covers": []}')
    assert (code, out, err) == (2, "", "error: bad or missing 'n'\n")


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


# |P| from the parameters
IDEAL_FAMILIES = [
    pytest.param("chain_product", ("chain-product", 400, 400), 160000, id="chain-product"),
    pytest.param("root_ideals", ("root-ideals", 1000), 500500, id="root-ideals"),
    pytest.param("rational_dyck", ("rational-dyck", 999, 1000), 498501, id="rational-dyck")]


@pytest.mark.parametrize("function, argv, size", IDEAL_FAMILIES)
def test_cli_ideal_families_honour_max_elements(function, argv, size, monkeypatch, capsys):
    from trimlat import SizeLimitExceeded, cli, generators

    # J(P) has at least |P| + 1 ideals: refused before P is built
    monkeypatch.setattr(generators, "poset_from_relations", _never)
    assert cli.main(["--max-elements", "10", "gen", *map(str, argv)]) == 3
    assert f"({size + 1} > 10)" in capsys.readouterr().err
    with pytest.raises(SizeLimitExceeded) as exc:
        getattr(generators, function)(*argv[1:], max_elements=size)
    assert (exc.value.count, exc.value.cap) == (size + 1, size)


def test_cli_ideal_families_refused_by_their_count(monkeypatch, capsys):
    from math import comb

    from trimlat import SizeLimitExceeded, cli, generators

    # past the |P| + 1 check, the number of ideals refuses before any is walked
    monkeypatch.setattr(generators, "ideal_poset", _never)
    monkeypatch.setattr(generators, "order_ideals", _never)
    for argv, count in ((("chain-product", 20, 20), 137846528820),
                        (("root-ideals", 30), comb(62, 31) // 32),
                        (("rational-dyck", 29, 31), comb(60, 29) // 60)):
        assert cli.main(["gen", *map(str, argv)]) == 3
        assert f"({count} > 100000)" in capsys.readouterr().err, argv
    # past 64 bits the count is named in closed form, uncomputed
    monkeypatch.setattr(generators, "comb", _never)
    assert cli.main(["gen", "chain-product", "100", "100"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.encode()) < 200
    assert captured.err.count("\n") == 1 and "(C(200,100) > 100000)" in captured.err
    monkeypatch.undo()
    with pytest.raises(SizeLimitExceeded) as exc:
        generators.chain_product(3, 3, max_elements=19)
    assert (exc.value.count, exc.value.cap) == (20, 19)
    assert generators.chain_product(3, 3, max_elements=20).n == 20


@pytest.mark.parametrize("params", [("boolean", "20000"), ("tamari", "10000"),
                                    ("tamari", "5000"), ("weak-order", "3000")], ids=" ".join)
def test_cli_huge_counts_refused_in_one_short_line(params, monkeypatch, capsys):
    from trimlat import cli, generators

    # decided on the parameter: neither count is computed
    monkeypatch.setattr(generators, "comb", _never)
    monkeypatch.setattr(generators, "factorial", _never)
    assert cli.main(["gen", *params]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.encode()) < 200
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_small_counts_refused_exactly(capsys):
    """A count that fits in 64 bits is refused as an int, whatever the cap;
    the weak order's cap is on n, so n is its count."""
    from math import comb

    from trimlat import SizeLimitExceeded, cli, generators

    for make, count in ((lambda: generators.boolean(20, max_elements=1000), 2 ** 20),
                        (lambda: generators.boolean(63, max_elements=10), 2 ** 63),
                        (lambda: generators.tamari(32, max_elements=10), comb(64, 32) // 33),
                        (lambda: generators.weak_order_S(15), 15)):
        with pytest.raises(SizeLimitExceeded) as exc:
            make()
        assert exc.value.count == count
    for make, count in ((lambda: generators.boolean(64, max_elements=10), "2^64"),
                        (lambda: generators.tamari(33, max_elements=10), "Catalan(33)"),
                        (lambda: generators.weak_order_S(16), 16)):
        with pytest.raises(SizeLimitExceeded) as exc:
            make()
        assert exc.value.count == count
    assert cli.main(["--max-elements", "10", "gen", "boolean", "4"]) == 3
    assert "(16 > 10)" in capsys.readouterr().err


def test_cli_weak_order_honours_max_elements(monkeypatch, capsys):
    from trimlat import cli, generators, lattice

    monkeypatch.setattr(generators, "permutations", _never)
    monkeypatch.setattr(lattice, "lattice_from_poset", _never)
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
    # not semidistributive: the labelling's error, naming a cover, exit 2
    code, _, err = run_cli("export", "--dot", "cjg", "-",
                           stdin=gen("fixture", "fig3_left"))
    assert code == 2
    assert "cover (0, 4): no unique maximal-meet witness among [2, 3]" in err


def test_cli_complex_and_rowmotion_index_once(tmp_path, monkeypatch, capsys):
    from trimlat import cli, complexes, galois

    calls = {"index": 0, "complex": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # builds, not calls: the default indexing is kept on the lattice
    index = counted("index", galois.IrreducibleIndexing)
    label_complex = counted("complex", complexes._label_complex)
    for name, module in list(sys.modules.items()):
        for attr, fn in (("IrreducibleIndexing", index), ("_label_complex", label_complex)):
            if name.startswith("trimlat.") and hasattr(module, attr):
                monkeypatch.setattr(module, attr, fn)
    path = tmp_path / "fig4.json"
    path.write_text(json.dumps(lattice_to_json(fixture("fig4"))))
    for argv, want in ((["complex", str(path)], {"index": 1, "complex": 1}),
                       (["rowmotion", "--orbits", str(path)], {"index": 1, "complex": 0})):
        calls.update(index=0, complex=0)
        assert cli.main(argv) == 0, capsys.readouterr().err
        assert calls == want, argv


def test_cli_check_runs_one_longest_path_pass(tmp_path, monkeypatch, capsys):
    from trimlat import cli, lattice, tamari, weak_order_S

    calls = []
    longest_paths = lattice._longest_paths

    def counted(*args):
        calls.append(args)
        return longest_paths(*args)

    monkeypatch.setattr(lattice, "_longest_paths", counted)
    # tamari(5) is trim; weak order on S_4 is not extremal
    for name, lat in (("tamari5", tamari(5)), ("weak4", weak_order_S(4))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(lattice_to_json(lat)))
        for flags in ([], ["--json"], ["--all"], ["--all", "--json"]):
            calls.clear()
            assert cli.main(["check", *flags, str(path)]) == 0, capsys.readouterr().err
            assert len(calls) == 1, (name, flags)
    capsys.readouterr()


def test_property_matrix_columns_match_predicates(property_lattices):
    from trimlat import (Lattice, boolean, is_distributive, is_left_modular_lattice,
                         is_semidistributive, root_ideals, tamari, weak_order_S)
    from trimlat.cli import _property_matrix

    for label, l in property_lattices:
        m = _property_matrix(l)
        assert m["left_modular"] == (is_left_modular_lattice(l) is not None), label
        assert m["distributive"] == is_distributive(l), label
        assert m["semidistributive"] == is_semidistributive(l), label
    # no column and no witness reads the tables, semidistributive or not
    families = [(f"{f.__name__}({k})", f(k)) for f, k in
                ((boolean, 5), (root_ideals, 4), (tamari, 5), (weak_order_S, 4))]
    for label, shared in [*property_lattices, *families]:
        l = Lattice(shared.poset, shared.bottom, shared.top)
        m = _property_matrix(l)
        assert m == _property_matrix(shared), label
        assert m["distributive"] == is_distributive(shared), label
        assert l._meet is None and l._join is None, label


# gen for each family that needs no tables, run as `python -m trimlat.cli`
# does; stderr names numpy or trimlat.lattice if the run loaded them
GEN_CHILD = """
import runpy, sys
sys.argv = ["trimlat", "gen", *sys.argv[1:]]
try:
    runpy.run_module("trimlat.cli", run_name="__main__", alter_sys=True)
finally:
    print(*(m for m in ("numpy", "trimlat.lattice") if m in sys.modules), file=sys.stderr)
"""

INTEGER_FAMILIES = (("boolean", (5,)), ("chain-product", (3, 2, 2)), ("root-ideals", (4,)),
                    ("tamari", (5,)), ("rational-dyck", (3, 5)), ("weak-order", (4,)))


@pytest.mark.parametrize("family, params", INTEGER_FAMILIES)
def test_gen_loads_no_numpy(family, params):
    from trimlat import FamilySpec, build_family

    proc = subprocess.run([sys.executable, "-c", GEN_CHILD, family, *map(str, params)],
                          capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0 and proc.stderr.strip() == "", proc.stderr
    want = json.dumps(lattice_to_json(build_family(FamilySpec(family, params))), sort_keys=True)
    assert proc.stdout == want + "\n"


# a verb run as `python -m trimlat.cli` runs it; the last line of stderr
# says whether the run loaded numpy
CLI_CHILD = """
import runpy, sys
sys.argv = ["trimlat", *sys.argv[1:]]
try:
    runpy.run_module("trimlat.cli", run_name="__main__", alter_sys=True)
finally:
    print("numpy" in sys.modules, file=sys.stderr)
"""


def _cli_child(*argv, stdin: str):
    proc = subprocess.run([sys.executable, "-c", CLI_CHILD, *argv], input=stdin,
                          capture_output=True, text=True, env=CHILD_ENV)
    *err, numpy = proc.stderr.splitlines()
    return proc.returncode, proc.stdout, "\n".join(err), numpy == "True"


# M3, the smallest lattice that is not semidistributive
M3 = json.dumps({"n": 5, "covers": [[0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 4]]})


TABLE_FREE_VERBS = [pytest.param(argv, ("tamari", "4"), id=" ".join(argv)) for argv in (
    ("galois", "--json"), ("complex",), ("rowmotion", "--orbits"), ("check",),
    ("export", "--dot", "hasse"))]
# the property matrix reads no tables, distributive or not, extremal or not,
# and a semidistributive lattice that is not trim gets its labels on masks
TABLE_FREE_VERBS += [
    pytest.param(("check", "--all"), ("boolean", "4"), id="check --all boolean 4"),
    pytest.param(("check", "--all"), ("tamari", "4"), id="check --all tamari 4"),
    pytest.param(("check", "--all"), ("weak-order", "4"), id="check --all weak-order 4"),
    pytest.param(("rowmotion", "--orbits"), ("weak-order", "4"), id="rowmotion --orbits weak-order 4")]


@pytest.mark.parametrize("argv, family", TABLE_FREE_VERBS)
def test_table_free_verbs_load_no_numpy(argv, family):
    lattice_json = gen(*family)
    code, out, err, numpy = _cli_child(*argv, "-", stdin=lattice_json)
    assert code == 0 and not numpy, err
    assert (code, out) == run_cli(*argv, "-", stdin=lattice_json)[:2]


def test_not_a_lattice_rejection_loads_no_numpy():
    diamond = json.dumps({"n": 4, "covers": [[0, 2], [0, 3], [1, 2], [1, 3]]})
    code, out, err, numpy = _cli_child("check", "--all", "-", stdin=diamond)
    assert (code, out, numpy) == (2, "", False)
    assert err == "error: elements 0 and 1 have no unique meet"
    # the property matrix names its witnesses on masks
    code, out, err, numpy = _cli_child("check", "--all", "-", stdin=gen("tamari", "4"))
    assert code == 0 and "trim: true" in out.splitlines() and not numpy, err
    code, out, err, numpy = _cli_child("check", "--all", "-", stdin=M3)
    assert code == 0 and not numpy, err
    assert "semidistributive: false  (join cancellation fails at x=1, y=2, z=3)" in out.splitlines()
    assert (code, out) == run_cli("check", "--all", "-", stdin=M3)[:2]


# the graph lattices are ordered, and the figures replayed, on masks
FIG9 = Path(SRC) / "trimlat" / "fixtures" / "fig9_2cambrian.json"
GRAPH_VERBS = [pytest.param(("verify-figures",), id="verify-figures"),
               pytest.param(("gen", "fixture", "fig9_grid_tamari"), id="gen fixture"),
               pytest.param(("gen", "galois-file", str(FIG9)), id="gen galois-file")]


@pytest.mark.parametrize("argv", GRAPH_VERBS)
def test_graph_verbs_load_no_numpy(argv):
    from conftest import oracle_lattice_from_graph

    code, out, err, numpy = _cli_child(*argv, stdin="")
    assert code == 0 and not numpy, err
    if argv[0] == "verify-figures":
        assert out.count("PASS") == 7 and "7/7" in out
    else:
        want = lattice_to_json(oracle_lattice_from_graph(fixture(Path(argv[-1]).stem)))
        assert out == json.dumps(want, sort_keys=True) + "\n"


# a run as `python -m trimlat.cli`; the last line of stderr names the
# modules of SLOW_IMPORTS that the run loaded
SLOW_IMPORTS = ("dataclasses", "inspect")
IMPORT_CHILD = """
import runpy, sys
sys.argv = ["trimlat", *sys.argv[1:]]
try:
    runpy.run_module("trimlat.cli", run_name="__main__", alter_sys=True)
finally:
    print(*(m for m in %r if m in sys.modules), file=sys.stderr)
""" % (SLOW_IMPORTS,)

EVERY_VERB = [pytest.param(*p.values, id=p.id) for p in TABLE_FREE_VERBS]
EVERY_VERB += [pytest.param(argv, ("tamari", "4"), id=" ".join(argv)) for argv in (
    ("galois",), ("export", "--dot", "galois"), ("export", "--dot", "indep"),
    ("export", "--dot", "cjg"))]
EVERY_VERB += [pytest.param(*p.values, None, id=p.id) for p in GRAPH_VERBS]
EVERY_VERB += [pytest.param(("gen", family, *map(str, params)), None, id=f"gen {family}")
               for family, params in INTEGER_FAMILIES]


@pytest.mark.parametrize("argv, family", EVERY_VERB)
def test_every_verb_loads_no_dataclasses_or_inspect(argv, family):
    """The records are named tuples: no verb pays for importing
    dataclasses, which loads inspect, ast, dis and tokenize."""
    stdin = gen(*family) if family else ""
    args = [*argv, "-"] if family else argv
    proc = subprocess.run([sys.executable, "-c", IMPORT_CHILD, *args], input=stdin,
                          capture_output=True, text=True, env=CHILD_ENV)
    *err, loaded = proc.stderr.splitlines()
    assert proc.returncode == 0 and proc.stdout, proc.stderr
    assert loaded == "", f"{' '.join(argv)} loads {loaded}"


def test_json_paths_are_strings(tmp_path):
    from trimlat.io import load_json_path

    # an int path would be a file descriptor, which reading closes: the
    # child below tries 0, its stdin
    for path in (None, 1.5, b"-", tmp_path):
        with pytest.raises(InputError, match="must be a string"):
            load_json_path(path)
    code = ("import json, sys\n"
            "from trimlat import FamilySpec, InputError, build_family\n"
            "for family in ('order-ideals', 'galois-file'):\n"
            "    try:\n"
            "        build_family(FamilySpec(family, (0,)))\n"
            "    except InputError as exc:\n"
            "        print(exc)\n"
            "print(json.load(sys.stdin)['n'])\n")
    proc = subprocess.run([sys.executable, "-c", code], input='{"n": 1, "covers": []}',
                          capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3 and all("must be a string" in line for line in lines[:2])
    assert lines[2] == "1"


def test_import_loads_no_submodule():
    # reading every name loads every exporting submodule, and still no
    # numpy: only the functions that read tables import it
    code = ("import sys, trimlat; "
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('trimlat'))); "
            "[getattr(trimlat, name) for name in trimlat.__all__]; "
            "print(len(trimlat.__all__), 'numpy' in sys.modules); "
            "print(*sorted(m for m in sys.modules if m.startswith('trimlat.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    first, second, loaded = proc.stdout.splitlines()
    assert [first, second] == ["['trimlat']", f"{len(trimlat.__all__)} False"]
    assert {f"trimlat.{mod}" for mod in trimlat._EXPORTS} <= set(loaded.split())
    assert set(trimlat.__all__) <= set(dir(trimlat))
    with pytest.raises(AttributeError):
        trimlat.no_such_name
