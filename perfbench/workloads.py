"""The four workloads.

A workload draws its inputs from the seed and returns them as a list of
`Input`s.  Set-up then has two parts: `make` builds an input with trimlat,
and only that is timed as set-up; `task` wraps what `make` built in a
`Task`, computing the references and any other benchmark-side data outside
the set-up clock.  The draw (rejection sampling against brute-force
oracles) is untimed too.

A task's `run` makes the timed calls into trimlat through `ctx.lib` (or
runs the CLI through `ctx.cli`); its `check` compares the output with a
reference from `reference` and adds the work it did to the pass's counts.
A failed check raises `Mismatch`.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref
from reference import expect

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
SLOW_EXTENSIONS = 3


@dataclass
class Task:
    label: str
    elements: int
    run: Callable[[Any], Any]
    check: Callable[[Any, dict], None]


@dataclass
class Input:
    make: Callable[[], Any]
    task: Callable[[Any], Task]


def _fixed(task: Task) -> Input:
    """An input that needs nothing built in set-up."""
    return Input(lambda: None, lambda _: task)


def _spec_label(fam, params) -> str:
    return f"{fam}({','.join(map(str, params))})"


def _seeded_graphs(tl, rng, vertices, edges, lo, hi, count, keep=lambda g: True):
    """Seeded Galois graphs whose lattices have lo..hi elements (and pass
    `keep`), with their brute-force sizes.  The narrow size band keeps the
    work per pass nearly the same for every seed."""
    out = []
    while len(out) < count:
        g = tl.GaloisGraph(vertices, frozenset(ref.random_galois_edges(rng, vertices, edges)))
        n = ref.count_max_orth_pairs(vertices, g.edges)
        if lo <= n <= hi and keep(g):
            out.append((g, n))
    return out


# --- build -----------------------------------------------------------------

BUILD = {
    False: dict(families=[("tamari", (6,)), ("tamari", (7,)), ("boolean", (9,)),
                          ("weak_order_S", (5,)), ("weak_order_S", (6,)),
                          ("root_ideals", (6,)), ("chain_product", (5, 5)),
                          ("chain_product", (3, 3, 2)), ("rational_dyck", (5, 8))],
                posets=(12, 20, 85, 95, 7), graphs=(9, 7, 135, 150, 15)),
    True: dict(families=[("tamari", (4,)), ("boolean", (3,)), ("weak_order_S", (3,)),
                         ("root_ideals", (3,)), ("chain_product", (2, 2)),
                         ("chain_product", (2, 2, 2)), ("rational_dyck", (3, 4))],
               posets=(6, 5, 5, 30, 2), graphs=(5, 3, 5, 30, 2)),
}


def _build_task(label, make, n_expected, pairs=False) -> Task:
    def run(ctx):
        lat = make(ctx.lib)
        obj = ctx.lib.lattice_to_json(lat)
        return lat, obj, ctx.lib.lattice_from_json(obj)

    def check(out, counts):
        lat, obj, back = out
        n = lat.n
        expect(n == n_expected, f"{label}: {n} elements, expected {n_expected}")
        expect(back.n == n and back.covers == lat.covers
               and np.array_equal(back.meet, lat.meet)
               and np.array_equal(back.join, lat.join),
               f"{label}: JSON round trip changed the lattice")
        counts["lattice.table_cells"] += 2 * n * n
        counts["io.bytes"] += len(json.dumps(obj, sort_keys=True))
        if pairs:
            counts["galois.pairs"] += n

    return Task(label, n_expected, run, check)


def build(tl, seed, tiny):
    cfg = BUILD[tiny]
    rng = random.Random(seed)
    inputs = []
    for fam, params in cfg["families"]:
        inputs.append(_fixed(_build_task(
            _spec_label(fam, params),
            lambda lib, fam=fam, params=params: getattr(lib, fam)(*params),
            ref.FAMILY_SIZE[fam](*params))))
    size, rels, lo, hi, count = cfg["posets"]
    for i in range(count):
        while True:
            r = ref.random_poset_relations(rng, size, rels)
            n = ref.count_ideals(size, r)
            if lo <= n <= hi:
                break
        inputs.append(Input(
            lambda r=r: tl.poset_from_relations(size, r),
            lambda q, i=i, n=n: _build_task(f"ideals#{i}", lambda lib: lib.order_ideals(q), n)))
    v, e, lo, hi, count = cfg["graphs"]
    for i, (g, n) in enumerate(_seeded_graphs(tl, rng, v, e, lo, hi, count)):
        inputs.append(_fixed(_build_task(
            f"graph#{i}", lambda lib, g=g: lib.lattice_from_graph(g)[0], n, pairs=True)))
    return inputs


# --- trim_dynamics ----------------------------------------------------------

TRIM = {
    False: dict(families=[("tamari", (7,)), ("root_ideals", (6,)), ("boolean", (10,)),
                          ("chain_product", (5, 5)), ("rational_dyck", (5, 8))],
                graphs=(9, 7, 135, 150, 14)),
    True: dict(families=[("tamari", (4,)), ("root_ideals", (3,)), ("boolean", (3,)),
                         ("chain_product", (2, 2)), ("rational_dyck", (3, 4))],
               graphs=(5, 3, 5, 30, 2)),
}


def _trim_task(tl, label, lat, seed, order=None, graph=None) -> Task:
    """The pipeline on `lat`.  The slow-rowmotion extensions are drawn here,
    in set-up, from the label poset of the (deterministic) left-modular
    labelling that the timed run computes again."""
    n = lat.n
    rank = ref.lattice_length(lat)
    ncovers = len(lat.covers)
    rng = random.Random(f"{seed}/{label}")
    label_poset = tl.left_modular_labelling(lat).label_poset
    exts = [ref.random_linear_extension(rng, label_poset) for _ in range(SLOW_EXTENSIONS)]

    def run(ctx):
        lib = ctx.lib
        out = {"trim": lib.is_trim(lat)}
        idx = lib.index_irreducibles(lat)
        g = lib.galois_graph(lat, idx)
        gamma = lib.left_modular_labelling(lat)
        row = lib.rowmotion_global(lat, gamma)
        out["slow"] = [lib.rowmotion_slow(lat, gamma, e) for e in exts]
        out["complex"] = lib.independence_complex(lat)
        out["complement"] = lib.complement_check(lat)
        out["independent"] = lib.independent_sets(lib.undirected(g))
        out.update(idx=idx, g=g, gamma=gamma, row=row)
        return out

    def check(out, counts):
        expect(out["trim"], f"{label}: is_trim is false")
        expect(out["idx"].n == rank == len(lat.join_irr),
               f"{label}: {out['idx'].n} indexed irreducibles, length {rank}")
        if graph is not None:
            expect(out["g"] == graph, f"{label}: Galois graph differs from its source")
        labels = out["gamma"].labels
        expect(len(labels) == ncovers and set(labels.values()) == set(range(1, rank + 1)),
               f"{label}: labelling does not use labels 1..{rank} on every cover")
        if order is not None:
            expect(out["row"].order == order,
                   f"{label}: rowmotion order {out['row'].order}, expected {order}")
        expect(all(s == out["row"] for s in out["slow"]),
               f"{label}: slow rowmotion differs from global rowmotion")
        faces = len(out["complex"].faces)
        expect(faces == n, f"{label}: {faces} faces for {n} elements")
        expect(out["complement"], f"{label}: complement check failed")
        expect(len(out["independent"]) == n,
               f"{label}: {len(out['independent'])} independent sets for {n} elements")
        counts["labelling.covers"] += ncovers
        counts["rowmotion.flips"] += sum(len(e) for e in exts) * n
        counts["complexes.faces"] += faces

    return Task(label, n, run, check)


def trim_dynamics(tl, seed, tiny):
    cfg = TRIM[tiny]
    rng = random.Random(seed)
    inputs = []
    for fam, params in cfg["families"]:
        label = _spec_label(fam, params)
        order = ref.ROWMOTION_ORDER[fam](*params)
        inputs.append(Input(
            lambda fam=fam, params=params: getattr(tl, fam)(*params),
            lambda lat, label=label, order=order: _trim_task(tl, label, lat, seed, order=order)))
    for name, order in (("fig9_grid_tamari", None),
                        ("fig9_2cambrian", ref.ROWMOTION_ORDER["fig9_2cambrian"]())):
        inputs.append(Input(
            lambda name=name: tl.fixture_lattice(name),
            lambda lat, name=name, order=order: _trim_task(tl, name, lat, seed, order=order)))
    # graph lattices are extremal, so the semidistributive ones are trim
    v, e, lo, hi, count = cfg["graphs"]
    sd = lambda g: ref.is_semidistributive_ref(tl.lattice_from_graph(g)[0])
    for i, (g, n) in enumerate(_seeded_graphs(tl, rng, v, e, lo, hi, count, keep=sd)):
        inputs.append(Input(
            lambda g=g: tl.lattice_from_graph(g)[0],
            lambda lat, i=i, g=g: _trim_task(tl, f"graph#{i}", lat, seed, graph=g)))
    return inputs


# --- property_matrix --------------------------------------------------------

# The paper's lattice figures, all small, sit below the seeded lattices in
# time.  With 41 tasks the median falls on the middle seeded lattice and the
# 90th percentile on tamari(6), away from the seed-dependent times.
FIGURES = ("fig1", "fig2", "fig3_left", "fig3_right", "fig4", "fig7_left", "fig7_right", "fig8")
PROPERTY = {
    False: dict(families=[("weak_order_S", (5,)), ("tamari", (6,)), ("root_ideals", (5,)),
                          ("boolean", (7,)), ("boolean", (8,)), ("chain_product", (5, 5))],
                graphs=(8, 6, 70, 80, 24, 3)),
    True: dict(families=[("weak_order_S", (3,)), ("tamari", (3,)), ("tamari", (4,)),
                         ("boolean", (3,)), ("chain_product", (2, 2))],
               graphs=(5, 4, 5, 30, 1, 1)),
}


def _property_task(label, lat) -> Task:
    n = lat.n
    want = {"distributive": ref.is_distributive_ref(lat),
            "semidistributive": ref.is_semidistributive_ref(lat),
            "extremal": ref.is_extremal_ref(lat)}

    def run(ctx):
        lib = ctx.lib
        out = {}
        out["distributive"], out["dist_wit"] = lib.is_distributive(lat, witness=True)
        out["semidistributive"], out["sd_wit"] = lib.is_semidistributive(lat, witness=True)
        out["extremal"] = lib.is_extremal(lat)
        out["lm_chain"] = lib.is_left_modular_lattice(lat)
        out["trim"] = lib.is_trim(lat)
        out["trim_def"] = lib.is_trim_definitional(lat)
        if out["semidistributive"]:
            out["sdl"] = lib.semidistributive_labelling(lat)
        return out

    def check(out, counts):
        for key, value in want.items():
            expect(out[key] == value, f"{label}: {key} is {out[key]}, expected {value}")
        if not out["distributive"]:
            ref.check_distributive_witness(lat, out["dist_wit"])
        if not out["semidistributive"]:
            ref.check_semidistributive_witness(lat, out["sd_wit"])
        if out["lm_chain"] is not None:
            ref.check_left_modular_chain(lat, out["lm_chain"])
        expect(out["trim"] == out["trim_def"],
               f"{label}: is_trim {out['trim']} but definitional {out['trim_def']}")
        expect(out["trim"] == (out["extremal"] and out["lm_chain"] is not None),
               f"{label}: trim disagrees with extremal and left modular")
        if out["extremal"] and out["semidistributive"]:
            expect(out["trim"], f"{label}: extremal and semidistributive but not trim")
        if out["semidistributive"]:
            sdl = out["sdl"]
            expect(set(sdl.gamma_j) == set(lat.covers)
                   and set(sdl.kappa) == set(lat.join_irr)
                   and sorted(sdl.kappa.values()) == sorted(lat.meet_irr),
                   f"{label}: semidistributive labelling is incomplete")
            counts["labelling.covers"] += len(lat.covers)
        counts["lattice.triples"] += 2 * n ** 3
        counts["lattice.predicate_calls"] += 2
        counts["lattice.witness_exits"] += (not out["distributive"]) + (not out["semidistributive"])

    return Task(label, n, run, check)


def property_matrix(tl, seed, tiny):
    cfg = PROPERTY[tiny]
    rng = random.Random(seed)
    inputs = [Input(lambda fam=fam, params=params: getattr(tl, fam)(*params),
                    lambda lat, label=_spec_label(fam, params): _property_task(label, lat))
              for fam, params in cfg["families"]]
    inputs += [Input(lambda name=name: tl.fixture_lattice(name),
                     lambda lat, name=name: _property_task(name, lat))
               for name in FIGURES]
    # mostly lattices that fail semidistributivity, so witnesses exit early
    v, e, lo, hi, bad, good = cfg["graphs"]
    for want_sd, count in ((False, bad), (True, good)):
        keep = lambda g, w=want_sd: ref.is_semidistributive_ref(
            tl.lattice_from_graph(g)[0]) == w
        tag = "sd" if want_sd else "nonsd"
        for i, (g, n) in enumerate(_seeded_graphs(tl, rng, v, e, lo, hi, count, keep=keep)):
            inputs.append(Input(lambda g=g: tl.lattice_from_graph(g)[0],
                                lambda lat, label=f"graph-{tag}#{i}": _property_task(label, lat)))
    return inputs


# --- cli_pipeline -------------------------------------------------------------

CLI_FAMILIES = {
    False: [("tamari", "6"), ("root-ideals", "5"), ("boolean", "8"), ("weak-order", "5")],
    True: [("tamari", "3"), ("weak-order", "3")],
}
CLI_STAGES = (("check", "--all"), ("rowmotion", "--orbits"), ("galois", "--json"),
              ("complex",))
# two minimal elements: the CLI must reject it with a NotALattice witness
NOT_A_LATTICE = {"n": 4, "covers": [[0, 2], [0, 3], [1, 2], [1, 3]]}


def golden_key(argv, source) -> str:
    return " ".join(argv) + (f" < {source}" if source else "")


def cli_cases(tiny):
    """(argv, name of the family whose gen output is stdin, or None)."""
    cases = []
    for fam, param in CLI_FAMILIES[tiny]:
        cases.append((("gen", fam, param), None))
        source = f"{fam} {param}"
        cases += [((*stage, "-"), source) for stage in CLI_STAGES]
    cases.append((("check", "--all", "-"), "not-a-lattice"))
    return cases


def cli_stdin(source, piped: dict) -> bytes:
    """A command's stdin: nothing, the non-lattice, or the output of the
    `gen` command for family `source` in this pass."""
    if source is None:
        return b""
    if source == "not-a-lattice":
        return json.dumps(NOT_A_LATTICE).encode()
    return piped.get(source, b"")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_task(argv, source, golden, piped) -> Task:
    key = golden_key(argv, source)
    want = golden[key]

    def run(ctx):
        stdin = cli_stdin(source, piped)
        res = ctx.cli(argv, stdin)
        if argv[0] == "gen":
            piped[f"{argv[1]} {argv[2]}"] = res.stdout
        return stdin, res

    def check(out, counts):
        stdin, res = out
        expect(res.returncode == want["returncode"],
               f"{key}: exit code {res.returncode}, expected {want['returncode']}")
        expect(_digest(res.stdout) == want["stdout_sha256"], f"{key}: stdout differs from golden")
        expect(_digest(res.stderr) == want["stderr_sha256"],
               f"{key}: stderr differs from golden: {res.stderr[-200:]!r}")
        n = want["elements"]
        counts["cli.children"] += 1
        counts["cli.child_cpu_s"] += res.cpu_s
        counts["cli.child_wall_s"] += res.wall_s
        counts["lattice.table_cells"] += n * n
        counts["io.bytes"] += len(stdin)
        if source not in (None, "not-a-lattice"):
            counts["cli.revalidations"] += 1
        if argv[:2] == ("check", "--all"):
            counts["lattice.triples"] += 2 * n ** 3
            counts["lattice.predicate_calls"] += 2
        if argv[0] == "gen":
            counts["cli.pipelines"] += 1

    return Task(key, want["elements"], run, check)


def cli_pipeline(tl, seed, tiny):
    # the inputs are fixed; the seed only reaches the report
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    piped: dict[str, bytes] = {}
    return [_fixed(_cli_task(argv, source, golden, piped)) for argv, source in cli_cases(tiny)]


WORKLOADS = {
    "build": build,
    "trim_dynamics": trim_dynamics,
    "property_matrix": property_matrix,
    "cli_pipeline": cli_pipeline,
}
