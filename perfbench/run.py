#!/usr/bin/env python3
"""trimlat benchmark: one closed-loop client in one process, no threads.

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0

Imports trimlat from `src/` of the checkout this file sits in, builds the
workload's inputs from the seed, then runs passes over the task list until
`--seconds` have passed (and at least MIN_PASSES passes ran), checking every
output.  It prints each metric with its unit and sample count and, as the
last line, one JSON object with the keys correct, attempted, failed and
metrics.  `--trace 0` reports the end-to-end metrics from untraced passes;
`--trace 1` alternates untraced and traced passes and reports the per-layer
metrics.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from tracing import COUNTS, LAYERS, PUBLIC, Tracer, per_layer_names
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 6
MIN_PASSES = 4
STARTUP_REPEATS = 3
CHILD_TIMEOUT_S = 120
MAX_LOGGED_FAILURES = 20
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("elements_per_s", "1/s"),
              ("task_p50_ms", "ms"), ("task_p90_ms", "ms"), ("peak_rss_mb", "MB"))


def make_lib(tracer: Tracer | None = None) -> SimpleNamespace:
    """The public functions the workloads call, wrapped in spans when a
    tracer is given."""
    ns = {}
    for mod, names in PUBLIC.items():
        module = importlib.import_module(f"trimlat.{mod}")
        for name in names:
            fn = getattr(module, name)
            ns[name] = tracer.wrap(mod, name, fn) if tracer else fn
    return SimpleNamespace(**ns)


def run_child(argv, stdin: bytes, env) -> SimpleNamespace:
    """Run one CLI process to completion; CPU time comes from the rusage of
    reaped children, which grows only by this child."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], input=stdin, capture_output=True,
                          env=env, timeout=CHILD_TIMEOUT_S, check=False)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return SimpleNamespace(returncode=proc.returncode, stdout=proc.stdout,
                           stderr=proc.stderr, wall_s=wall, cpu_s=cpu)


class Context:
    """What a task's `run` sees: the library and a CLI runner, traced or not."""

    def __init__(self, lib, tracer: Tracer | None, env):
        self.lib = lib
        self.tracer = tracer
        self.env = env

    def span(self, name: str, module: str, task: str | None = None):
        return self.tracer.span(name, module, task) if self.tracer else nullcontext()

    def cli(self, argv, stdin: bytes):
        with self.span(f"cli.{argv[0]}", "cli"):
            return run_child(["-m", "trimlat.cli", *argv], stdin, self.env)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def fail(self, label: str, detail: str) -> None:
        self.failed += 1
        if len(self.messages) < MAX_LOGGED_FAILURES:
            self.messages.append(f"FAIL {label}: {detail}")


@dataclass
class Pass:
    wall: float
    times: list
    labels: list
    elements: int
    counts: Counter


def run_pass(tasks, ctx: Context, tally: Tally) -> Pass:
    """One closed-loop pass: each task starts when the previous one ended.
    Only the task's calls are timed; its check runs after the clock stops."""
    times = []
    labels = []
    elements = 0
    counts: Counter = Counter()
    for task in tasks:
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            with ctx.span("task", "bench", task.label):
                out = task.run(ctx)
        except Exception:  # an unexpected raise fails the task, not the run
            tally.fail(task.label, traceback.format_exc(limit=3).strip())
            continue
        times.append(time.perf_counter() - t0)
        labels.append(task.label)
        elements += task.elements
        try:
            task.check(out, counts)
        except Exception as exc:  # a mismatch or a broken output
            tally.fail(task.label, f"{type(exc).__name__}: {exc}")
    return Pass(sum(times), times, labels, elements, counts)


def environment(workload: str, seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "trimlat").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine(), "commit": commit,
            "src_sha256": digest.hexdigest()}


def best_times(passes: list[Pass]) -> dict[str, float]:
    """Each task's fastest time over the run's passes.  On a shared VM the
    CPU speed swings by up to half for seconds at a time, which moves medians
    over passes from run to run; the fastest of several passes repeats."""
    best: dict[str, float] = {}
    for p in passes:
        for label, t in zip(p.labels, p.times):
            best[label] = min(t, best.get(label, t))
    return best


def end_to_end(setup_s: float, passes: list[Pass], rss_who) -> dict:
    times = list(best_times(passes).values())
    wall = sum(times)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "elements_per_s": statistics.median_low(p.elements for p in passes) / wall,
        "task_p50_ms": 1e3 * statistics.median(times),
        "task_p90_ms": 1e3 * statistics.quantiles(times, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(rss_who).ru_maxrss / 1024,
    }


IMPORT_CODE = ("import time; t0 = time.perf_counter(); import trimlat; "
               "print(time.perf_counter() - t0)")


class SetUp:
    """Set-up time: the fastest import of trimlat in a fresh child
    interpreter plus, for each input, its fastest build.  Drawing the inputs
    and computing their references is not part of it.  The runner spreads
    the repeats over the run, one after each of the first passes, so that a
    slow spell of the host does not cover all of them."""

    def __init__(self, inputs, env):
        self.inputs = inputs
        self.env = env
        self.repeats = 0
        self.import_s = math.inf
        self.build_s = [math.inf] * len(inputs)

    def repeat(self) -> list:
        """Build every input once and import trimlat once in a child;
        returns what was built."""
        gc.collect()
        built = []
        for k, inp in enumerate(self.inputs):
            t0 = time.perf_counter()
            built.append(inp.make())
            self.build_s[k] = min(self.build_s[k], time.perf_counter() - t0)
        res = run_child(["-c", IMPORT_CODE], b"", self.env)
        if res.returncode != 0:
            raise RuntimeError(f"importing trimlat failed: {res.stderr.decode()[-500:]}")
        self.import_s = min(self.import_s, float(res.stdout))
        self.repeats += 1
        return built

    @property
    def seconds(self) -> float:
        return self.import_s + sum(self.build_s)


def startup_seconds(env) -> float:
    """Median wall time of a child process that only imports trimlat.cli."""
    return statistics.median(
        run_child(["-c", "import trimlat.cli"], b"", env).wall_s
        for _ in range(STARTUP_REPEATS))


def per_layer(tracer: Tracer, traced: list[Pass], plain: list[Pass], startup_s: float) -> dict:
    spans = tracer.per_pass()
    rows = []
    for k, p in enumerate(traced):
        row = dict(spans.get(k, {}))
        c = p.counts
        for mod in LAYERS:
            row[f"{mod}.share"] = row.get(f"{mod}.busy_s", 0.0) / p.wall
        for name in COUNTS:
            row[name] = c[name]
        row["lattice.table_mb"] = 8 * c["lattice.table_cells"] / 1e6
        busy = row.get("labelling.busy_s", 0.0)
        row["labelling.covers_per_s"] = c["labelling.covers"] / busy if busy else 0.0
        slow = row.get("rowmotion.rowmotion_slow.s", 0.0)
        row["rowmotion.flips_per_s"] = c["rowmotion.flips"] / slow if slow else 0.0
        calls = c["lattice.predicate_calls"]
        row["lattice.witness_exit_ratio"] = c["lattice.witness_exits"] / calls if calls else 0.0
        row["cli.child_cpu_s"] = c["cli.child_cpu_s"]
        row["cli.wait_s"] = c["cli.child_wall_s"] - c["cli.child_cpu_s"]
        row["cli.startup_share"] = startup_s * c["cli.children"] / p.wall
        pipes = c["cli.pipelines"]
        row["cli.revalidations_per_pipeline"] = c["cli.revalidations"] / pipes if pipes else 0.0
        rows.append(row)
    out = {name: statistics.median(float(r.get(name, 0.0)) for r in rows)
           for name, _ in per_layer_names()}
    out["cli.startup_s"] = startup_s
    out["trace_overhead_s"] = (sum(best_times(traced).values())
                               - sum(best_times(plain).values()))
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny instances, one set-up and one pass per mode (self-test)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "trimlat" / "__init__.py").is_file():
        print(f"error: no trimlat sources at {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "trimlat"), quiet=1)
    sys.path.insert(0, str(SRC))
    trimlat = importlib.import_module("trimlat")
    if Path(trimlat.__file__).resolve().parent != SRC / "trimlat":
        print(f"error: imported trimlat from {trimlat.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(SRC))
    repeats, min_passes = (1, 1) if args.tiny else (SETUP_REPEATS, MIN_PASSES)
    setup = SetUp(WORKLOADS[args.workload](trimlat, args.seed, args.tiny), env)
    tasks = [inp.task(obj) for inp, obj in zip(setup.inputs, setup.repeat())]

    tracer = Tracer() if args.trace else None
    contexts = [Context(make_lib(), None, env)]
    if tracer:
        contexts.append(Context(make_lib(tracer), tracer, env))
        min_passes *= 2
    passes: list[list[Pass]] = [[] for _ in contexts]
    tally = Tally()
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < min_passes or time.perf_counter() < deadline or setup.repeats < repeats:
        mode = i % len(contexts)
        if mode:
            tracer.pass_no = len(passes[mode])
        gc.collect()
        passes[mode].append(run_pass(tasks, contexts[mode], tally))
        i += 1
        if setup.repeats < repeats:
            # set-up repeats do not shorten the measured passes
            t0 = time.perf_counter()
            setup.repeat()
            deadline += time.perf_counter() - t0
    gc.collect()

    is_cli = args.workload == "cli_pipeline"
    rss_who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
    if tracer:
        metrics = per_layer(tracer, passes[1], passes[0], startup_seconds(env))
        units = dict(per_layer_names())
    else:
        metrics = end_to_end(setup.seconds, passes[0], rss_who)
        units = dict(END_TO_END)

    info = environment(args.workload, args.seed)
    plain = passes[0]
    k, n = len(plain), len(tasks)
    elements = statistics.median_low(p.elements for p in plain)
    samples = {"setup_repeats": setup.repeats, "import_s": round(setup.import_s, 4),
               "build_inputs_s": round(sum(setup.build_s), 4), "passes": k, "tasks_per_pass": n,
               "task_samples": sum(len(p.times) for p in plain),
               "traced_passes": len(passes[1]) if tracer else 0,
               "elements_per_pass": elements}
    if tracer:
        basis = dict.fromkeys(metrics, f"a pass, median of {len(passes[1])} traced passes")
        basis["cli.startup_s"] = f"median of {STARTUP_REPEATS} child processes"
        basis["trace_overhead_s"] = f"wall_s of the traced passes - wall_s of {k} untraced"
    else:
        basis = {
            "setup_s": f"fastest of {setup.repeats} imports in a child + sum over "
                       f"{len(tasks)} inputs of each one's fastest of {setup.repeats} builds",
            "wall_s": f"sum over {n} tasks of each task's fastest of {k} passes",
            "elements_per_s": f"{elements} elements a pass / wall_s",
            "task_p50_ms": f"median of the {n} task times behind wall_s ({k * n} samples)",
            "task_p90_ms": f"90th percentile of the same {n} task times",
            "peak_rss_mb": "max ru_maxrss of the CLI children" if is_cli
                           else "ru_maxrss of this process",
        }
    fail_ratio = tally.failed / tally.attempted
    print(f"environment: {json.dumps(info, sort_keys=True)}")
    print(f"samples: {json.dumps(samples, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}  ({basis[name]})")
    print(f"  fail_ratio = {fail_ratio:.6g}  ({tally.failed} of {tally.attempted} tasks "
          f"failed their check or raised)")
    for msg in tally.messages:
        print(msg, file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if tracer:
        tracer.write(OUT / f"spans_{stem}.jsonl")
    per_task: dict[str, list] = {}
    for p in plain:
        for label, t in zip(p.labels, p.times):
            per_task.setdefault(label, []).append(t)
    task_ms = {label: [round(1e3 * t, 4) for t in ts] for label, ts in per_task.items()}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    (OUT / f"result_{stem}.json").write_text(json.dumps(
        {**result, "environment": info, "samples": samples, "fail_ratio": fail_ratio,
         "task_ms": task_ms},
        indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
