#!/usr/bin/env python3
"""Quick self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

For every workload, in untraced and traced mode, it checks that the last
stdout line is the result object, that verification passed, and that exactly
the metrics named in BENCHMARK.json are emitted with their units.  It also
checks that the benchmark refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out" / "selftest"


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = run(ROOT, "--workload", w["name"], "--seed", "1", "--seconds", "1",
                       "--trace", str(trace), "--tiny")
            where = f"{w['name']} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: verification failed: {proc.stderr[-500:]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(wanted[trace]))}")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                problems.append(f"{where}: a metric value is not a number")
            print(f"{where}: ok, {result['attempted']} tasks checked", flush=True)

    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, SCRATCH / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(SCRATCH, "--workload", "build", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without trimlat sources the benchmark did not fail cleanly")
        else:
            print(f"without sources: exit {proc.returncode}, no result: ok")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    for p in problems:
        print("PROBLEM", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
