"""Spans around the benchmark's calls into trimlat, and the per-layer metrics
derived from them.

A span has a name, a module (the layer), start and end times, the span that
caused it, the task it belongs to and the pass it ran in.  Spans stay in
memory and are written out as JSON lines when the run ends.  Only calls made
by the benchmark are wrapped; calls the library makes internally are part of
the caller's span.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

# The public functions the benchmark calls, by module.  The module is the
# layer a span is charged to.
PUBLIC = {
    "generators": ("tamari", "boolean", "weak_order_S", "root_ideals",
                   "chain_product", "rational_dyck", "fixture_lattice"),
    "poset": ("order_ideals",),
    "lattice": ("is_distributive", "is_semidistributive", "is_extremal",
                "is_left_modular_lattice", "is_trim", "is_trim_definitional"),
    "galois": ("lattice_from_graph", "index_irreducibles", "galois_graph"),
    "labelling": ("left_modular_labelling", "semidistributive_labelling"),
    "rowmotion": ("rowmotion_global", "rowmotion_slow"),
    "complexes": ("independence_complex", "complement_check",
                  "independent_sets", "undirected"),
    "io": ("lattice_to_json", "lattice_from_json"),
}
CLI_VERBS = ("gen", "check", "rowmotion", "galois", "complex")
LAYERS = tuple(PUBLIC) + ("cli",)

# Work counts, computed by the workloads' checks from the sizes of what each
# call handled, summed per pass.
COUNTS = ("lattice.table_cells", "lattice.triples", "labelling.covers",
          "rowmotion.flips", "galois.pairs", "complexes.faces", "io.bytes")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for mod, fns in PUBLIC.items():
        for fn in fns:
            out += [(f"{mod}.{fn}.s", "s"), (f"{mod}.{fn}.calls", "count")]
    out += [(f"cli.{verb}.s", "s") for verb in CLI_VERBS]
    for mod in LAYERS:
        out += [(f"{mod}.busy_s", "s"), (f"{mod}.share", "ratio")]
    out += [(name, "count") for name in COUNTS]
    out += [
        ("lattice.table_mb", "MB"),
        ("labelling.covers_per_s", "1/s"),
        ("rowmotion.flips_per_s", "1/s"),
        ("lattice.witness_exit_ratio", "ratio"),
        ("cli.startup_s", "s"),
        ("cli.startup_share", "ratio"),
        ("cli.child_cpu_s", "s"),
        ("cli.wait_s", "s"),
        ("cli.revalidations_per_pipeline", "count"),
        ("trace_overhead_s", "s"),
    ]
    return out


class Tracer:
    """Records spans in memory; `pass_no` is set by the runner."""

    def __init__(self):
        # [id, name, module, start, end, parent id, task, pass]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._task = None
        self.pass_no = 0

    @contextmanager
    def span(self, name: str, module: str, task: str | None = None):
        if task is not None:
            self._task = task
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), name, module, time.perf_counter(), None,
               parent, self._task, self.pass_no]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module: str, name: str, fn):
        label = f"{module}.{name}"

        def traced(*args, **kwargs):
            with self.span(label, module):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[5] is not None:
                child[s[5]] += s[4] - s[3]
        return [s[4] - s[3] - child[s[0]] for s in self.spans]

    def write(self, path) -> None:
        keys = ("id", "name", "module", "start", "end", "parent", "task", "pass")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")

    def per_pass(self) -> dict[int, dict[str, float]]:
        """Per pass: inclusive seconds and call count per span name, and
        self seconds per module."""
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s, self_s in zip(self.spans, self.self_times()):
            row = out[s[7]]
            row[s[1] + ".s"] += s[4] - s[3]
            row[s[1] + ".calls"] += 1
            row[s[2] + ".busy_s"] += self_s
        return out
