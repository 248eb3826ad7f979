#!/usr/bin/env python3
"""Record the golden CLI outputs that the cli_pipeline workload compares
byte for byte: exit code and SHA-256 of stdout and stderr for every command
of the full and the tiny task list.

    python3 perfbench/record_golden.py

Run it only on a commit whose CLI output is known to be right; a later run
would bless whatever the CLI prints then.
"""

from __future__ import annotations

import json
import os
import sys

from run import SRC, run_child
from workloads import GOLDEN, _digest, cli_cases, cli_stdin, golden_key


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    golden = {}
    outputs = {}
    for tiny in (False, True):
        for argv, source in cli_cases(tiny):
            stdin = cli_stdin(source, outputs)
            res = run_child(["-m", "trimlat.cli", *argv], stdin, env)
            if argv[0] == "gen":
                outputs[f"{argv[1]} {argv[2]}"] = res.stdout
                elements = json.loads(res.stdout)["n"]
            else:
                elements = json.loads(stdin)["n"]
            golden[golden_key(argv, source)] = {
                "returncode": res.returncode,
                "stdout_sha256": _digest(res.stdout),
                "stderr_sha256": _digest(res.stderr),
                "elements": elements,
            }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(golden)} commands in {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
