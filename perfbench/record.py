"""Record the reference estimates of every workload variant.

    python3 perfbench/record.py [WORKLOAD ...]

Runs one pass per variant in the benchmark's environment, refuses to record
a variant whose operations raise or fail their independent checks, and
rewrites references.json.  Record only at a commit whose numbers are known
good: later runs demand these estimates bit for bit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import checks
import run
import workloads


def main(names: list[str]) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":  # rerun in the workers' environment
        return subprocess.run([sys.executable, __file__, *names], env=run.child_env()).returncode
    refs = {}
    if checks.REFERENCES.exists():
        refs = json.loads(checks.REFERENCES.read_text())
    for name in names or list(workloads.WORKLOADS):
        recorded = {}
        oracles: dict = {}
        for variant in range(workloads.VARIANTS):
            done = workloads.run_pass(name, workloads.WORKLOADS[name][0](variant), oracles)
            problems = checks.failures(done.ops, None)
            if problems:
                print(f"{name} variant {variant}: not recorded", *problems, sep="\n  ", file=sys.stderr)
                return 1
            recorded[str(variant)] = {op.name: op.encoded() for op in done.ops}
            print(f"{name} variant {variant}: {len(done.ops)} operations")
        refs[name] = recorded
    checks.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True, allow_nan=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
