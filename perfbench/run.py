"""oelab benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload coupling-mc --seed 1 --seconds 20 --trace 0

Workloads: coupling-mc, bsll-tail, hyp-graphs, exact-cli (see NOTES.md).
Every measurement runs in a fresh single-threaded interpreter that imports
oelab from ./src.  With --trace 0 the last stdout line holds the end-to-end
metrics, with --trace 1 the per-layer metrics; both carry the number of
operations attempted and failed their output checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("coupling-mc", "bsll-tail", "hyp-graphs", "exact-cli")
DEADLINE_S = 170  # a run that is not done by then is killed and reports nothing
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["OELAB_BUDGET_MB"] = "1024"  # the default; it decides which tiles get enumerated
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True) as proc:
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
            proc.kill()  # no-op once the worker has exited
            proc.wait()
    lines = out.split()
    if proc.returncode != 0 or not lines or lines[0] != "READY":
        raise RuntimeError(f"worker failed (exit {proc.returncode})")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "oelab" / "__init__.py").is_file():
        print(f"no oelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        res = run_worker(args, time.monotonic() + DEADLINE_S)
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    for line in res["problems"] + res.get("trace_problems", []):
        print(f"FAIL {line}", file=sys.stderr)
    if args.trace:
        import tracing

        metrics = {k: {"value": v, "unit": tracing.METRICS[k][0]} for k, v in res["per_layer"].items()}
    else:
        values = {
            "wall_s": res["wall_s"],
            "cpu_s": res["cpu_s"],
            "setup_s": statistics.median(res["setups"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(
        f"{args.workload} seed {args.seed}: {res['passes']} untraced passes, "
        f"{res['attempted']} operations, {res['failed']} failed"
    )
    result = {
        "correct": res["failed"] == 0 and not res.get("trace_problems"),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
