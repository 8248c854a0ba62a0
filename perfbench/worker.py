"""One benchmark process: set up, run passes in a closed loop, check them.

Started by run.py in a fresh interpreter with one thread.  It prints
"READY" once oelab is imported and the inputs exist (the parent times
set-up up to that line).  Unless --probe is given it then runs passes one
after another until --seconds have passed, and prints one JSON line with
its measurements.

Timing.  This machine shares its 2 cores with other tenants, and its speed
swings by up to 2x from one second to the next; a neighbour only ever adds
time.  So ``wall_s`` is the sum, over the operations of a pass, of each
operation's fastest time in the run: the pass as it runs on a quiet
machine.  ``cpu_s`` is built the same way from process CPU time.  Set-up is
timed in fresh probe processes started between passes, so that its median
spans the whole run rather than one moment of it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import subprocess
import sys
import time

SETUP_PROBES = 10


def probe_setup(argv: list[str]) -> float:
    """Seconds from starting a fresh worker with --probe to its READY line."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, __file__, *argv, "--probe"], stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return seconds


def fastest(passes: list[dict]) -> float:
    """Sum over operations of the least time each took in any of the passes."""
    return sum(min(p[name] for p in passes) for name in passes[0])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="set up, print READY, exit")
    args = ap.parse_args()

    import numpy  # noqa: F401  (part of set-up: the library's only dependency)

    import oelab.cli  # noqa: F401  (imports every oelab module)
    import workloads

    variant = args.seed % workloads.VARIANTS
    inputs = workloads.WORKLOADS[args.workload][0](variant)
    print("READY", flush=True)
    if args.probe:
        return 0

    import checks
    import tracing

    references = checks.load_references(args.workload, variant)
    tracer = tracing.Tracer() if args.trace else None
    probe_argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    oracles: dict = {}
    walls, cpus, traced_walls, layers, setups = [], [], [], [], []
    attempted = 0
    problems: list[str] = []
    started = time.perf_counter()
    n = 0
    # closed loop, one client: a pass starts when the previous one returned.
    # Traced runs alternate untraced and traced passes for the overhead.
    while True:
        traced = tracer is not None and n % 2 == 1
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        try:
            done = workloads.run_pass(args.workload, inputs, oracles)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.remove()
        if traced:
            traced_walls.append({op.name: op.wall_s for op in done.ops})
            m = tracer.metrics(done.counts)
            m["trace.coverage"] = tracer.root_s / wall
            layers.append(m)
        else:
            walls.append({op.name: op.wall_s for op in done.ops})
            cpus.append({op.name: op.cpu_s for op in done.ops})
        attempted += len(done.ops)
        problems += checks.failures(done.ops, references)
        n += 1
        if tracer is None and len(setups) < SETUP_PROBES:
            setups.append(probe_setup(probe_argv))
        if time.perf_counter() - started >= args.seconds and (tracer is None or n >= 2):
            break

    out = {
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems[:20],
        "passes": len(walls),
        "wall_s": fastest(walls),
        "cpu_s": fastest(cpus),
        "setups": setups,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        per_layer = tracing.median_metrics(layers)
        per_layer["trace.overhead_s"] = fastest(traced_walls) - out["wall_s"]
        per_layer["check.fail_frac"] = len(problems) / attempted
        busy = [k for k in tracing.BUSY[args.workload] if not per_layer[k] > 0]
        idle = [k for k in tracing.IDLE[args.workload] if per_layer[k] != 0]
        out["trace_problems"] = (
            [f"predicted busy, measured 0: {k}" for k in busy]
            + [f"predicted idle, measured nonzero: {k}" for k in idle]
            + ([f"spans cover {per_layer['trace.coverage']:.3f} < 0.9 of the pass"] if per_layer["trace.coverage"] < 0.9 else [])
        )
        out["per_layer"] = per_layer
    print(json.dumps(out, allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
