"""oelab command-line interface.

Every subcommand prints a run report (JSON by default, CSV for tabular
results) with the command echo, parameters, seed, results, timing, and
version.  Reports are bit-for-bit deterministic given (command, seed,
version): all randomness flows through counter-based streams.  JSON
reports are strict: non-finite floats are written as the strings "nan",
"inf" and "-inf".  stdout carries the report alone: ``selftest`` writes its
PASS/FAIL check lines to stderr.  Monte Carlo ``--samples`` must be at
least 1 (``tiling verify --samples 0``, its default, skips the sampled
diameter).  ``tiling verify --k``, ``couple tail --k``, ``--max-depth`` and
``--strata-depth`` must be at least 0, and ``bs-ll tail --M`` at least 2
(below that the bound k^(1-M) cannot fail); anything else is a usage error.

Exit codes: 0 success / audit passed, 2 audit failed (an inequality the run
was checking is violated), 1 usage or resource errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__
from ._rng import derive
from .bsll import BsLamplighterCoupling
from .coupling import (
    CylinderSet,
    IntegrabilityGauge,
    MatchedCoupling,
    mc_integrability,
    mc_tail_frequencies,
    return_time_density,
)
from .errors import (
    CapExceeded,
    DepthExhausted,
    NotApplicable,
    ResourceExhausted,
    TilingViolation,
    UsageError,
    WindowExhausted,
)
from .functional import isoperimetric_profile
from .groups import group_from_spec
from .hyperbolicity import (
    MetricGraph,
    cycle_distortion,
    extract_fat_cycle,
    four_point_delta,
    cycle_contraction_bound,
    rips_delta,
)
from .tilings import builtin as tiling_builtin
from .wreath import WreathCoupling, WreathElement, check_move_identities

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_AUDIT_FAIL = 2


def _budget_mb() -> int:
    """Memory cap from OELAB_BUDGET_MB (default 1024)."""
    try:
        return max(1, int(os.environ.get("OELAB_BUDGET_MB", "1024")))
    except ValueError:
        raise UsageError("OELAB_BUDGET_MB must be an integer") from None


def _budget_elements() -> int:
    # ~250 bytes per materialized element including container overhead
    return _budget_mb() * 4000


def _frac(x: Fraction) -> list[int]:
    return [x.numerator, x.denominator]


def _strict(x):
    """x with every non-finite float replaced by "nan", "inf" or "-inf"."""
    if isinstance(x, float) and not math.isfinite(x):
        return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
    if isinstance(x, dict):
        return {k: _strict(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict(v) for v in x]
    return x


def _emit(args, command: str, results, started: float, rows) -> None:
    clean = {k: v for k, v in vars(args).items() if k not in ("fn", "command", "subcommand")}
    report = {
        "command": command,
        "parameters": clean,
        "seed": clean.get("seed"),
        "results": results,
        "timing_seconds": round(time.time() - started, 3),
        "version": __version__,
    }
    if args.format == "csv" and rows is not None:
        csv.writer(sys.stdout).writerows(rows)
    else:
        json.dump(_strict(report), sys.stdout, indent=2, default=str, allow_nan=False)
        sys.stdout.write("\n")


def _graph_from_args(args) -> MetricGraph:
    if args.family:
        head, _, rest = args.family.partition(":")
        if head == "grid":
            if "x" in rest:
                a, _, b = rest.partition("x")
                return MetricGraph.grid_graph(int(a), int(b))
            return MetricGraph.grid_graph(int(rest), int(rest))
        if head == "cycle":
            return MetricGraph.cycle_graph(int(rest))
        if head == "path":
            return MetricGraph.path_graph(int(rest))
        if head == "tree":
            n, _, seed = rest.partition(":")
            return MetricGraph.random_tree(int(n), int(seed or 0))
        if head == "cayley-ball":
            spec, _, radius = rest.rpartition(":")
            return MetricGraph.cayley_ball(group_from_spec(spec), int(radius))
        raise UsageError(f"unknown graph family {args.family!r}")
    if args.edges:
        with open(args.edges) as fh:
            return MetricGraph.from_edge_list(fh.read())
    raise UsageError("need --family or --edges")


# -- subcommands -------------------------------------------------------------
# Each handler returns (results, ok, rows): the report's results, whether the
# audit passed, and the CSV table (None when the command has none).  main
# times the run, writes the report and maps ok to the exit code.


def cmd_tiling_verify(args):
    t = tiling_builtin(args.builtin)
    if args.group and group_from_spec(args.group).name != t.group.name:
        raise UsageError(
            f"builtin {args.builtin!r} tiles {t.group.name}, not {args.group!r}"
        )
    if args.k < 0:
        raise UsageError("--k must be >= 0")
    budget = args.budget if args.budget is not None else _budget_elements()
    # one enumeration of every tile within budget proves disjointness by cardinality
    fits = max((k for k in range(args.k + 1) if t.tile_size(k) <= budget), default=-1)
    tiles = t.build_tiles(fits, budget) if fits >= 0 else []
    results = []
    ok = True
    for k in range(args.k + 1):
        size = t.tile_size(k)
        fol = t.folner_constant(k, tiles_k=tiles[k] if k <= fits else None)
        row = {
            "k": k,
            "size": size,
            "epsilon_computed": _frac(fol.value),
            "epsilon_claimed": _frac(fol.claimed) if fol.claimed is not None else None,
            "ok": fol.within_claim is not False,
        }
        if args.exact_diameter or args.samples:
            mode = "exact" if args.exact_diameter else "sampled"
            diam = t.tile_diameter(k, mode=mode, samples=args.samples, seed=args.seed)
            row["diameter" if args.exact_diameter else "diameter_lower_bound"] = diam.value
            row["radius_claimed"] = diam.claimed
            row["ok"] = row["ok"] and diam.within_claim is not False
        ok = ok and row["ok"]
        results.append(row)
    return results, ok, None


def _coupling_from_args(args) -> MatchedCoupling:
    return MatchedCoupling(
        tiling_builtin(args.left), tiling_builtin(args.right), max_depth=args.max_depth
    )


def cmd_couple_tail(args):
    if args.k < 0:
        raise UsageError("--k must be >= 0")
    c = _coupling_from_args(args)
    action = c.side(args.side)
    gamma = action.group.parse_element(args.gamma)
    freqs = mc_tail_frequencies(action, gamma, range(args.k + 1), args.samples, args.seed)
    rows = [("k", "exact_tail", "mc_freq", "stderr")]
    results = []
    ok = True
    for k in range(args.k + 1):
        exact = action.exact_tail(gamma, k)
        freq, se = freqs[k]
        # the band is 4 sigma at the exact p: the plug-in se is 0 whenever
        # no sample lands in a rare tail, which would leave no band at all
        p = float(exact)
        within = abs(freq - p) <= 4 * math.sqrt(p * (1 - p) / args.samples) + 1e-12
        ok = ok and within
        rows.append((k, f"{exact.numerator}/{exact.denominator}", freq, se))
        results.append(
            {
                "k": k,
                "exact_tail": _frac(exact),
                "mc_freq": freq,
                "stderr": se,
                "within_4_stderr": within,
            }
        )
    return results, ok, rows


def cmd_couple_integrate(args):
    c = _coupling_from_args(args)
    gamma = c.side(args.side).group.parse_element(args.gamma)
    gauge = IntegrabilityGauge.from_spec(args.gauge)
    rep = mc_integrability(
        c, args.side, gamma, gauge, args.samples, args.seed, strata_depth=args.strata_depth
    )
    results = {
        "gauge": rep.gauge,
        "estimate": rep.estimate,
        "stderr": rep.stderr,
        "stratified_bound": rep.stratified_bound,
        "bound_terms": rep.bound_terms,
        "exhausted_fraction": rep.exhausted_fraction,
        "truncated": rep.truncated,
        "diverging": rep.diverging,
    }
    rows = [("gauge", "estimate", "stderr", "stratified_bound", "exhausted_fraction")]
    rows.append((rep.gauge, rep.estimate, rep.stderr, rep.stratified_bound, rep.exhausted_fraction))
    return results, True, rows


def cmd_couple_return_time(args):
    c = _coupling_from_args(args)
    action = c.side(args.side)
    patterns = []
    for pat in args.x0.split(";"):
        patterns.append(tuple(int(p) for p in pat.split(",")))
    depth = len(patterns[0])
    cyl = CylinderSet(depth, frozenset(patterns))
    rep = return_time_density(action, cyl, args.n, args.samples, args.seed)
    margin = rep.holds_within
    results = {
        "lhs": rep.lhs,
        "lhs_stderr": rep.lhs_stderr,
        "rhs": rep.rhs,
        "measure": rep.measure,
        "ball_size": rep.ball_size,
        "margin_sigmas": margin,
        "pass": margin >= -3,
    }
    return results, results["pass"], None


def cmd_bsll_tail(args):
    coupling = BsLamplighterCoupling(args.k, word_length_cap=args.cap)
    g = coupling.bs.parse_element(args.g)
    rep = coupling.tail_bound_sweep(g, [args.M], args.samples, args.seed)[args.M]
    results = {
        "freq": rep.freq,
        "stderr": rep.stderr,
        "bound": rep.bound,
        "threshold": rep.threshold,
        "g_length": rep.g_length,
        "exhausted": rep.exhausted,
        "pass": rep.passes,
    }
    return results, rep.passes, None


def cmd_profile(args):
    group = group_from_spec(args.group)
    mode, _, maxval = args.mode.partition(":")
    res = isoperimetric_profile(
        group, args.n, mode=mode, max_value=int(maxval or 1), budget=args.budget
    )
    witness = [group.format_element(g) for g in res.witness]
    rows = [("n", "value_num", "value_den", "witness")]
    rows.append((res.n, res.value.numerator, res.value.denominator, " ".join(witness)))
    results = {
        "n": res.n,
        "mode": res.mode,
        "value": _frac(res.value),
        "witness": witness,
        "witness_values": list(res.witness_values) if res.witness_values else None,
        "convention": res.convention,
        "subsets_searched": res.subsets_searched,
    }
    return results, True, rows


def cmd_wreath_check(args):
    if args.samples < 1:
        raise UsageError("wreath check needs --samples >= 1")
    bl, _, br = args.base.partition(",")
    ll_, _, lr = args.lamp.partition(",")
    base = MatchedCoupling(tiling_builtin(bl), tiling_builtin(br), max_depth=args.max_depth)
    lamp = MatchedCoupling(tiling_builtin(ll_), tiling_builtin(lr), max_depth=args.max_depth)
    W = WreathCoupling(base, lamp)
    results = []
    ok = True
    for side in (1, 2):
        bgroup = W.base_group(side)
        lgroup = W.lamp_group(side)
        base_pass = lamp_pass = 0
        for i in range(args.samples):
            P = W.point(derive(args.seed, side, i))
            gen = bgroup.generators[i % len(bgroup.generators)]
            if check_move_identities(W, side, WreathElement.pure_base(gen), P).matches:
                base_pass += 1
            lam = lgroup.generators[i % len(lgroup.generators)]
            Q = W.point(derive(args.seed, side + 2, i))
            if check_move_identities(W, side, WreathElement.pure_lamp(bgroup, lam), Q).matches:
                lamp_pass += 1
        results.append(
            {
                "side": side,
                "pure_base_identity": {"pass": base_pass, "of": args.samples},
                "pure_lamp_identity": {"pass": lamp_pass, "of": args.samples},
            }
        )
        ok = ok and base_pass == args.samples and lamp_pass == args.samples
    return results, ok, None


def cmd_hyp_delta(args):
    G = _graph_from_args(args)
    delta = rips_delta(G, budget_mb=args.budget or _budget_mb())
    results = {
        "vertices": G.n,
        "rips_delta": _frac(delta),
        "convention": "metric-interval Rips constant (exact for vertex intervals)",
    }
    if args.four_point:
        fp = four_point_delta(G)
        results["four_point_delta"] = _frac(fp)
    return results, True, None


def cmd_hyp_audit_cycle(args):
    G = _graph_from_args(args)
    if not args.cycle:
        raise UsageError("need --cycle v0,v1,...")
    cycle = [int(v) for v in args.cycle.split(",")]
    rep = cycle_distortion(G, cycle)
    delta = rips_delta(G, budget_mb=args.budget or _budget_mb())
    bound = cycle_contraction_bound(float(delta), rep.n / 2, float(rep.b))
    ok = float(rep.a) <= bound + 1e-9
    results = {
        "distortion": rep.as_dict(),
        "rips_delta": _frac(delta),
        "bound": bound,
        "within_bound": ok,
    }
    return results, ok, None


def cmd_hyp_extract(args):
    G = _graph_from_args(args)
    try:
        res = extract_fat_cycle(G, budget_mb=args.budget or _budget_mb())
    except NotApplicable as exc:
        return {"not_applicable": str(exc)}, True, None
    results = {
        "delta": _frac(res.delta),
        "cycle_length": res.report.n,
        "cycle": res.cycle,
        "distortion": res.report.as_dict(),
        "discrete_slack": res.discrete_slack,
        "self_audit": {
            "min_length": max(1, int(res.delta) // 15),
            "contraction_floor": [1, 2 * 17820],
            "pass": res.report.n >= max(1, int(res.delta) // 15)
            and res.report.a >= Fraction(1, 2 * 17820),
        },
    }
    return results, results["self_audit"]["pass"], None


def cmd_selftest(args):
    checks: list[tuple[str, bool]] = []

    def check(name: str, fn):
        try:
            ok = bool(fn())
        except Exception:
            ok = False
        checks.append((name, ok))
        print(f"{'PASS' if ok else 'FAIL'}  {name}", file=sys.stderr)

    from .groups import ZN, BaumslagSolitar, Heisenberg, Lamplighter
    from .tilings import ZnTiling

    check("zn word length", lambda: ZN(2).word_length((3, -2)) == 5)
    check("heis product", lambda: Heisenberg().multiply((0, 1, 0), (1, 0, 0)) == (1, 1, 1))
    check(
        "bs product",
        lambda: BaumslagSolitar(2).multiply((1, 0, 1), (1, 0, 0)) == (3, 1, 1),
    )
    check("lamplighter identity", lambda: Lamplighter(2).word_length(((), 0)) == 0)
    check(
        "zn tiling epsilon",
        lambda: ZnTiling(1).folner_constant(1).value == Fraction(1, 4),
    )
    check(
        "identity tail",
        lambda: MatchedCoupling(ZnTiling(1), ZnTiling(1)).left.exact_tail((0,), 2) == 0,
    )
    check("tree delta", lambda: rips_delta(MetricGraph.path_graph(8)) == 0)
    check("contraction bound formula", lambda: abs(cycle_contraction_bound(0, 10, 1) - 0.6) < 1e-12)
    if not args.quick:
        check(
            "heis tiling k=2 within claim",
            lambda: tiling_builtin("heis").folner_constant(2).within_claim,
        )
        check("cycle delta", lambda: rips_delta(MetricGraph.cycle_graph(8)) == 2)
        coupling = BsLamplighterCoupling(2)
        check(
            "bs-ll shift distance",
            lambda: coupling.move_distance("ll", (0, 0, 1), coupling.point(3)) == 1,
        )
    results = [{"name": n, "pass": p} for n, p in checks]
    return results, all(p for _, p in checks), None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="oelab",
        description="quantitative orbit-equivalence constructions, verified on the desk",
    )
    p.add_argument("--version", action="version", version=f"oelab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "csv"], default="json")
    common.add_argument("--seed", type=int, default=0)

    tiling = sub.add_parser("tiling", help="tiling construction and verification")
    tsub = tiling.add_subparsers(dest="subcommand", required=True)
    tv = tsub.add_parser("verify", parents=[common], help="verify disjointness, epsilon_k, diameters")
    tv.add_argument("--builtin", required=True, help="zn:N | zn:N:grouped:M | heis | ll:M | zmatch:ll:M | zblocks:c0,c1,...")
    tv.add_argument("--group", help="optional group spec, cross-checked against the builtin")
    tv.add_argument("--k", type=int, required=True)
    tv.add_argument("--exact-diameter", action="store_true")
    tv.add_argument("--samples", type=int, default=0, help="sampled diameter pairs")
    tv.add_argument("--budget", type=int, default=None, help="element budget; default from OELAB_BUDGET_MB")
    tv.set_defaults(fn=cmd_tiling_verify)

    couple = sub.add_parser("couple", help="matched-tiling coupling estimators")
    csub = couple.add_subparsers(dest="subcommand", required=True)
    for name, fn in (
        ("tail", cmd_couple_tail),
        ("integrate", cmd_couple_integrate),
        ("return-time", cmd_couple_return_time),
    ):
        cp = csub.add_parser(name, parents=[common])
        cp.add_argument("--left", required=True)
        cp.add_argument("--right", required=True)
        cp.add_argument("--side", choices=["left", "right"], default="left")
        cp.add_argument("--max-depth", type=int, default=32)
        cp.add_argument("--samples", type=int, default=100_000)
        if name == "tail":
            cp.add_argument("--gamma", required=True)
            cp.add_argument("--k", type=int, default=6)
        elif name == "integrate":
            cp.add_argument("--gamma", required=True)
            cp.add_argument("--gauge", default="power:1.0", help="power:P | exp:C | logpow:E | identity")
            cp.add_argument("--strata-depth", type=int, default=None)
        else:
            cp.add_argument("--x0", required=True, help="prefix patterns: '0;1' or '0,1;1,0'")
            cp.add_argument("--n", type=int, default=4)
        cp.set_defaults(fn=fn)

    bsll = sub.add_parser("bs-ll", help="lamplighter / BS(1,k) bi-infinite coupling")
    bsub = bsll.add_subparsers(dest="subcommand", required=True)
    bt = bsub.add_parser("tail", parents=[common], help="exponential-tail audit")
    bt.add_argument("--k", type=int, required=True)
    bt.add_argument("--g", required=True, help="bs element, e.g. bs:a=1,s=0,n=0")
    bt.add_argument("--M", type=int, required=True)
    bt.add_argument("--samples", type=int, default=1_000_000)
    bt.add_argument("--cap", type=int, default=24)
    bt.set_defaults(fn=cmd_bsll_tail)

    prof = sub.add_parser("profile", parents=[common], help="isoperimetric profile search")
    prof.add_argument("--group", required=True)
    prof.add_argument("--n", type=int, required=True)
    prof.add_argument("--mode", default="sets", help="sets | int:MAXVAL")
    prof.add_argument("--budget", type=int, default=200_000)
    prof.set_defaults(fn=cmd_profile)

    wr = sub.add_parser("wreath", help="wreath coupling identity checks")
    wsub = wr.add_subparsers(dest="subcommand", required=True)
    wc = wsub.add_parser("check", parents=[common])
    wc.add_argument("--base", required=True, help="left,right tiling specs")
    wc.add_argument("--lamp", required=True, help="left,right tiling specs")
    wc.add_argument("--samples", type=int, default=20)
    wc.add_argument("--max-depth", type=int, default=24)
    wc.set_defaults(fn=cmd_wreath_check)

    hyp = sub.add_parser("hyp", help="hyperbolicity on finite graphs")
    hsub = hyp.add_subparsers(dest="subcommand", required=True)
    for name, fn in (
        ("delta", cmd_hyp_delta),
        ("audit-cycle", cmd_hyp_audit_cycle),
        ("extract", cmd_hyp_extract),
    ):
        hp = hsub.add_parser(name, parents=[common])
        hp.add_argument("--family", help="grid:N | grid:WxH | cycle:N | path:N | tree:N:SEED | cayley-ball:GROUP:R")
        hp.add_argument("--edges", help="edge-list file, one 'u v' per line")
        hp.add_argument("--budget", type=int, default=None, help="tensor budget in MB; default from OELAB_BUDGET_MB")
        if name == "delta":
            hp.add_argument("--four-point", action="store_true")
        if name == "audit-cycle":
            hp.add_argument("--cycle", help="comma-separated vertex list")
        hp.set_defaults(fn=fn)

    st = sub.add_parser("selftest", parents=[common], help="fast invariant checks")
    st.add_argument("--quick", action="store_true")
    st.set_defaults(fn=cmd_selftest)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
    started = time.time()
    try:
        results, ok, rows = args.fn(args)
        _emit(args, command, results, started, rows)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ResourceExhausted, CapExceeded, TilingViolation, DepthExhausted, WindowExhausted) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK if ok else EXIT_AUDIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
