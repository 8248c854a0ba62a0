"""The four workloads: inputs from a seed, one audit pass, and its checks.

Every pass builds its groups, tilings, couplings and graphs afresh, so no
cache survives from one pass to the next.  A seed selects one of VARIANTS
input sets: each variant has the same sizes (so the same amount of work) and
its own random values, and references.json holds the recorded estimates of
every variant.  See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from fractions import Fraction

from checks import Pass, exact_p_band

VARIANTS = 8

# -- coupling-mc ------------------------------------------------------------

TAIL_KS = range(7)
TAIL_SAMPLES = 1500
INTEGRABILITY_SAMPLES = 2000
RETURN_SAMPLES = 60
GRADIENT_SAMPLES = 200
WREATH_CHECKS = 6
COUPLINGS = {"z2z": ("zn:2", "zn:1:grouped:2"), "z4heis": ("zn:4", "heis")}
# (coupling, side, cylinder depth, ball radius n), as in acceptance criterion 8
RETURN_CASES = (("z2z", "left", 2, 3), ("z2z", "right", 2, 4), ("z4heis", "left", 1, 1), ("z4heis", "right", 1, 2))
HEIS_BALL = {1: 5, 2: 17, 3: 53}  # spheres of H(Z) in E1, E2: 1, 4, 12, 36


def coupling_mc_inputs(variant: int) -> dict:
    from oelab.tilings import builtin

    rng = random.Random(1000 + variant)
    cylinders = {}
    for cname, which, depth, n in RETURN_CASES:
        tiling = builtin(COUPLINGS[cname][0 if which == "left" else 1])
        counts = [tiling.letter_count(i) for i in range(depth)]
        space = list(itertools.product(*(range(c) for c in counts)))
        cylinders[(cname, which)] = (depth, n, frozenset(rng.sample(space, len(space) // 2)))
    return {"seed": rng.randrange(1 << 32), "cylinders": cylinders}


def _ball_size(group, n):
    if group.name.startswith("zn:"):
        d = int(group.name[3:])
        # |B(e, n)| in Z^d with the l^1 metric
        return sum(2**i * math.comb(d, i) * math.comb(n, i) for i in range(d + 1))
    return HEIS_BALL[n]


def _heis_escape_oracle():
    """Exact |T_k \\ s^-1 T_k| / |T_k| for heis, k <= 2, by enumerating T_k."""
    from oelab.groups import Heisenberg
    from oelab.tilings import HeisTiling

    t, g = HeisTiling(), Heisenberg()
    out = {}
    for k in range(3):
        tile = {t.prefix_product(idxs) for idxs in itertools.product(range(16), repeat=k + 1)}
        for s in g.generators:
            out[(s, k)] = Fraction(sum(1 for x in tile if g.multiply(s, x) not in tile), len(tile))
    return out


def _known_tail(tiling_name, s, k, oracles):
    """Known exact tail for a unit generator, or None when only enumeration knows it."""
    if tiling_name.startswith("zn:"):
        parts = tiling_name.split(":")
        m = int(parts[3]) if len(parts) == 4 else 1
        return Fraction(1, 1 << (m * (k + 1)))  # a unit step leaves a box of side 2^m(k+1)
    if tiling_name == "heis" and k <= 2:
        if "heis" not in oracles:
            oracles["heis"] = _heis_escape_oracle()
        return oracles["heis"][(s, k)]
    return None


def coupling_mc_pass(inp: dict, p: Pass, oracles: dict) -> None:
    from oelab.coupling import (
        CylinderSet,
        IntegrabilityGauge,
        MatchedCoupling,
        mc_integrability,
        mc_tail_frequencies,
        return_time_density,
    )
    from oelab.functional import FiniteSupportFunction, induced_gradient_check
    from oelab.groups import ZN
    from oelab.tilings import builtin
    from oelab.wreath import WreathCoupling, WreathElement, check_move_identities

    seed = inp["seed"]
    couplings = {
        cname: MatchedCoupling(builtin(left), builtin(right), max_depth=40)
        for cname, (left, right) in COUPLINGS.items()
    }
    # tail law (criterion 4): every generator of both sides of both couplings
    for cname, c in couplings.items():
        for which in ("left", "right"):
            action = c.side(which)
            name = action.tiling.name
            for s in action.group.generators:
                tag = f"{cname}:{which}:{s}"
                exact = []
                for k in TAIL_KS:

                    def known(r, name=name, s=s, k=k):
                        want = _known_tail(name, s, k, oracles)
                        return want is None or r == want

                    exact.append(p.op(f"exact_tail:{tag}:{k}", action.exact_tail, s, k, check=known))

                def band(freqs, exact=exact):
                    return all(
                        exact_p_band(freqs[k][0], float(exact[k]), TAIL_SAMPLES) for k in TAIL_KS
                    )

                p.op(f"tail:{tag}", mc_tail_frequencies, action, s, TAIL_KS, TAIL_SAMPLES, seed, check=band)
    z2z = couplings["z2z"]
    # integrability separation (criterion 5); a heis partner hits the word cap
    p.op(
        "integrate:0.4",
        mc_integrability,
        z2z,
        "left",
        (1, 0),
        IntegrabilityGauge.power(0.4),
        INTEGRABILITY_SAMPLES,
        seed + 1,
        check=lambda r: math.isfinite(r.estimate)
        and r.exhausted_fraction == 0
        and r.bound_terms[11] + r.bound_terms[12] < 0.05 * r.stratified_bound,
    )
    p.op(
        "integrate:0.6",
        mc_integrability,
        z2z,
        "left",
        (1, 0),
        IntegrabilityGauge.power(0.6),
        10,
        seed + 1,
        strata_depth=12,
        check=lambda r: all(r.bound_terms[k + 1] > r.bound_terms[k] for k in range(2, 12)),
    )
    # return-time density (criterion 8): E[lhs] >= rhs, and lhs lies in
    # [0, mu] with a standard error of at most mu / (2 sqrt(N))
    for (cname, which), (depth, n, pats) in inp["cylinders"].items():
        action = couplings[cname].side(which)
        cyl = CylinderSet(depth, pats)
        mu = cyl.measure(action.tiling)
        ball = _ball_size(action.group, n)
        p.op(
            f"return_time:{cname}:{which}",
            return_time_density,
            action,
            cyl,
            n,
            RETURN_SAMPLES,
            seed + 2,
            check=lambda r, mu=mu, ball=ball: r.measure == float(mu)
            and r.ball_size == ball
            and 0 <= r.lhs <= r.measure
            and r.lhs >= r.rhs - 4 * r.measure / (2 * math.sqrt(RETURN_SAMPLES)),
            view=lambda r: {"report": r, "margin_sigmas": r.holds_within},
        )
    # induced gradients (criterion 7): exact on the identity coupling
    Z = ZN(1)
    identical = MatchedCoupling(builtin("zn:1"), builtin("zn:1"), max_depth=24)
    f = FiniteSupportFunction(Z, {(i,): float(v) for i, v in enumerate((2, -1, 3, 1))})
    p.op(
        "induced_gradient:identity",
        induced_gradient_check,
        identical,
        "left",
        f,
        1,
        64,
        seed + 3,
        check=lambda r: r.deterministic and r.lhs <= r.rhs + 1e-9,
    )
    fz = FiniteSupportFunction(Z, {(i,): 1.0 for i in range(6)})
    p.op(
        "induced_gradient:z2z",
        induced_gradient_check,
        z2z,
        "left",
        fz,
        1,
        GRADIENT_SAMPLES,
        seed + 4,
        check=lambda r: math.isfinite(r.lhs) and math.isfinite(r.rhs) and r.lhs >= 0 and r.samples == GRADIENT_SAMPLES,
    )
    # wreath move identities: exact for pure base and pure lamp moves
    W = WreathCoupling(
        MatchedCoupling(builtin("zn:2"), builtin("zn:1:grouped:2"), max_depth=24),
        MatchedCoupling(builtin("cyclic:3"), builtin("cyclic:3"), max_depth=24),
    )
    rng = random.Random(seed)
    for side in (1, 2):
        bgroup, lgroup = W.base_group(side), W.lamp_group(side)
        for i in range(WREATH_CHECKS):
            gen = bgroup.generators[i % len(bgroup.generators)]
            lam = lgroup.generators[i % len(lgroup.generators)]
            for kind, w in (("base", WreathElement.pure_base(gen)), ("lamp", WreathElement.pure_lamp(bgroup, lam))):
                p.op(
                    f"wreath:{side}:{kind}:{i}",
                    check_move_identities,
                    W,
                    side,
                    w,
                    W.point(rng.randrange(1 << 32)),
                    check=lambda r: r.distance == r.expected,
                )


# -- bsll-tail --------------------------------------------------------------

BSLL_SAMPLES = 8000
BSLL_MS = range(2, 9)
# the criterion-6 elements: word length at most 3 in BS(1,k)
BSLL_CASES = {2: ((1, 0, 0), (1, 0, 1), (3, 0, 0)), 3: ((1, 0, 0), (1, 0, 1), (2, 0, 1))}


def bsll_inputs(variant: int) -> dict:
    return {"seed": random.Random(2000 + variant).randrange(1 << 32)}


def _bsll_check(reports) -> bool:
    # P(d >= threshold_M) <= k^(1-M): one-sided band at the bound itself
    ok = True
    prev = 1.0
    for M in BSLL_MS:
        r = reports[M]
        ok = ok and r.samples == BSLL_SAMPLES and r.exhausted == 0 and r.g_length <= 3
        ok = ok and r.freq <= r.bound + 4 * math.sqrt(r.bound * (1 - r.bound) / BSLL_SAMPLES)
        ok = ok and r.freq <= prev  # thresholds grow with M
        prev = r.freq
    return ok


def bsll_pass(inp: dict, p: Pass, oracles: dict) -> None:
    from oelab.bsll import BsLamplighterCoupling

    for k, gs in BSLL_CASES.items():
        C = BsLamplighterCoupling(k)
        for g in gs:
            p.op(f"sweep:{k}:{g}", C.tail_bound_sweep, g, BSLL_MS, BSLL_SAMPLES, inp["seed"], check=_bsll_check)


# -- hyp-graphs -------------------------------------------------------------

GRID_SIDES = (6, 10)  # (n+1) x (n+1) grids, as in criterion 9
FOUR_POINT_GRID = 6
EXTRACT_GRID = 11
TREES = 3
TREE_SIZE = 30
AUDITS_PER_GRAPH = 125
ORACLE_MAX_VERTICES = 40


def hyp_inputs(variant: int) -> dict:
    rng = random.Random(3000 + variant)
    trees = [[(i, rng.randrange(i)) for i in range(1, TREE_SIZE)] for _ in range(TREES)]
    return {"trees": trees, "walk_seed": rng.randrange(1 << 32)}


def _random_walk(G, rng):
    v = rng.randrange(G.n)
    path = [v]
    for _ in range(rng.randrange(1, 12)):
        v = rng.choice(G.adj[v])
        path.append(v)
    return path


def _rips_oracle(D):
    """Definition-level Rips constant from a distance matrix (small graphs)."""
    import numpy as np

    n = len(D)
    best = 0
    for a in range(n):
        for b in range(n):
            X = np.flatnonzero(D[a] + D[b] == D[a, b])
            for c in range(n):
                U = np.flatnonzero((D[a] + D[c] == D[a, c]) | (D[b] + D[c] == D[b, c]))
                best = max(best, int(D[np.ix_(X, U)].min(axis=1).max()))
    return best


def _four_point_oracle(D):
    """Definition-level four-point delta: max over a of the (b, c, d) cube."""
    import numpy as np

    D = D.astype(np.int64)
    best = 0
    for a in range(len(D)):
        s1 = D[a][:, None, None] + D[None, :, :]  # d(a,b) + d(c,d), axes (b, c, d)
        s2 = D[a][None, :, None] + D[:, None, :]  # d(a,c) + d(b,d)
        s3 = D[a][None, None, :] + D[:, :, None]  # d(a,d) + d(b,c)
        top = np.maximum(np.maximum(s1, s2), s3)
        low = np.minimum(np.minimum(s1, s2), s3)
        mid = s1 + s2 + s3 - top - low
        best = max(best, int((top - mid).max()))
    return Fraction(best, 2)


def _fat_cycle_check(G, res):
    import numpy as np

    cyc = res.cycle
    n = len(cyc)
    if len(set(cyc)) != n or any(cyc[(i + 1) % n] not in G.adj[cyc[i]] for i in range(n)):
        return False
    i, j = np.triu_indices(n, 1)
    dc = np.minimum(j - i, n - (j - i))
    dg = G.dist[np.asarray(cyc)[i], np.asarray(cyc)[j]]
    a = min(Fraction(int(x), int(y)) for x, y in set(zip(dg.tolist(), dc.tolist())))
    b = max(Fraction(int(x), int(y)) for x, y in set(zip(dg.tolist(), dc.tolist())))
    return (
        res.delta == EXTRACT_GRID - 1
        and res.report.a == a
        and res.report.b == b
        and n >= max(1, int(res.delta) // 15)
        and a >= Fraction(1, 2 * 17820)
    )


def _boundary_cycle(n):
    idx = lambda x, y: x * (n + 1) + y
    return (
        [idx(x, 0) for x in range(n)]
        + [idx(n, y) for y in range(n)]
        + [idx(x, n) for x in range(n, 0, -1)]
        + [idx(0, y) for y in range(n, 0, -1)]
    )


def _graph_view(G):
    import numpy as np

    D = np.asarray(G.dist, dtype=np.int64)
    return {"n": G.n, "dist_sha256": hashlib.sha256(D.tobytes()).hexdigest()}


def _distances_ok(G):
    """Zero diagonal, and every other entry is 1 + the least entry at a neighbour."""
    import numpy as np

    D = np.asarray(G.dist, dtype=np.int64)
    if (np.diag(D) != 0).any():
        return False
    for u in range(G.n):
        via = D[:, G.adj[u]].min(axis=1) + 1
        via[u] = 0
        if (D[:, u] != via).any():
            return False
    return True


def hyp_pass(inp: dict, p: Pass, oracles: dict) -> None:
    import numpy as np

    from oelab.groups import ZN, BaumslagSolitar, Heisenberg, Lamplighter
    from oelab.hyperbolicity import (
        MetricGraph,
        cycle_distortion,
        extract_fat_cycle,
        four_point_delta,
        geodesic_stability_check,
        rips_delta,
    )

    def graph(name, make, *args):
        return p.op(f"graph:{name}", make, *args, check=_distances_ok, view=_graph_view)

    def oracle(key, fn, G):
        if key not in oracles:
            oracles[key] = fn(G.dist)
        return oracles[key]

    # trees are exactly 0-thin
    for i, edges in enumerate(inp["trees"]):
        G = graph(f"tree:{i}", MetricGraph, TREE_SIZE, edges)
        p.op(f"rips:tree:{i}", rips_delta, G, check=lambda r: r == 0)
    # the criterion-9 zoo: rips delta, then 125 geodesic-stability audits each
    zoo = {
        "path:15": (MetricGraph.path_graph, 15),
        "cycle:12": (MetricGraph.cycle_graph, 12),
        "grid:6x6": (MetricGraph.grid_graph, 6, 6),
        "ball:zn2:4": (lambda: MetricGraph.cayley_ball(ZN(2), 4),),
        "ball:heis:3": (lambda: MetricGraph.cayley_ball(Heisenberg(), 3),),
        "ball:ll2:5": (lambda: MetricGraph.cayley_ball(Lamplighter(2), 5),),
        "ball:bs2:5": (lambda: MetricGraph.cayley_ball(BaumslagSolitar(2), 5),),
    }
    rng = random.Random(inp["walk_seed"])
    for gname, make in zoo.items():
        G = graph(gname, *make)
        small = G.n <= ORACLE_MAX_VERTICES
        delta = p.op(
            f"rips:{gname}",
            rips_delta,
            G,
            check=(lambda r, G=G, key=gname: r == oracle(key, _rips_oracle, G)) if small else None,
        )
        paths = [_random_walk(G, rng) for _ in range(AUDITS_PER_GRAPH)]

        def defects(reports, D=G.dist, paths=paths):
            for r, path in zip(reports, paths, strict=True):
                a, b = path[0], path[-1]
                I = np.flatnonzero(D[a] + D[b] == D[a, b])
                if r.max_defect != int(D[np.ix_(I, path)].min(axis=1).max()):
                    return False
            return True

        # one operation per graph; the audit's bound is a verdict, not an estimate
        p.op(
            f"geodesic:{gname}",
            lambda G=G, paths=paths, delta=delta: [geodesic_stability_check(G, q, delta=delta) for q in paths],
            check=defects,
            view=lambda reports: [r.max_defect for r in reports],
        )
    # square grids: boundary distortion exactly (1/2, 1); rips delta equals the side
    for n in GRID_SIDES:
        G = graph(f"boundary-grid:{n + 1}x{n + 1}", MetricGraph.grid_graph, n + 1, n + 1)
        p.op(
            f"distortion:grid:{n}",
            cycle_distortion,
            G,
            _boundary_cycle(n),
            check=lambda r: r.a == Fraction(1, 2) and r.b == 1,
        )
        p.op(f"rips:grid:{n}", rips_delta, G, check=lambda r, n=n: r == n)
    side = FOUR_POINT_GRID
    G = graph(f"four-point-grid:{side}x{side}", MetricGraph.grid_graph, side, side)
    p.op(
        f"four_point:grid:{side}",
        four_point_delta,
        G,
        check=lambda r, G=G: r == oracle("four_point", _four_point_oracle, G),
    )
    side = EXTRACT_GRID
    G = graph(f"extract-grid:{side}x{side}", MetricGraph.grid_graph, side, side)
    p.op(f"extract:grid:{side}", extract_fat_cycle, G, check=lambda r, G=G: _fat_cycle_check(G, r))


# -- exact-cli --------------------------------------------------------------

DIAMETER_SAMPLES = 3000


def exact_cli_inputs(variant: int) -> dict:
    seed = random.Random(4000 + variant).randrange(1 << 32)
    return {
        "commands": [
            ["tiling", "verify", "--builtin", "ll:2", "--k", "2", "--samples", str(DIAMETER_SAMPLES), "--seed", str(seed)],
            ["tiling", "verify", "--builtin", "zn:3", "--k", "5"],
            # enumerate heis tiles only up to k = 3: building the 2^20-element
            # tile at k = 4 made run-to-run times swing by 40% on a shared host
            ["tiling", "verify", "--builtin", "heis", "--k", "6", "--budget", "70000"],
            ["tiling", "verify", "--builtin", "heis", "--k", "1", "--exact-diameter"],
            ["tiling", "verify", "--builtin", "zmatch:ll:2", "--k", "2"],
            ["profile", "--group", "heis", "--n", "7"],
        ]
    }


def _letter_sizes(spec):
    if spec.startswith("zn:"):
        return lambda k: 2 ** int(spec[3:])
    if spec == "heis":
        return lambda k: 16
    m = int(spec.rsplit(":", 1)[1])  # ll:M and zmatch:ll:M share letter counts
    return lambda k: 2 * m * m if k == 0 else 2 * m ** (2**k)


def _known_epsilon(spec, k, size):
    if spec.startswith("zn:") or spec.startswith("ll:"):
        return Fraction(1, 2 ** (k + 1))
    if spec.startswith("zmatch:"):
        return Fraction(1, size)  # a unit step leaves the interval [0, |T_k|)
    return None


def _verify_check(argv):
    spec = argv[argv.index("--builtin") + 1]
    letters = _letter_sizes(spec)

    def check(out):
        rc, text = out
        rows = json.loads(text)["results"]
        if rc != 0:
            return False
        size = 1
        for row in rows:
            size *= letters(row["k"])
            eps = Fraction(*row["epsilon_computed"])
            known = _known_epsilon(spec, row["k"], size)
            if row["size"] != size or (known is not None and eps != known):
                return False
            if known is None and eps > Fraction(*row["epsilon_claimed"]):
                return False
        return len(rows) == int(argv[argv.index("--k") + 1]) + 1

    return check


def _profile_check(out):
    rc, text = out
    res = json.loads(text)["results"]
    return rc == 0 and res["subsets_searched"] > 0 and len(res["witness"]) <= res["n"] and res["value"][0] > 0


def exact_cli_pass(inp: dict, p: Pass, oracles: dict) -> None:
    import oelab.cli

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = oelab.cli.main(argv)
        text = buf.getvalue()
        p.counts["cli.report_bytes"] = p.counts.get("cli.report_bytes", 0) + len(text)
        return rc, text

    for argv in inp["commands"]:
        check = _verify_check(argv) if argv[0] == "tiling" else _profile_check
        # compare results only: parameters and timing depend on the machine
        p.op(
            " ".join(argv[:6]),
            run,
            argv,
            check=check,
            view=lambda out: {"rc": out[0], "results": json.loads(out[1])["results"]},
        )


WORKLOADS = {
    "coupling-mc": (coupling_mc_inputs, coupling_mc_pass),
    "bsll-tail": (bsll_inputs, bsll_pass),
    "hyp-graphs": (hyp_inputs, hyp_pass),
    "exact-cli": (exact_cli_inputs, exact_cli_pass),
}


def run_pass(workload: str, inputs: dict, oracles: dict) -> Pass:
    """One pass of a workload; ``oracles`` keeps slow reference values across passes."""
    p = Pass()
    WORKLOADS[workload][1](inputs, p, oracles)
    return p
