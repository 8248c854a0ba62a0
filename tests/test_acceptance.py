"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion; any failure is a red criterion.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from oelab._rng import derive
from oelab.bsll import BsLamplighterCoupling
from oelab.coupling import (
    CylinderSet,
    IntegrabilityGauge,
    MatchedCoupling,
    mc_integrability,
    mc_tail_frequencies,
    return_time_density,
)
from oelab.functional import (
    FiniteSupportFunction,
    TransitiveAction,
    induced_gradient_check,
    push_to_orbit,
)
from oelab.groups import ZN, BaumslagSolitar, Heisenberg, Lamplighter
from oelab.hyperbolicity import (
    CONTRACTION_FLOOR,
    MetricGraph,
    cycle_distortion,
    extract_fat_cycle,
    geodesic_stability_check,
    min_cycle_length,
    rips_delta,
)
from oelab.tilings import HeisTiling, LamplighterTiling, ZnGroupedTiling, ZnTiling


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS  {text}")


def test_criterion_1_zn_tiling_exactness():
    started = time.time()
    for n in (1, 2, 3):
        t = ZnTiling(n)
        for k in range(6):
            fol = t.folner_constant(k)
            assert fol.value == Fraction(1, 2 ** (k + 1)), (n, k, fol.value)
            diam = t.tile_diameter(k, mode="exact")
            assert diam.value <= n * 2 ** (k + 1), (n, k, diam.value)
    elapsed = time.time() - started
    assert elapsed < 10, f"runtime {elapsed:.1f}s exceeds 10s"
    report(1, f"Z^n boundary ratios equal 2^-(k+1) exactly and diameters fit, {elapsed:.2f}s")


def test_criterion_2_heisenberg_tiling():
    started = time.time()
    t = HeisTiling()
    group = t.group
    E = [(1, 0, 0), (0, 1, 0)]
    tiles = t.build_tiles(4)  # disjointness proved level by level
    for k in range(5):
        tile_set = set(tiles[k])
        size = len(tile_set)
        assert size == 2 ** (4 * k + 4)
        for Ei in E:
            escape = sum(1 for a in tile_set if group.multiply(Ei, a) not in tile_set)
            assert escape * 2**k <= size, (k, Ei, escape)
    for k in (0, 1):
        diam = t.tile_diameter(k, mode="exact")
        assert diam.value <= 10 * 2 ** (k + 2), (k, diam.value)
    elapsed = time.time() - started
    assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds 60s"
    report(2, f"Heisenberg tiles to k=4 ({len(tiles[4])} elements) verified, {elapsed:.1f}s")


def test_criterion_3_lamplighter_tiling():
    started = time.time()
    m = 2
    t = LamplighterTiling(m)
    for k in range(4):
        assert t.letter_count(k) == (2 * m * m if k == 0 else 2 * m ** (2**k))
        fol = t.folner_constant(k)
        assert fol.value <= Fraction(1, 2 ** (k + 1)), (k, fol.value)
    for k in range(4):
        # pair i joins the points drawn at counters 2i and 2i + 1 of seed 31;
        # no pair exceeds the bound exactly when the largest does not
        bound = (m + 1) * 2 ** (k + 1)
        diam = t.tile_diameter(k, mode="sampled", samples=100_000 if k == 3 else 20_000, seed=31)
        assert diam.value <= bound == diam.claimed, (k, diam.value)
    elapsed = time.time() - started
    report(3, f"lamplighter epsilon exact, sampled diameters within (m+1)2^(k+1), {elapsed:.1f}s")


@pytest.fixture(scope="module")
def z2z():
    return MatchedCoupling(ZnTiling(2), ZnGroupedTiling(1, 2), max_depth=40)


@pytest.fixture(scope="module")
def z4heis():
    return MatchedCoupling(ZnTiling(4), HeisTiling(), max_depth=40)


def test_criterion_4_tail_law(z2z, z4heis):
    started = time.time()
    N = 100_000
    checked = 0
    for coupling in (z2z, z4heis):
        for which in ("left", "right"):
            action = coupling.side(which)
            for s in action.group.generators:
                freqs = mc_tail_frequencies(action, s, range(7), N, seed=2024)
                for k in range(7):
                    exact = action.exact_tail(s, k)
                    p = float(exact)
                    se = math.sqrt(p * (1 - p) / N)
                    assert abs(freqs[k][0] - p) <= 4 * se + 1e-12, (
                        action.tiling.name,
                        s,
                        k,
                        freqs[k][0],
                        p,
                    )
                    checked += 1
    elapsed = time.time() - started
    report(4, f"{checked} tail frequencies match exact tile ratios within 4 se, {elapsed:.1f}s")


def test_criterion_5_integrability_separation(z2z):
    started = time.time()
    # the stratified series is truncated at the coupling's max depth (its
    # stated contract); stabilization is judged on the strata at k <= 12
    fine = mc_integrability(
        z2z, "left", (1, 0), IntegrabilityGauge.power(0.4), 20_000, 7
    )
    terms = fine.bound_terms
    assert math.isfinite(fine.estimate)
    assert fine.estimate <= fine.stratified_bound
    last_two = terms[11] + terms[12]
    assert last_two < 0.05 * fine.stratified_bound, "p=0.4 strata fail to stabilize"
    assert not fine.diverging

    coarse = mc_integrability(
        z2z, "left", (1, 0), IntegrabilityGauge.power(0.6), 10, 7, strata_depth=12
    )
    cterms = coarse.bound_terms
    assert all(cterms[k + 1] > cterms[k] for k in range(2, len(cterms) - 1)), (
        "p=0.6 strata fail to grow monotonically"
    )
    assert cterms[-1] + cterms[-2] >= 0.05 * coarse.stratified_bound
    assert coarse.diverging
    elapsed = time.time() - started
    assert elapsed < 120, f"runtime {elapsed:.1f}s exceeds 2 min"
    report(5, f"power 0.4 stabilizes, power 0.6 stratified sums diverge, {elapsed:.1f}s")


def test_criterion_6_bsll_coupling():
    started = time.time()
    # (a) L-infinity direction, exhaustively over the only digit that matters
    for k in (2, 3):
        C = BsLamplighterCoupling(k)
        for seed in range(5):
            x = C.point(derive(55, seed))
            assert C.move_distance("bs", ((), 1), x) == 1
            assert C.move_distance("bs", ((), -1), x) == 1
        lamp_gens = [C.lamplighter.make({0: 1}, 0)]
        if k > 2:
            lamp_gens.append(C.lamplighter.make({0: k - 1}, 0))
        for v in range(k):
            for g in lamp_gens:
                x = C.point(7, {0: v})
                assert C.move_distance("bs", g, x) <= k - 1, (k, v, g)
    # (b) exponential tail at N = 1e6, M <= 8, |g|_T <= 3
    N = 1_000_000
    cases = {
        2: [(1, 0, 0), (1, 0, 1), (3, 0, 0)],
        3: [(1, 0, 0), (1, 0, 1), (2, 0, 1)],
    }
    checked = 0
    for k, gs in cases.items():
        C = BsLamplighterCoupling(k)
        for g in gs:
            assert C.bs.word_length(g) <= 3, (k, g)
            sweeps = C.tail_bound_sweep(g, range(2, 9), N, seed=606)
            for M, rep in sweeps.items():
                # the CLI's verdict: 4 sigma with sigma taken at the bound
                assert rep.passes, (k, g, M, rep.freq, rep.bound)
                checked += 1
    elapsed = time.time() - started
    assert elapsed < 300, f"runtime {elapsed:.1f}s exceeds 5 min"
    report(6, f"L-inf distances exact, {checked} exponential-tail checks at N=1e6, {elapsed:.0f}s")


def test_criterion_7_gradient_transfer(z2z):
    started = time.time()
    # Lemma: norm preservation exact and transport bound on 1000 instances
    Z = ZN(1)
    ll = Lamplighter(2)
    z_orbit = TransitiveAction(Z, range(-48, 48), lambda g, s: s + g[0] if -48 <= s + g[0] < 48 else None)
    ll_orbit = TransitiveAction(ll, range(10), lambda g, s: (s + g[1]) % 10)
    rng = random.Random(77)
    done = 0
    while done < 1000:
        if done % 2 == 0:
            orbit, grp = z_orbit, Z
            mk = lambda: (rng.randrange(-8, 9),)
        else:
            orbit, grp = ll_orbit, ll
            mk = lambda: ll.make(
                {i: 1 for i in rng.sample(range(-2, 3), rng.randrange(2))}, rng.randrange(-4, 5)
            )
        f = FiniteSupportFunction(grp, {mk(): float(rng.randrange(-4, 5)) for _ in range(rng.randrange(1, 5))})
        # base points stay in the window interior so supports never truncate
        x0 = rng.randrange(-30, 30) if grp is Z else rng.randrange(10)
        x1 = rng.randrange(-30, 30) if grp is Z else rng.randrange(10)
        rep = push_to_orbit(f, orbit, x0, x1, 1)
        # integer data at p = 1: float sums are exact, so compare exactly
        assert rep.norm_in == rep.norm_pushed
        assert rep.lhs <= rep.rhs
        done += 1
    # induced-gradient inequality: deterministic on the identity coupling
    cid = MatchedCoupling(ZnTiling(1), ZnTiling(1), max_depth=24)
    f = FiniteSupportFunction(Z, {(i,): float(v) for i, v in enumerate((2, -1, 3, 1))})
    det = induced_gradient_check(cid, "left", f, 1, 64, 5)
    assert det.deterministic and det.holds_within(0)
    # and within 3 sigma on the Z^2 <-> Z coupling at N = 1e4
    fz = FiniteSupportFunction(Z, {(i,): 1.0 for i in range(6)})
    mc = induced_gradient_check(z2z, "left", fz, 1, 10_000, 6)
    assert mc.holds_within(3)
    elapsed = time.time() - started
    report(7, f"1000 transport instances exact, induced-gradient bounds hold, {elapsed:.1f}s")


def test_criterion_8_return_time(z2z, z4heis):
    started = time.time()
    rng = random.Random(88)
    checked = 0
    for coupling, which, depth_range, ns in (
        (z2z, "left", (1, 2), (2, 3, 4, 5, 6)),
        (z2z, "right", (1, 2), (3, 4, 5, 6)),
        (z4heis, "left", (1,), (1, 2)),
        (z4heis, "right", (1,), (2, 3)),
    ):
        action = coupling.side(which)
        count = 6 if coupling is z2z else 4
        for j in range(count):
            depth = depth_range[j % len(depth_range)]
            sizes = [action.tiling.letter_count(i) for i in range(depth)]
            full = 1
            for c in sizes:
                full *= c
            want = rng.randrange(max(1, full // 2), full + 1)
            pats = set()
            while len(pats) < want:
                pats.add(tuple(rng.randrange(c) for c in sizes))
            cyl = CylinderSet(depth, frozenset(pats))
            n = ns[j % len(ns)]
            rep = return_time_density(action, cyl, n, 400, seed=900 + j)
            assert rep.holds_within >= -3, (action.tiling.name, j, rep)
            checked += 1
    assert checked == 20
    elapsed = time.time() - started
    report(8, f"return-time density bound holds on {checked} cylinder sets, {elapsed:.1f}s")


def test_criterion_9_hyperbolicity_suite():
    started = time.time()
    # trees are exactly 0-thin
    for seed in range(5):
        assert rips_delta(MetricGraph.random_tree(30, seed)) == 0
    # geodesic-stability audit: 1000 instances, zero violations
    zoo = [
        MetricGraph.path_graph(15),
        MetricGraph.cycle_graph(12),
        MetricGraph.grid_graph(6, 6),
        MetricGraph.random_tree(40, 7),
        MetricGraph.cayley_ball(ZN(2), 4),
        MetricGraph.cayley_ball(Heisenberg(), 3),
        MetricGraph.cayley_ball(Lamplighter(2), 5),
        MetricGraph.cayley_ball(BaumslagSolitar(2), 5),
    ]
    rng = random.Random(99)
    audits = 0
    for G in zoo:
        delta = rips_delta(G)
        for _ in range(125):
            v = rng.randrange(G.n)
            path = [v]
            for _ in range(rng.randrange(1, 12)):
                v = rng.choice(G.adj[v])
                path.append(v)
            assert geodesic_stability_check(G, path, delta=delta).passes
            audits += 1
    assert audits == 1000
    # grid-boundary distortion: a = 1/2, b = 1, delta above the rearranged bound
    deltas = {}
    for n in (6, 10, 14, 18):
        G = MetricGraph.grid_graph(n + 1, n + 1)
        idx = lambda x, y: x * (n + 1) + y
        cyc = (
            [idx(x, 0) for x in range(n)]
            + [idx(n, y) for y in range(n)]
            + [idx(x, n) for x in range(n, 0, -1)]
            + [idx(0, y) for y in range(n, 0, -1)]
        )
        rep = cycle_distortion(G, cyc)
        assert rep.a == Fraction(1, 2) and rep.b == 1, (n, rep.a, rep.b)
        delta = rips_delta(G)
        deltas[n] = delta
        n_cycle = rep.n
        lower = (float(rep.a) * n_cycle / 2 - 4 - 2 * float(rep.b)) / (
            4 * math.log2(float(rep.b) * n_cycle / 2)
        )
        assert float(delta) >= lower, (n, delta, lower)
    assert deltas[18] > deltas[6], "delta should grow with the grid"
    # constructive extraction on the 20 x 20 grid
    G = MetricGraph.grid_graph(21, 21)
    res = extract_fat_cycle(G)
    audit = cycle_distortion(G, res.cycle)
    assert audit.a == res.report.a and audit.b == res.report.b
    assert res.report.n >= min_cycle_length(res.delta)
    assert res.report.a >= CONTRACTION_FLOOR
    elapsed = time.time() - started
    assert elapsed < 180, f"runtime {elapsed:.1f}s exceeds 3 min"
    report(9, f"trees 0-thin, 1000 audits clean, grid deltas {dict(deltas)}, extraction audited, {elapsed:.0f}s")
