import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oelab._rng import BLOCK, derive, derive_array
from oelab.coupling import (
    CouplingPoint,
    CylinderSet,
    IntegrabilityGauge,
    MatchedCoupling,
    TilingAction,
    mc_integrability,
    mc_tail_frequencies,
    return_time_density,
)
from oelab.errors import DepthExhausted, UsageError
from oelab.tilings import HeisTiling, LamplighterTiling, ZBlocksTiling, ZnGroupedTiling, ZnTiling, builtin


@pytest.fixture(scope="module")
def z2z():
    return MatchedCoupling(ZnTiling(2), ZnGroupedTiling(1, 2), max_depth=28)


@pytest.fixture(scope="module")
def z4heis():
    return MatchedCoupling(ZnTiling(4), HeisTiling(), max_depth=28)


@pytest.fixture(scope="module")
def llz():
    return MatchedCoupling(LamplighterTiling(2), builtin("zmatch:ll:2"), max_depth=10)


def _stabilization_depth(act: TilingAction, gamma, x: CouplingPoint) -> int:
    """Oracle: rho(gamma.x, x), the first index beyond which all coordinates agree.

    At the first rewrite depth n the n-th coordinate provably changes
    (otherwise the rewrite would already have happened at depth n-1), so
    rho = n + 1 whenever gamma.x != x.  The tile-measure tail law is
    therefore phrased in terms of rewrite depth: mu({rewrite depth > k})
    equals |T_k \\ gamma^-1 T_k| / |T_k|, which is what exact_tail and
    mc_tail_frequencies compute.
    """
    y, n = act.act(gamma, x)
    rho = 0
    for k in range(n + 1):
        if act.coordinate(y, k) != act.coordinate(x, k):
            rho = k + 1
    return rho


def test_act_odometer_carry():
    act = TilingAction(ZnTiling(1), max_depth=16)
    x = CouplingPoint((1, 1, 1, 0), 7)  # letters 1, 2, 4, 0
    y, n = act.act((1,), x)
    assert n == 3
    assert y.prefix == (0, 0, 0, 1)  # letters 0, 0, 0, 8
    assert _stabilization_depth(act, (1,), x) == 4


def test_act_identity_and_depth0():
    act = TilingAction(ZnTiling(1), max_depth=16)
    x = CouplingPoint((1, 1, 1), 7)
    assert act.act((0,), x) == (x, 0)
    x0 = CouplingPoint((0, 1, 1), 7)
    y, n = act.act((1,), x0)
    assert n == 0 and y.prefix == (1, 1, 1)


def test_stabilization_examples():
    act = TilingAction(ZnTiling(1), max_depth=16)
    assert _stabilization_depth(act, (0,), CouplingPoint((1, 0), 3)) == 0
    # 1 + 1 = 2 = 0 + 2: coordinates 0 and 1 change
    assert _stabilization_depth(act, (1,), CouplingPoint((1, 0), 3)) == 2


def test_rho_equals_rewrite_depth_plus_one(z2z):
    rng = random.Random(10)
    act = z2z.left
    for _ in range(300):
        gamma = (rng.randrange(-3, 4), rng.randrange(-3, 4))
        if gamma == (0, 0):
            continue
        x = CouplingPoint((), rng.getrandbits(60))
        _, n = act.act(gamma, x)
        assert _stabilization_depth(act, gamma, x) == n + 1


def test_exact_tail_examples():
    act = TilingAction(ZnTiling(1))
    assert act.exact_tail((1,), 1) == Fraction(1, 4)
    assert act.exact_tail((3,), 1) == Fraction(3, 4)
    assert act.exact_tail((0,), 2) == 0


def test_exact_tail_right_orientation_asymmetric():
    # closed form vs enumeration for a right tiling and a non-symmetric
    # element: the tail set is T_k \ T_k gamma
    t = LamplighterTiling(2)
    act = TilingAction(t, max_depth=8)
    grp = t.group
    for gamma in [grp.make({0: 1}, 1), grp.make({2: 1}, -1), grp.make({}, 2)]:
        for k in (1, 2):
            tiles = set(t.build_tiles(k)[k])
            ginv = grp.inverse(gamma)
            esc = sum(1 for x in tiles if grp.multiply(x, ginv) not in tiles)
            assert act.exact_tail(gamma, k) == Fraction(esc, len(tiles)), (gamma, k)
    # and the Monte Carlo tail agrees
    gamma = grp.make({0: 1}, 1)
    freqs = mc_tail_frequencies(act, gamma, range(3), 4000, seed=3)
    for k, (p, se) in freqs.items():
        assert abs(p - float(act.exact_tail(gamma, k))) <= 4 * se + 1e-9


def test_action_property_random(z2z, z4heis):
    for coupling, count in ((z2z, 500), (z4heis, 500)):
        for which in ("left", "right"):
            action = coupling.side(which)
            grp = action.group
            gens = grp.generators
            rng = random.Random(hash(which) & 0xFFF)
            for _ in range(count):
                g1 = gens[rng.randrange(len(gens))]
                g2 = gens[rng.randrange(len(gens))]
                for _ in range(2):
                    g1 = grp.multiply(g1, gens[rng.randrange(len(gens))])
                x = CouplingPoint((), rng.getrandbits(60))
                y2, n2 = action.act(g2, action.act(g1, x)[0])
                y12, n12 = action.act(grp.multiply(g2, g1), x)
                top = max(n2, n12, 1)
                assert action.coordinates(y2, top) == action.coordinates(y12, top)


def test_orbit_identity(z2z, z4heis, llz):
    # applying the transfer cocycle on the partner side reproduces Psi(gamma.x)
    for coupling in (z2z, z4heis, llz):
        for which, partner in (("left", "right"), ("right", "left")):
            grp = coupling.side(which).group
            rng = random.Random(3)
            for _ in range(60):
                gamma = grp.generators[rng.randrange(len(grp.generators))]
                x = CouplingPoint((), rng.getrandbits(60))
                try:
                    lam, y, n = coupling.transfer_cocycle(which, gamma, x)
                    ylam, n2 = coupling.act(partner, lam, x)
                except DepthExhausted:
                    continue  # possible for the shallow lamplighter coupling
                top = max(n, n2, 1)
                assert coupling.side(partner).coordinates(ylam, top) == coupling.side(
                    partner
                ).coordinates(y, top)


def test_transfer_identity_coupling_returns_gamma():
    # heis is left-oriented and ll:2 right-oriented; neither is abelian, so a
    # product taken in the wrong order shows up as a wrong cocycle
    rng = random.Random(4)
    for spec in ("zn:2", "heis", "ll:2"):
        cid = MatchedCoupling(builtin(spec), builtin(spec), max_depth=20)
        group = cid.left.group
        for _ in range(100):
            gamma = group.identity
            for _ in range(rng.randrange(1, 6)):
                gamma = group.multiply(gamma, rng.choice(group.generators))
            x = CouplingPoint((), rng.getrandbits(60))
            lam, _, _ = cid.transfer_cocycle("left", gamma, x)
            assert lam == gamma, spec
        # identity element transfers to the identity
        lam, _, _ = cid.transfer_cocycle("left", group.identity, CouplingPoint((), 9))
        assert lam == group.identity


def test_transfer_depth0_letter_difference(z2z):
    # gamma = e1 on the all-zero prefix rewrites at depth 0; the partner
    # element is the difference of the matched letters
    x = CouplingPoint((0,), 5)
    lam, y, n = z2z.transfer_cocycle("left", (1, 0), x)
    assert n == 0
    zt = z2z.right.tiling
    f_new = zt.letter(0, y.prefix[0])[0]
    f_old = zt.letter(0, 0)[0]
    assert lam == (f_new - f_old,)


def test_measure_preservation_permutation(z2z, z4heis):
    # acting on the prefix space is a partial injection whose escape count
    # matches the exact tile tail
    cases = [(z2z, "left", 3), (z2z, "right", 3), (z4heis, "right", 2)]
    for coupling, which, K in cases:
        action = coupling.side(which)
        t = action.tiling
        for k in range(K + 1):
            dom = list(itertools.product(*[range(t.letter_count(j)) for j in range(k + 1)]))
            for s in action.group.generators:
                image = set()
                escaped = 0
                for pref in dom:
                    y, n = action.act(s, CouplingPoint(tuple(pref), 0))
                    if n > k:
                        escaped += 1
                        continue
                    key = tuple(y.prefix[: k + 1])
                    assert key not in image
                    image.add(key)
                assert Fraction(escaped, len(dom)) == action.exact_tail(s, k)


def test_mc_tail_matches_exact(z2z, z4heis):
    for coupling, which, gens_to_test, N in (
        (z2z, "left", 2, 8000),
        (z2z, "right", 2, 8000),
        (z4heis, "right", 2, 5000),
    ):
        action = coupling.side(which)
        for s in action.group.generators[:gens_to_test]:
            freqs = mc_tail_frequencies(action, s, range(5), N, seed=42)
            for k, (p, se) in freqs.items():
                exact = float(action.exact_tail(s, k))
                assert abs(p - exact) <= 4 * se + 1e-9, (which, s, k, p, exact)


# zn:1..4, grouped, heis (left tilings with array hooks), zmatch (a box
# tiling whose letters leave int64 past level 4) and ll:2 (right, scalar)
_DEPTH_SPECS = ["zn:1", "zn:2", "zn:3", "zn:4", "zn:1:grouped:2", "zn:2:grouped:3",
                "zn:1:grouped:40", "heis", "zmatch:ll:2", "ll:2"]
_ENTRY = st.one_of(
    st.integers(-3, 3),
    st.integers(-(1 << 45), 1 << 45),
    st.sampled_from([1 << 61, -(1 << 61), 1 << 62, 1 << 64]),
)


@st.composite
def _tiling_and_gamma(draw):
    spec = draw(st.sampled_from(_DEPTH_SPECS))
    group = builtin(spec).group
    if group.name.startswith("ll:"):
        return spec, draw(st.sampled_from(sorted(group.ball(2))))
    entries = st.tuples(*[_ENTRY] * len(group.identity))
    return spec, draw(st.one_of(st.just(group.identity), entries))


@given(
    case=_tiling_and_gamma(),
    max_depth=st.sampled_from([0, 1, 2, 3, 5, 40]),
    seed=st.integers(0, (1 << 64) - 1),
)
@example(case=("heis", (0, 0, 1 << 61)), max_depth=40, seed=7)
@example(case=("heis", (-5, 1, -100)), max_depth=40, seed=8)
@example(case=("zn:1:grouped:40", (1,)), max_depth=40, seed=9)
@example(case=("zmatch:ll:2", (1 << 40,)), max_depth=40, seed=10)
@example(case=("zmatch:ll:2", (3,)), max_depth=40, seed=11)
@example(case=("zn:2", (1, 0)), max_depth=2, seed=12)
@example(case=("ll:2", ((), 1)), max_depth=5, seed=13)
@settings(max_examples=80, deadline=None)
def test_depths_match_act_per_sample(case, max_depth, seed):
    spec, gamma = case
    action = TilingAction(builtin(spec), max_depth)
    samples = 40
    got = action.depths(gamma, derive_array(seed, np.arange(samples)))
    for i in range(samples):
        try:
            want = action.act(gamma, CouplingPoint((), derive(seed, i)))[1]
        except DepthExhausted:
            want = max_depth + 1
        assert got[i] == want, (spec, gamma, max_depth, i)


def test_depth_kernel_guard_and_blocks():
    # the int64 guard: heis (0, 0, 2^61) runs its first levels in the kernel
    # and leaves the box tilings' kernel at once when |gamma| >= 2^62
    heis, zn = HeisTiling(), ZnTiling(1)
    assert heis.int64_bound((0, 0, 1 << 61), 0) < 1 << 62 <= heis.int64_bound((0, 0, 1 << 61), 30)
    assert zn.int64_bound((1 << 62,), 0) >= 1 << 62
    assert LamplighterTiling(2).int64_bound(((), 1), 0) is None
    # more samples than one block, and a suffix of them, get the same depths
    action = TilingAction(ZnTiling(2), 40)
    seeds = derive_array(5, np.arange(10_000))
    whole = action.depths((1, 0), seeds)
    assert list(whole[9000:]) == list(action.depths((1, 0), seeds[9000:]))
    assert len(action.depths((1, 0), seeds[:0])) == 0


def test_depth_gate_keeps_its_letter_count_half():
    # zn:4:grouped:16 has (2^16)^4 = 2^64 letters at level 0 under a bound of
    # 1 + 4 * 2^16: the letter count alone closes the gate, so depths runs act, whose
    # answers it must give sample for sample (an array draw would overflow)
    t = builtin("zn:4:grouped:16")
    gamma = (1, 0, 0, 0)
    assert t.int64_bound(gamma, 0) == 262_145 and t.letter_count(0) == 1 << 64
    assert t.proven_bound(gamma, 0) is None
    assert ZnTiling(4).proven_bound(gamma, 3) == 65
    assert LamplighterTiling(2).proven_bound(((), 1), 0) is None
    action = TilingAction(t, 3)
    seeds = derive_array(3, np.arange(40))
    got = action.depths(gamma, seeds)
    for i, seed in enumerate(seeds.tolist()):
        try:
            want = action.act(gamma, CouplingPoint((), seed))[1]
        except DepthExhausted:
            want = 4
        assert got[i] == want, i


def test_lamplighter_identity_depths_are_zero(monkeypatch):
    # ll's gate admits the identity alone, whose depth is 0 at every sample, as act says
    action = TilingAction(LamplighterTiling(2), 5)
    identity = action.group.identity
    assert action.tiling.proven_bound(identity, 0) is not None
    seeds = derive_array(4, np.arange(300))
    assert [action.act(identity, CouplingPoint((), s))[1] for s in seeds.tolist()] == [0] * 300
    monkeypatch.setattr(action, "act", lambda *a: pytest.fail("ran the scalar act"))
    assert not action.depths(identity, seeds).any()
    freqs = mc_tail_frequencies(action, identity, range(6), 5000, seed=2)
    assert freqs == {k: (0.0, 0.0) for k in range(6)}


def test_mc_tail_memory_is_flat_in_samples():
    action = TilingAction(ZnTiling(1), 40)
    tracemalloc.start()
    try:
        freqs = mc_tail_frequencies(action, (1,), range(3), 1_000_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a few block-sized int64 arrays; one array over all 10^6 samples is 8 MB
    assert peak < 32 * 8 * BLOCK, peak
    assert abs(freqs[0][0] - 0.5) < 0.005


def test_tail_beyond_max_depth_is_a_usage_error():
    # an exhausted sample's depth is known only to exceed max_depth, so the
    # tail at k > max_depth cannot be counted; k = max_depth still can
    action = TilingAction(ZnTiling(1), 3)
    with pytest.raises(UsageError):
        mc_tail_frequencies(action, (1,), range(5), 100, seed=1)
    freq, _ = mc_tail_frequencies(action, (1,), [3], 2000, seed=1)[3]
    assert abs(freq - 1 / 16) <= 4 * math.sqrt(1 / 16 * 15 / 16 / 2000)


def test_depth_exhausted_is_reported(llz):
    shallow = MatchedCoupling(LamplighterTiling(2), builtin("zmatch:ll:2"), max_depth=2)
    gamma = ((), 1)
    hits = 0
    for i in range(2000):
        try:
            shallow.act("left", gamma, CouplingPoint((), derive(3, i)))
        except DepthExhausted:
            hits += 1
    # escape probability at depth 2 is epsilon_2 = 1/8
    assert 0.10 <= hits / 2000 <= 0.16


def test_gauges():
    g = IntegrabilityGauge.power(0.5)
    assert g(4) == 2.0
    assert IntegrabilityGauge("identity")(7) == 7.0
    assert IntegrabilityGauge("exp", 0.5)(0) == 1.0
    lp = IntegrabilityGauge("logpow", 1.0)
    assert lp(0) > 0 and lp(10) > lp(5)
    # gauges accept exact integers far beyond float range
    assert lp(10**600) > lp(10**300)
    assert IntegrabilityGauge.power(0.4)(10**600) == pytest.approx(1e240, rel=1e-9)
    assert IntegrabilityGauge.power(2.0)(10**600) == math.inf
    # every overflow saturates: power's second stage exp(p log t), exp and identity
    assert IntegrabilityGauge.power(0.4)(10**600) == math.exp(0.4 * math.log(10**600))
    assert IntegrabilityGauge.power(2.0)(1e200) == math.inf
    assert IntegrabilityGauge("exp", 1.0)(1000) == math.inf
    assert IntegrabilityGauge("identity")(10**400) == math.inf
    with pytest.raises(UsageError):
        IntegrabilityGauge.power(0)
    with pytest.raises(UsageError):
        IntegrabilityGauge("logpow", 3.0)  # loses monotonicity past ~2.15
    with pytest.raises(UsageError):
        IntegrabilityGauge.from_spec("power:x")
    assert IntegrabilityGauge.from_spec("exp:0.1").describe() == "exp:0.1"
    assert IntegrabilityGauge.from_spec("identity").describe() == "identity"
    # the identity takes no parameter, every other kind a finite one
    for kind, param in [("identity", 1.0), ("power", None), ("power", math.nan), ("power", math.inf),
                        ("exp", math.inf), ("exp", -math.inf), ("logpow", math.nan), ("log", 1.0)]:
        with pytest.raises(UsageError):
            IntegrabilityGauge(kind, param)
    for spec in ("identity:abc", "identity:", "identity:1", "power", "power:nan", "exp:inf", "logpow:-inf"):
        with pytest.raises(UsageError):
            IntegrabilityGauge.from_spec(spec)


@pytest.mark.parametrize(
    "which,gamma,flat", [("left", (1, 0, 0, 0), 40.0), ("right", (1, 0, 0), 16.0)], ids=["zn4", "heis"]
)
def test_gauge_comparison_zn4_heis(z4heis, which, gamma, flat):
    # t^0.4 and t^0.6 make the stratified series settle, with each estimate
    # below its bound
    for p in (0.4, 0.6):
        rep = mc_integrability(z4heis, which, gamma, IntegrabilityGauge.power(p), 500, 7)
        terms = rep.bound_terms
        assert terms[-1] + terms[-2] < 0.05 * rep.stratified_bound, p
        assert rep.estimate <= rep.stratified_bound, p
        assert rep.exhausted_fraction == 0, p
    # at t^1 every stratum past the first is 2 R'_k (eps_{k-1} - eps_k), one
    # constant: the borderline the L^p (p < 1) statement predicts
    rep = mc_integrability(z4heis, which, gamma, IntegrabilityGauge.power(1.0), 500, 7)
    assert rep.bound_terms[1:] == [flat] * (len(rep.bound_terms) - 1)


def test_integrability_strata_stop_at_the_first_infinite_term(monkeypatch):
    # exp(2 R'_k) leaves float range at k = 4 (R'_4 = 4^5); no later radius is formed
    c = MatchedCoupling(ZnTiling(2), ZnGroupedTiling(1, 2), max_depth=40)
    partner = c.right.tiling
    asked = []
    radius = partner.claimed_radius
    monkeypatch.setattr(partner, "claimed_radius", lambda k: asked.append(k) or radius(k))
    rep = mc_integrability(c, "left", (0, 1), IntegrabilityGauge("exp", 1.0), 20, 3)
    assert asked == [0, 1, 2, 3, 4]
    assert rep.bound_terms[4:] == [math.inf] * 37
    assert all(math.isfinite(t) for t in rep.bound_terms[:4])


def test_logpow_gauge_monotone_grid():
    for eps in (0.0, 0.7, 2.0):
        g = IntegrabilityGauge("logpow", eps)
        xs = [i / 20 for i in range(100)] + [10.0**k for k in range(1, 14)]
        vals = [g(x) for x in xs]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:])), eps


def test_z_lamplighter_directional_signature():
    # the coupling between Z and the lamplighter separates the directions:
    # exp gauges are summable when acting on the Z side (small c only), and
    # the Z-side distances of lamp moves need the corrected-log gauge
    # (summable strata for eps > 0, harmonic-like growth at eps = 0)
    C = MatchedCoupling(LamplighterTiling(2), builtin("zmatch:ll:2"), max_depth=12)
    small = mc_integrability(C, "right", (1,), IntegrabilityGauge("exp", 0.02), 200, 3, strata_depth=10)
    assert not small.diverging and small.bound_terms[-1] < small.bound_terms[1]
    big = mc_integrability(C, "right", (1,), IntegrabilityGauge("exp", 0.12), 200, 3, strata_depth=10)
    assert big.diverging

    lamp = (((0, 1),), 0)
    fine = mc_integrability(C, "left", lamp, IntegrabilityGauge("logpow", 1.0), 200, 4, strata_depth=12)
    coarse = mc_integrability(C, "left", lamp, IntegrabilityGauge("logpow", 0.0), 200, 4, strata_depth=12)

    def tail_ratio(rep):
        t, S = rep.bound_terms, rep.bound_partial_sums
        return (t[-1] + t[-2]) / S[-1], (S[12] - S[8]) / (S[8] - S[4])

    fine_tail, fine_inc = tail_ratio(fine)
    coarse_tail, coarse_inc = tail_ratio(coarse)
    assert fine_tail < 0.02 and fine_inc < 0.5
    assert coarse_tail > 0.03 and coarse_inc > 0.5


def test_integrability_identity_coupling():
    cid = MatchedCoupling(ZnTiling(2), ZnTiling(2), max_depth=20)
    rep = mc_integrability(cid, "left", (1, 0), IntegrabilityGauge("identity"), 500, 1)
    assert rep.estimate == 1.0 and rep.stderr == 0.0 and rep.exhausted_fraction == 0.0


def test_integrability_stratified_signature(z2z):
    # p = 0.4 < n/m = 1/2: strata terms decay; p = 0.6 > 1/2: they grow
    fine = mc_integrability(
        z2z, "left", (1, 0), IntegrabilityGauge.power(0.4), 4000, 2, strata_depth=12
    )
    coarse = mc_integrability(
        z2z, "left", (1, 0), IntegrabilityGauge.power(0.6), 10, 2, strata_depth=12
    )
    assert fine.bound_terms is not None
    assert fine.bound_terms[-1] < fine.bound_terms[1]
    assert not fine.diverging
    assert fine.estimate <= fine.stratified_bound
    assert coarse.bound_terms[-1] > coarse.bound_terms[-2] > coarse.bound_terms[-3]
    assert coarse.diverging


def test_integrability_exp_divergence_flag(z2z):
    rep = mc_integrability(
        z2z, "left", (1, 0), IntegrabilityGauge("exp", 1.0), 10, 3, strata_depth=8
    )
    assert rep.diverging


def test_return_time_whole_space(z2z):
    cyl = CylinderSet(1, frozenset((i,) for i in range(4)))
    rep = return_time_density(z2z.left, cyl, 2, 60, 5)
    assert abs(rep.lhs - 1.0) < 1e-12 and rep.rhs == 1.0


def test_return_time_formula_and_half_cylinder(z2z):
    cyl34 = CylinderSet(1, frozenset([(0,), (1,), (2,)]))
    rep = return_time_density(z2z.left, cyl34, 3, 300, 6)
    assert rep.rhs == 0.5
    assert rep.holds_within > -3
    half = CylinderSet(1, frozenset([(0,), (1,)]))
    rep2 = return_time_density(z2z.left, half, 4, 300, 7)
    assert rep2.rhs == 0.0 and rep2.lhs >= -1e-12


def test_cylinder_validation():
    with pytest.raises(UsageError):
        CylinderSet(0, frozenset())
    with pytest.raises(UsageError):
        CylinderSet(2, frozenset([(1,)]))
    cyl = CylinderSet(2, frozenset([(0, 1)]))
    assert cyl.measure(ZnTiling(2)) == Fraction(1, 16)


def test_mismatched_letter_counts_rejected():
    with pytest.raises(UsageError):
        MatchedCoupling(ZnTiling(2), ZnTiling(1))


def test_deep_letter_counts_checked_without_state():
    # the counts first differ at level 10, past the levels checked up front
    coupling = MatchedCoupling(ZBlocksTiling(lambda k: 2 if k < 10 else 3), ZnTiling(1), max_depth=20)
    x = CouplingPoint((0,) * 12)
    before = dict(vars(coupling))
    _, n = coupling.act("left", (1 << 9,), x)
    assert n == 9 and vars(coupling) == before
    for _ in range(2):
        with pytest.raises(UsageError, match="level 10"):
            coupling.act("left", (1 << 10,), x)


def test_determinism_across_runs(z2z):
    a = mc_tail_frequencies(z2z.left, (1, 0), range(4), 2000, seed=17)
    b = mc_tail_frequencies(z2z.left, (1, 0), range(4), 2000, seed=17)
    assert a == b
    r1 = mc_integrability(z2z, "left", (0, 1), IntegrabilityGauge.power(0.4), 1000, 17)
    r2 = mc_integrability(z2z, "left", (0, 1), IntegrabilityGauge.power(0.4), 1000, 17)
    assert r1.estimate == r2.estimate and r1.stderr == r2.stderr


def test_exhausted_points_fill_the_deepest_tail():
    # at max_depth 2 a point has rewrite depth > 2 exactly when it exhausts,
    # so both estimators must count the same samples
    shallow = MatchedCoupling(LamplighterTiling(2), builtin("zmatch:ll:2"), max_depth=2)
    gamma = ((), 1)
    freqs = mc_tail_frequencies(shallow.left, gamma, [0, 1, 2], 2000, 3)
    rep = mc_integrability(shallow, "left", gamma, IntegrabilityGauge("identity"), 2000, 3)
    assert rep.exhausted_fraction == 0.1185
    assert freqs[2][0] == rep.exhausted_fraction
