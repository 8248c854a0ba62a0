import itertools
import random
from fractions import Fraction

import pytest

from oelab.coupling import IntegrabilityGauge, MatchedCoupling
from oelab.errors import TruncationError, UsageError
from oelab.functional import (
    FiniteSupportFunction,
    TransitiveAction,
    _connected_supports,
    _untried_search,
    folner_set_quality,
    induced_gradient_check,
    isoperimetric_profile,
    push_to_orbit,
)
from oelab.groups import ZN, Lamplighter, group_from_spec
from oelab.tilings import HeisTiling, LamplighterTiling, ZnGroupedTiling, ZnTiling

Z = ZN(1)


def z_orbit(lo=-40, hi=40):
    return TransitiveAction(Z, range(lo, hi), lambda g, s: s + g[0] if lo <= s + g[0] < hi else None)


def test_gradient_examples():
    f = FiniteSupportFunction(Z, {(i,): 1.0 for i in range(4)})
    assert f.gradient_power_sum("left", 1) == 4.0
    delta = FiniteSupportFunction(Z, {(0,): 1.0})
    assert delta.gradient_power_sum("left", 1) == 4.0  # 2 per generator
    assert FiniteSupportFunction(Z, {}).gradient_power_sum("left", 1) == 0.0
    z2 = ZN(2)
    d2 = FiniteSupportFunction(z2, {z2.identity: 1.0})
    assert d2.gradient_power_sum("left", 1) == 8.0  # 2|S| with |S| = 4


def test_gradient_left_right_differ_on_noncommutative():
    ll = Lamplighter(2)
    g = ll.make({0: 1}, 1)
    f = FiniteSupportFunction(ll, {ll.identity: 1.0, g: 2.0})
    # both finite and positive; equality is not expected in general
    assert f.gradient_power_sum("left", 1) > 0
    assert f.gradient_power_sum("right", 1) > 0


def test_push_norm_preserved_and_bound():
    f = FiniteSupportFunction(Z, {(i,): 1.0 for i in range(4)})
    rep = push_to_orbit(f, z_orbit(), 0, 1, 1)
    assert rep.lhs == 2.0 and rep.rhs == 4.0 and rep.holds
    assert rep.norm_in == rep.norm_pushed
    assert push_to_orbit(f, z_orbit(), 0, 0, 1).lhs == 0.0


def test_push_collision_case():
    orbit5 = TransitiveAction(Z, range(5), lambda g, s: (s + g[0]) % 5)
    f = FiniteSupportFunction(Z, {(0,): 1.0, (5,): 1.0})
    rep = push_to_orbit(f, orbit5, 0, 1, 1)
    assert rep.holds
    # collision: both atoms land on the same state, norms still preserved
    assert rep.norm_in == rep.norm_pushed


def test_push_truncation_error():
    f = FiniteSupportFunction(Z, {(100,): 1.0})
    with pytest.raises(TruncationError):
        push_to_orbit(f, z_orbit(-5, 5), 0, 1, 1)


def test_transport_inequality_random_instances():
    # the base-point transport bound on 1000 random (f, x0, x1), p in {1, 2},
    # across a Z line orbit and a lamplighter quotient orbit
    rng = random.Random(44)
    ll = Lamplighter(2)
    ll_orbit = TransitiveAction(ll, range(8), lambda g, s: (s + g[1]) % 8)
    z = z_orbit()
    for trial in range(1000):
        if trial % 2 == 0:
            orbit, grp = z, Z
            mk = lambda: (rng.randrange(-6, 7),)
        else:
            orbit, grp = ll_orbit, ll
            mk = lambda: ll.make(
                {i: rng.randrange(1, 2) for i in rng.sample(range(-2, 3), rng.randrange(2))},
                rng.randrange(-4, 5),
            )
        entries = {}
        for _ in range(rng.randrange(1, 5)):
            entries[mk()] = float(rng.randrange(-3, 4))
        f = FiniteSupportFunction(grp, entries)
        x0 = orbit.states[rng.randrange(len(orbit.states))]
        x1 = orbit.states[rng.randrange(len(orbit.states))]
        p = 1 if trial % 3 else 2
        try:
            rep = push_to_orbit(f, orbit, x0, x1, p)
        except TruncationError:
            continue
        assert rep.holds, (trial, rep)
        assert abs(rep.norm_in - rep.norm_pushed) < 1e-9


def test_l1_ratio_bound_for_sublinear_gauges():
    # the phi-variant of base-point transport: ||f||_1 / ||f_x0 - f_x1||_1
    # >= phi(||f||_1) / (2 phi(d)) for normalized right gradient, phi = t, sqrt
    rng = random.Random(9)
    orbit = z_orbit()
    for _ in range(300):
        entries = {(rng.randrange(-5, 6),): float(rng.randrange(1, 4)) for _ in range(rng.randrange(1, 4))}
        f = FiniteSupportFunction(Z, entries)
        g1 = f.gradient_power_sum("right", 1)
        if g1 == 0:
            continue
        f = FiniteSupportFunction(Z, {k: v / g1 for k, v in entries.items()})
        x0, x1 = rng.randrange(-8, 9), rng.randrange(-8, 9)
        rep = push_to_orbit(f, orbit, x0, x1, 1)
        if rep.lhs == 0:
            continue
        n1 = f.norm(1)
        d = rep.distance
        if d == 0:
            continue
        for phi in (lambda t: t, lambda t: t**0.5):
            assert n1 / rep.lhs >= phi(n1) / (2 * phi(d)) - 1e-9


@pytest.fixture(scope="module")
def z2z():
    return MatchedCoupling(ZnTiling(2), ZnGroupedTiling(1, 2), max_depth=26)


def test_induced_identity_coupling_deterministic():
    cid = MatchedCoupling(ZnTiling(1), ZnTiling(1), max_depth=18)
    f = FiniteSupportFunction(Z, {(0,): 2.0, (1,): -1.0, (2,): 1.0})
    rep = induced_gradient_check(cid, "left", f, 2, 50, 3)
    assert rep.deterministic and rep.lhs_stderr == 0.0
    fabs = FiniteSupportFunction(Z, {g: abs(v) for g, v in f.entries.items()})
    assert rep.lhs == fabs.gradient_power_sum("right", 2)
    assert rep.rhs == 2 * f.gradient_power_sum("right", 2)
    assert rep.holds_within(0)


def test_induced_delta_and_zero():
    cid = MatchedCoupling(ZnTiling(1), ZnTiling(1), max_depth=18)
    rep = induced_gradient_check(cid, "left", FiniteSupportFunction(Z, {(0,): 1.0}), 1, 10, 4)
    assert rep.lhs < rep.rhs  # strict for the delta function
    zero = induced_gradient_check(cid, "left", FiniteSupportFunction(Z, {}), 1, 10, 5)
    assert zero.lhs == 0.0 and zero.rhs == 0.0


def test_induced_mc_coupling(z2z):
    f = FiniteSupportFunction(Z, {(i,): 1.0 for i in range(5)})
    rep = induced_gradient_check(z2z, "left", f, 2, 300, 6)
    assert not rep.deterministic
    assert rep.holds_within(3)
    assert rep.exhausted_fraction == 0.0


def test_induced_gauge_variant(z2z, monkeypatch):
    # the moment constant reads no term of the stratified series past R_0
    partner = z2z.partner("left").tiling
    real = partner.claimed_radius
    monkeypatch.setattr(partner, "claimed_radius", lambda k: pytest.fail(f"formed R_{k}") if k else real(k))
    f = FiniteSupportFunction(Z, {(i,): 0.25 for i in range(4)})
    assert f.gradient_power_sum("right", 1) == 1.0
    for p in (1.0, 0.5):
        rep = induced_gradient_check(z2z, "left", f, 1, 250, 7, gauge=IntegrabilityGauge.power(p))
        assert rep.holds_within(3), p


def test_profile_values_z():
    assert isoperimetric_profile(Z, 0).value == 0
    assert isoperimetric_profile(Z, 1).value == Fraction(1, 4)
    r = isoperimetric_profile(Z, 3)
    assert r.value == Fraction(3, 4)
    assert len(r.witness) == 3


def test_profile_nondecreasing_and_linear_z():
    vals = [isoperimetric_profile(Z, n).value for n in range(8)]
    assert all(vals[i] <= vals[i + 1] for i in range(7))
    assert vals[7] == Fraction(7, 4)  # intervals: n / 4


def test_profile_z2_small():
    z2 = ZN(2)
    vals = [isoperimetric_profile(z2, n).value for n in (0, 1, 2, 4)]
    assert vals[0] == 0 and vals[1] == Fraction(1, 8)
    assert all(vals[i] <= vals[i + 1] for i in range(3))


def _indicator_gradient(group, A) -> int:
    """Oracle: ||grad^l 1_A||_1 = sum over generators s of |s A symmetric-difference A|."""
    total = 0
    for s in group.generators:
        sA = {group.multiply(s, g) for g in A}
        total += len(sA.symmetric_difference(A))
    return total


def _oracle_supports(group, n):
    """Oracle: every connected support containing e with at most n elements, grown by frozensets."""
    e = group.identity
    seen = {frozenset([e])}
    stack = [frozenset([e])]
    while stack:
        A = stack.pop()
        yield A
        if len(A) == n:
            continue
        frontier = set()
        for g in A:
            for s in group.generators:
                h = group.multiply(s, g)
                if h not in A:
                    frontier.add(h)
        for h in frontier:
            B = frozenset(A | {h})
            if B not in seen:
                seen.add(B)
                stack.append(B)


def _profile_oracle(group, n):
    """Oracle: the profile search recomputing every support's gradient from scratch."""
    best, witness, searched = Fraction(0), (), 0
    for A in _oracle_supports(group, n):
        searched += 1
        val = Fraction(len(A), _indicator_gradient(group, A))
        if val > best:
            best, witness = val, tuple(sorted(A))
    return best, witness, searched


def _weighted_profile_oracle(group, n, K):
    """Oracle: max ||f||_1 / ||grad^l f||_1 over f with values in 1..K on the supports.

    ||grad^l f||_1 = sum over s and g of |f(g) - f(s^-1 g)|, which is the sum
    over s and h of |f(s h) - f(h)|; a term is nonzero only for h in A or
    s h in A, and S = S^-1 puts both in A's closed neighbourhood.
    """
    best = Fraction(0)
    for A in _oracle_supports(group, n):
        near = A | {group.multiply(s, g) for s in group.generators for g in A}
        support = sorted(A)
        for values in itertools.product(range(1, K + 1), repeat=len(support)):
            f = dict(zip(support, values))
            grad = sum(
                abs(f.get(group.multiply(s, h), 0) - f.get(h, 0)) for s in group.generators for h in near
            )
            best = max(best, Fraction(sum(values), grad))
    return best


_COAREA_CASES = [("zn:1", 5, 3), ("zn:2", 4, 3), ("heis", 4, 3), ("ll:2", 4, 3), ("bs:2", 4, 2), ("cyclic:7", 5, 3)]


@pytest.mark.parametrize("spec,n,K", _COAREA_CASES, ids=[f"{s}-n{n}-K{K}" for s, n, K in _COAREA_CASES])
def test_profile_int_mode_value_is_the_sets_value(spec, n, K):
    # coarea: ||f||_1 / ||grad f||_1 is a weighted mean of the level-set ratios,
    # and a level set's ratio never beats its best connected component, which
    # some translate puts among the searched supports; so weights never win
    g = group_from_spec(spec)
    for k in range(1, n + 1):
        assert _weighted_profile_oracle(g, k, K) == isoperimetric_profile(g, k).value, k


_PROFILE_CASES = [("zn:1", 7), ("zn:2", 7), ("heis", 7), ("ll:2", 7), ("bs:2", 7), ("cyclic:5", 4)]


@pytest.mark.parametrize("spec,N", _PROFILE_CASES, ids=[c[0] for c in _PROFILE_CASES])
def test_profile_search_matches_the_gradient_oracle(spec, N):
    group = group_from_spec(spec)
    for A, out in _connected_supports(group, N):
        assert 2 * out == _indicator_gradient(group, A), A
    for n in range(1, N + 1):
        best, witness, searched = _profile_oracle(group, n)
        num, den, count = _untried_search(group, n, 10**6)
        assert (Fraction(num, den), count) == (best, searched), n
        r = isoperimetric_profile(group, n)
        assert (r.value, r.witness, r.subsets_searched) == (best, witness, searched), n


def test_witness_replay_stops_at_the_first_maximizer(monkeypatch):
    import oelab.functional as functional

    pops = []

    def counted(group, n):
        for A, out in _connected_supports(group, n):
            pops.append(len(A))
            yield A, out

    monkeypatch.setattr(functional, "_connected_supports", counted)
    for spec, n, expected in [("heis", 7, 7), ("ll:2", 7, 7), ("zn:2", 8, 186)]:
        pops.clear()
        r = isoperimetric_profile(group_from_spec(spec), n)
        assert len(pops) == expected, spec
        assert pops[-1] == len(r.witness)


# recorded from the frozenset enumeration alone, so a change of the witness rule shows
_HEIS_9_WITNESS = [
    "heis:-2,0,2", "heis:-2,1,0", "heis:-1,0,2", "heis:-1,1,0", "heis:-1,1,1",
    "heis:-1,2,0", "heis:0,0,0", "heis:0,1,0", "heis:0,2,0",
]


def test_profile_heis_9_is_the_recorded_one():
    heis = group_from_spec("heis")
    r = isoperimetric_profile(heis, 9, budget=1_000_000)
    assert (r.value, r.subsets_searched) == (Fraction(1, 4), 532_963)
    assert [heis.format_element(g) for g in r.witness] == _HEIS_9_WITNESS


def test_profile_search_memory_stays_small():
    import tracemalloc

    heis = group_from_spec("heis")
    tracemalloc.start()
    try:
        r = isoperimetric_profile(heis, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.subsets_searched == 93_268
    assert peak < 5 * 2**20, peak


def test_profile_of_a_whole_finite_group_is_a_usage_error():
    # the whole group is a support with an empty boundary: the ratio is unbounded
    c5 = group_from_spec("cyclic:5")
    assert isoperimetric_profile(c5, 4).value > 0
    for n in (5, 6, 9):  # the whole group as the largest support and below it
        with pytest.raises(UsageError, match="cyclic:5 is finite: its 5 elements"):
            isoperimetric_profile(c5, n)


def test_folner_quality_examples():
    q = folner_set_quality(Z, [(i,) for i in range(8)])
    assert q.quality == Fraction(1, 4) and q.boundary_size == 2
    z2 = ZN(2)
    assert folner_set_quality(z2, z2.ball(1)).quality == Fraction(8, 5)
    with pytest.raises(UsageError):
        folner_set_quality(Z, [])


@pytest.mark.parametrize(
    "tiling,K",
    [(ZnTiling(1), 4), (ZnTiling(2), 3), (HeisTiling(), 2), (LamplighterTiling(2), 2)],
    ids=lambda x: getattr(x, "name", str(x)),
)
def test_tiles_are_folner_witnesses(tiling, K):
    # boundary quality of T_k is controlled by |S| times the Folner constant,
    # measured on the side matching the tiling's orientation
    from oelab.tilings import Orientation

    grp = tiling.group
    S = len(grp.generators)
    side = "left" if tiling.orientation is Orientation.LEFT else "right"
    for k in range(K + 1):
        tiles = tiling.build_tiles(k)[k]
        q = folner_set_quality(grp, tiles, side=side)
        eps = tiling.folner_constant(k).value
        assert q.quality <= S * eps, (tiling.name, k, q.quality, eps)


def _untried_order(group, n):
    """Oracle: the supports in the untried-set search's order, by recursion on lists of elements.

    A child's untried list is its parent's untried elements after the one
    added, then that element's neighbours s g reached for the first time.
    """
    reached = {group.identity}

    def grow(A, untried):
        for k, v in enumerate(untried):
            B = A + [v]
            yield B
            if len(B) < n:
                new = [h for h in (group.multiply(s, v) for s in group.generators) if h not in reached]
                reached.update(new)
                yield from grow(B, untried[k + 1 :] + new)
                reached.difference_update(new)

    yield from grow([], [group.identity])


def test_profile_budget_carries_best_so_far():
    from oelab.errors import ResourceExhausted

    z2 = ZN(2)
    with pytest.raises(ResourceExhausted) as exc:
        isoperimetric_profile(z2, 9, budget=50)
    assert exc.value.progress["best"] > 0
    # the progress is the first maximizer among the first `budget` supports of the search's order
    for spec, n in [("zn:2", 6), ("heis", 5), ("ll:2", 6), ("bs:2", 5)]:
        group = group_from_spec(spec)
        order = [tuple(sorted(A)) for A in _untried_order(group, n)]
        assert sorted(order) == sorted(tuple(sorted(A)) for A in _oracle_supports(group, n))
        total = len(order)
        assert isoperimetric_profile(group, n, budget=total).subsets_searched == total
        for budget in sorted({*range(1, 61), total // 3, total // 2, total - 2, total - 1}):
            with pytest.raises(ResourceExhausted, match=f"budget hit after {budget} supports") as exc:
                isoperimetric_profile(group, n, budget=budget)
            best, witness = Fraction(0), ()
            for A in order[:budget]:
                val = Fraction(len(A), _indicator_gradient(group, A))
                if val > best:
                    best, witness = val, A
            assert exc.value.progress == {"best": best, "witness": witness}, (spec, budget)
