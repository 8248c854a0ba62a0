import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oelab import _rng, bsll
from oelab._rng import derive, derive_array, per_sample, proportion, sample_blocks
from oelab.bsll import (
    BiInfinitePoint,
    BsLamplighterCoupling,
    TailBoundReport,
    bs_act,
    bs_element,
    ll_act,
)
from oelab.errors import UsageError, WindowExhausted


@pytest.fixture(scope="module")
def c2():
    return BsLamplighterCoupling(2)


@pytest.fixture(scope="module")
def c3():
    return BsLamplighterCoupling(3)


def test_point_reads_are_stable():
    x = BiInfinitePoint(3, seed=9)
    vals = [x.value(i) for i in range(-5, 6)]
    assert [x.value(i) for i in range(-5, 6)] == vals
    assert all(0 <= v < 3 for v in vals)
    assert x.overrides == {}  # reading writes nothing


def test_lamp_action(c2):
    x = c2.point(1, {0: 0})
    y, _ = ll_act(c2.lamplighter, (((0, 1),), 0), x)
    assert y.value(0) == 1
    assert y.value(3) == x.value(3)
    # order k: applying the lamp k times returns to x
    z, _ = ll_act(c2.lamplighter, (((0, 1),), 0), y)
    for i in range(-3, 4):
        assert z.value(i) == x.value(i)


def test_shift_actions_are_inverse_conventions(c2):
    # the BS stable letter shifts opposite to the lamplighter's (0,1): the
    # semidirect law forces it, and (0,-1) matches the lamplighter shift
    x = c2.point(2, {0: 1, 4: 1})
    ybs, _ = bs_act(c2.bs, (0, 0, -1), x)
    yll, _ = ll_act(c2.lamplighter, ((), 1), x)
    for i in range(-4, 8):
        assert ybs.value(i) == yll.value(i) == x.value(i - 1)
    yup, _ = bs_act(c2.bs, (0, 0, 1), x)
    for i in range(-4, 8):
        assert yup.value(i) == x.value(i + 1)


def test_odometer_carry_rule(c2):
    x = c2.point(3, {0: 1, 1: 1, 2: 0})
    y, changed = bs_act(c2.bs, (1, 0, 0), x)
    assert [y.value(i) for i in (0, 1, 2)] == [0, 0, 1]
    assert list(changed) == [0, 1, 2]
    x2 = c2.point(4, {0: 0})
    y2, changed2 = bs_act(c2.bs, (1, 0, 0), x2)
    assert y2.value(0) == 1 and list(changed2) == [0]


def test_odometer_from_scale_position(c2):
    # (1/2, 0) adds one at position -1
    x = c2.point(5, {-1: 0, 0: 1})
    y, changed = bs_act(c2.bs, (1, 1, 0), x)
    assert y.value(-1) == 1 and y.value(0) == 1
    assert list(changed) == [-1]
    # negative numerators borrow
    z, changed = bs_act(c2.bs, (-1, 0, 0), y)
    assert list(changed)[0] == 0


def test_bs_action_is_group_action(c2, c3):
    rng = random.Random(6)
    for C in (c2, c3):
        k = C.k
        for _ in range(2500):
            g1 = C.bs.make(rng.randrange(-6, 7), rng.randrange(0, 3), rng.randrange(-2, 3))
            g2 = C.bs.make(rng.randrange(-6, 7), rng.randrange(0, 3), rng.randrange(-2, 3))
            x = C.point(rng.getrandbits(50), {i: rng.randrange(k) for i in range(-4, 5)})
            y1, _ = bs_act(C.bs, g1, x)
            y12, _ = bs_act(C.bs, g2, y1)
            y_prod, _ = bs_act(C.bs, C.bs.multiply(g2, g1), x)
            for i in set(y12.overrides) | set(y_prod.overrides):
                assert y12.value(i) == y_prod.value(i), (g1, g2, i)


def test_ll_action_is_group_action(c3):
    rng = random.Random(7)
    for _ in range(5000):
        def rand_ll():
            lamps = {i: rng.randrange(1, 3) for i in rng.sample(range(-3, 4), rng.randrange(3))}
            return c3_elt(lamps, rng.randrange(-2, 3))

        def c3_elt(lamps, pos):
            return c3.lamplighter.make(lamps, pos)

        g1, g2 = rand_ll(), rand_ll()
        x = c3.point(rng.getrandbits(50))
        y1, _ = ll_act(c3.lamplighter, g1, x)
        y12, _ = ll_act(c3.lamplighter, g2, y1)
        y_prod, _ = ll_act(c3.lamplighter, c3.lamplighter.multiply(g2, g1), x)
        for i in set(y12.overrides) | set(y_prod.overrides):
            assert y12.value(i) == y_prod.value(i)


def test_orbit_equality_both_directions(c2, c3):
    rng = random.Random(8)
    for C in (c2, c3):
        k = C.k
        for _ in range(120):
            x = C.point(rng.getrandbits(50), {i: rng.randrange(k) for i in range(-3, 4)})
            g = C.bs.make(rng.randrange(-8, 9), rng.randrange(0, 3), rng.randrange(-2, 3))
            # the element of the other group is read off the move's changes;
            # equal offsets and equal written digits make the points equal
            y, changes = bs_act(C.bs, g, x)
            h = C.lamplighter.make(changes, -g[2])
            z, _ = ll_act(C.lamplighter, h, x)
            assert y.offset == z.offset
            for i in set(y.overrides) | set(z.overrides):
                assert y.value(i) == z.value(i)
            lamps = {i: rng.randrange(1, k) for i in rng.sample(range(-3, 4), rng.randrange(3))}
            h2 = C.lamplighter.make(lamps, rng.randrange(-2, 3))
            y2, changes2 = ll_act(C.lamplighter, h2, x)
            z2 = bs_element(C.bs, changes2, -h2[1])
            y3, _ = bs_act(C.bs, z2, x)
            assert y2.offset == y3.offset
            for i in set(y2.overrides) | set(y3.overrides):
                assert y2.value(i) == y3.value(i)


def _nonzero_diffs(y, xs, window):
    diffs = {p: y.value(p) - xs.value(p) for p in window}
    return {p: d for p, d in diffs.items() if d}


@pytest.mark.parametrize("k", [2, 3, 5])
def test_changes_match_a_brute_force_window(k):
    # changes must be exactly the digits where g.x differs from the shifted x
    C = BsLamplighterCoupling(k)
    rng = random.Random(40 + k)
    for _ in range(300):
        digits = {i: rng.randrange(k) for i in range(-4, 5)}
        start = rng.randrange(-4, 3)
        run = rng.choice((0, k - 1))  # a run of 0s or k-1s makes a long borrow or carry
        digits.update({i: run for i in range(start, start + rng.randrange(1, 7))})
        x = C.point(rng.getrandbits(50), digits)
        a, s, n = g = C.bs.make(rng.randrange(-30, 31), rng.randrange(0, 3), rng.randrange(-2, 3))
        y, changes = bs_act(C.bs, g, x)
        # bs_act raises before its carry passes the end of this window
        reach = range(-s, -s + bsll.DEFAULT_CARRY_BOUND + abs(a).bit_length() + 1)
        assert changes == _nonzero_diffs(y, x.shifted(-n), reach), (g, digits)
        assert list(changes) == sorted(changes)  # carry order
        lamps = {i: rng.randrange(1, k) for i in rng.sample(range(-4, 5), rng.randrange(4))}
        h = C.lamplighter.make(lamps, rng.randrange(-2, 3))
        y, changes = ll_act(C.lamplighter, h, x)
        assert changes == _nonzero_diffs(y, x.shifted(h[1]), range(-12, 13)), (h, digits)


def test_shift_distance_is_one(c2, c3):
    for C in (c2, c3):
        for s in range(20):
            x = C.point(derive(100, s))
            assert C.move_distance("ll", (0, 0, 1), x) == 1
            assert C.move_distance("ll", (0, 0, -1), x) == 1
            assert C.move_distance("bs", ((), 1), x) == 1
            assert C.move_distance("bs", ((), -1), x) == 1


def test_linf_direction_sampled_max(c2, c3):
    # sampled maxima agree with the constants: 1 for the shift, <= k-1 lamp
    for C in (c2, c3):
        k = C.k
        lamp = C.lamplighter.make({0: 1}, 0)
        worst_shift = 0
        worst_lamp = 0
        for i in range(5000):
            x = C.point(derive(31, i))
            worst_shift = max(worst_shift, C.move_distance("bs", ((), 1), x))
            worst_lamp = max(worst_lamp, C.move_distance("bs", lamp, x))
        assert worst_shift == 1
        assert worst_lamp <= k - 1


def test_lamp_distance_bounded_exhaustive(c2, c3):
    # the BS distance of a lamp press depends only on the pressed digit:
    # checking every digit value is a complete case analysis
    for C in (c2, c3):
        k = C.k
        lamp_gens = [C.lamplighter.make({0: 1}, 0)]
        if k > 2:
            lamp_gens.append(C.lamplighter.make({0: k - 1}, 0))
        for v in range(k):
            for g in lamp_gens:
                x = C.point(11, {0: v})
                d = C.move_distance("bs", g, x)
                assert 1 <= d <= k - 1, (k, v, g, d)


def test_ll_move_distance_example(c2):
    # carry at 0,1 -> flips at 0,1,2; travel 0 -> 2 -> 0 costs 4
    x = c2.point(9, {0: 1, 1: 1, 2: 0})
    assert c2.move_distance("ll", (1, 0, 0), x) == 7


def test_carry_length_geometric_law(c2, c3):
    N = 15000
    for C in (c2, c3):
        k = C.k
        tail = {1: 0, 2: 0, 3: 0}
        for i in range(N):
            x = C.point(derive(5, i))
            _, changed = bs_act(C.bs, (1, 0, 0), x)
            L = len(changed) - 1
            for t in tail:
                if L >= t:
                    tail[t] += 1
        for t, cnt in tail.items():
            expect = float(k) ** (-t)
            se = math.sqrt(expect * (1 - expect) / N)
            assert abs(cnt / N - expect) <= 5 * se + 1e-3, (k, t, cnt / N, expect)


def test_window_exhausted(c2, monkeypatch):
    monkeypatch.setattr(bsll, "DEFAULT_CARRY_BOUND", 3)
    x = c2.point(1, {i: 1 for i in range(0, 10)})
    with pytest.raises(WindowExhausted):
        bs_act(c2.bs, (1, 0, 0), x)


def test_tail_bound_sweep_passes_and_thresholds(c2):
    reps = c2.tail_bound_sweep((1, 0, 0), [2, 3, 4], 20000, 11)
    for M, rep in reps.items():
        assert rep.passes, (M, rep)
        assert rep.threshold == 3 * (2 * 1 + 2 * M + 3)
    # shift element: distance is constant 1, so freq = 0
    rep = c2.tail_bound_sweep((0, 0, 1), [2], 2000, 12)[2]
    assert rep.freq == 0.0 and rep.passes


def test_tail_band_is_taken_at_the_bound():
    # the plug-in stderr at freq 0.43 widens the band to 0.448; sigma at the
    # bound 0.25 gives 0.423, which the frequency exceeds
    rep = TailBoundReport(
        g="bs:a=1,s=0,n=0", g_length=1, M=3, threshold=27, samples=100,
        freq=0.43, stderr=math.sqrt(0.43 * 0.57 / 100), bound=0.25, exhausted=0,
    )
    assert not rep.passes
    assert replace(rep, freq=0.42).passes


def test_side_metric_validation(c2):
    with pytest.raises(UsageError):
        c2.move_distance("nope", (1, 0, 0), c2.point(1))


def test_window_exhausted_samples_exceed_every_threshold(monkeypatch):
    monkeypatch.setattr(bsll, "DEFAULT_CARRY_BOUND", 2)
    reps = BsLamplighterCoupling(2).tail_bound_sweep((1, 0, 0), range(2, 9), 2000, 3)
    exhausted = reps[2].exhausted
    assert exhausted > 0
    for M, rep in reps.items():
        assert rep.exhausted == exhausted
        assert rep.freq >= exhausted / rep.samples, (M, rep)


def _scalar_sweep(C, g, Ms, samples, seed):
    # the batched odometer's oracle: move_distance on one point at a time,
    # None for a carry past the window
    k = C.k
    glen = C.bs.word_length(g)
    thresholds = {M: (k + 1) * (2 * glen + 2 * M + 3) for M in Ms}

    def draw(i):
        return C.move_distance("ll", g, C.point(derive(seed, i)))

    counts = {M: 0 for M in Ms}
    exhausted = 0
    for block in sample_blocks(samples, per_sample(draw, WindowExhausted)):
        exhausted += block.count(None)
        for d in block:
            for M, thr in thresholds.items():
                if d is None or d >= thr:
                    counts[M] += 1
    out = {}
    for M in Ms:
        freq, stderr = proportion(counts[M], samples)
        out[M] = TailBoundReport(
            g=C.bs.format_element(g), g_length=glen, M=M, threshold=thresholds[M], samples=samples,
            freq=freq, stderr=stderr, bound=float(k) ** (1 - M), exhausted=exhausted,
        )
    return out


def _sweep_elements(C):
    # a < 0, a divisible by k (s = 0 keeps it), s > 0, n of both signs, and an a far beyond int64
    k = C.k
    return [C.bs.make(*g) for g in ((1, 0, 0), (-7, 2, 3), (3 * k, 0, -2), (5, 1, -1), (-(1 << 70) - 1, 1, 2))]


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("case", range(5))
def test_sweep_equals_the_scalar_sweep(k, case):
    C = BsLamplighterCoupling(k)
    g = _sweep_elements(C)[case]
    samples = _rng.BLOCK + 300  # two engine blocks
    want = _scalar_sweep(C, g, range(2, 6), samples, 17)
    assert C.tail_bound_sweep(g, range(2, 6), samples, 17) == want
    if g == (1, 0, 0) and k == 2:
        assert want[2].freq > 0  # a case whose counts are not all zero


@pytest.mark.parametrize("carry_bound", [1, 2, 64])
def test_sweep_on_three_sample_blocks_equals_the_scalar_sweep(monkeypatch, carry_bound):
    monkeypatch.setattr(_rng, "BLOCK", 3)
    monkeypatch.setattr(bsll, "DEFAULT_CARRY_BOUND", carry_bound)
    for k in (2, 3, 5):
        C = BsLamplighterCoupling(k)
        for g in _sweep_elements(C):
            want = _scalar_sweep(C, g, [2, 3], 40, 5)
            assert C.tail_bound_sweep(g, [2, 3], 40, 5) == want, (k, g)
            if carry_bound == 1 and g == (1, 0, 0):
                assert want[2].exhausted > 0


def _scalar_distances(C, g, seed, samples):
    out = []
    for i in range(samples):
        try:
            out.append(C.move_distance("ll", g, C.point(derive(seed, i))))
        except WindowExhausted:
            out.append(None)
    return out


@pytest.mark.parametrize("carry_bound", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_odometer_distances_match_move_distance(monkeypatch, k, carry_bound):
    # every -1 of the kernel is a WindowExhausted of bs_act, and the rest agree
    monkeypatch.setattr(bsll, "DEFAULT_CARRY_BOUND", carry_bound)
    C = BsLamplighterCoupling(k)
    exhausted = 0
    for g in _sweep_elements(C):
        got = C.move_distance_array(g, derive_array(23, np.arange(400))).tolist()
        want = _scalar_distances(C, g, 23, 400)
        assert [None if d == -1 else d for d in got] == want, (k, g)
        exhausted += want.count(None)
    assert exhausted > 0 or carry_bound > 1  # the one-position window certainly exhausts some


@given(
    k=st.sampled_from([2, 3, 5, 7]),
    a=st.one_of(st.integers(-50, 50), st.integers(-(1 << 80), 1 << 80)),
    s=st.integers(0, 4),
    n=st.integers(-5, 5),
    carry_bound=st.sampled_from([1, 3, 64]),
    seed=st.integers(0, (1 << 64) - 1),
)
@example(k=2, a=0, s=0, n=-3, carry_bound=64, seed=1)
@example(k=2, a=-1, s=0, n=0, carry_bound=2, seed=2)
@example(k=3, a=9, s=0, n=1, carry_bound=1, seed=3)
@settings(max_examples=60, deadline=None)
def test_odometer_matches_move_distance_per_sample(k, a, s, n, carry_bound, seed):
    C = BsLamplighterCoupling(k)
    g = C.bs.make(a, s, n)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(bsll, "DEFAULT_CARRY_BOUND", carry_bound)
        got = C.move_distance_array(g, derive_array(seed, np.arange(60))).tolist()
        want = _scalar_distances(C, g, seed, 60)
    assert [None if d == -1 else d for d in got] == want


@pytest.mark.parametrize("k", [(1 << 32) - 1, 1 << 32, (1 << 64) + 3])
def test_large_scales_equal_the_scalar_sweep(k):
    # from 2^32 on, the kernel hands each seed to move_distance
    C = BsLamplighterCoupling(k)
    g = C.bs.make(-5, 1, 2)
    assert C.tail_bound_sweep(g, [2, 3], 30, 4) == _scalar_sweep(C, g, [2, 3], 30, 4)


def test_each_block_spot_checks_the_kernel_against_move_distance(monkeypatch):
    C = BsLamplighterCoupling(2)
    move_distance = BsLamplighterCoupling.move_distance
    monkeypatch.setattr(
        BsLamplighterCoupling, "move_distance", lambda self, *args: move_distance(self, *args) + 1
    )
    with pytest.raises(RuntimeError, match="move_distance"):
        C.tail_bound_sweep((1, 0, 0), [2, 3], 100, 7)
