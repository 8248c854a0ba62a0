import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oelab import _rng, bsll
from oelab._rng import _MASK, Moments, derive, derive_array, per_sample, randbelow, randbelow_array, sample_blocks
from oelab.bsll import BsLamplighterCoupling
from oelab.coupling import (
    CylinderSet,
    IntegrabilityGauge,
    MatchedCoupling,
    TilingAction,
    mc_integrability,
    mc_tail_frequencies,
    return_time_density,
)
from oelab.errors import UsageError
from oelab.functional import FiniteSupportFunction, induced_gradient_check
from oelab.groups import ZN
from oelab.tilings import LamplighterTiling, ZnGroupedTiling, ZnTiling, builtin

N = 100_000


@pytest.fixture(scope="module")
def seeds():
    return derive_array(2024, np.arange(N))


def test_derive_array_matches_derive(seeds):
    assert [int(v) for v in seeds] == [derive(2024, i) for i in range(N)]
    # array counters, scalar seeds and counters beyond 64 bits all reduce mod 2^64
    counters = np.arange(-50, 50)
    got = derive_array(seeds[:100], counters, 1 << 70, -3)
    want = [derive(int(s), int(c), 1 << 70, -3) for s, c in zip(seeds[:100], counters)]
    assert [int(v) for v in got] == want
    assert int(derive_array(-7, 5)) == derive(-7, 5)
    assert int(derive_array((1 << 64) + 9, 5)) == derive(9, 5)


@pytest.mark.parametrize("n", [1, 2, 3, 16, 1000, (1 << 63) + 1, (1 << 64) - 1])
def test_randbelow_array_matches_randbelow(seeds, n):
    got = randbelow_array(n, seeds, 3)
    assert got.dtype == np.uint64 and got.shape == (N,)
    assert [int(v) for v in got] == [randbelow(n, int(s), 3) for s in seeds]


def test_randbelow_array_rejects_and_advances_the_attempt(seeds):
    # for n = 2^63 + 1 the acceptance limit is 2^63 + 1: about half of the
    # first words reject, so most of the sample needs attempt 1 and some more
    n = (1 << 63) + 1
    limit = (1 << 64) - (1 << 64) % n
    first = derive_array(seeds, 3, 0, 0)
    rejected = np.flatnonzero(first >= np.uint64(limit))
    assert 0.45 < len(rejected) / N < 0.55
    again = derive_array(seeds[rejected], 3, 1, 0)
    assert np.any(again >= np.uint64(limit))  # some need attempt 2
    got = randbelow_array(n, seeds[rejected], 3)
    assert [int(v) for v in got] == [randbelow(n, int(s), 3) for s in seeds[rejected]]


@pytest.mark.parametrize("n", [1 << 64, (1 << 64) + 3, 10**30])
def test_randbelow_array_beyond_64_bits_takes_the_scalar_path(seeds, n):
    got = randbelow_array(n, seeds[:500], 3, 1)
    assert got.dtype == object
    assert list(got) == [randbelow(n, int(s), 3, 1) for s in seeds[:500]]


def test_randbelow_array_broadcasts_and_validates():
    counters = np.arange(6).reshape(2, 3)
    got = randbelow_array(7, 11, counters)
    assert got.shape == (2, 3)
    assert [int(v) for v in got.ravel()] == [randbelow(7, 11, c) for c in range(6)]
    assert int(randbelow_array(7, _MASK, 4)) == randbelow(7, _MASK, 4)
    with pytest.raises(ValueError):
        randbelow_array(0, 11, counters)


def _unmix64(z: int) -> int:
    """The inverse of mix64: undo each xorshift and odd multiplication."""

    def unshift(z, s):
        x = z
        for _ in range(64 // s + 1):
            x = z ^ (x >> s)
        return x

    z = unshift(z, 31)
    z = unshift((z * pow(0x94D049BB133111EB, -1, 1 << 64)) & _MASK, 27)
    return unshift((z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & _MASK, 30)


def _seed_drawing(word: int, counter: int) -> int:
    """The seed whose first randbelow word, derive(seed, counter, 0, 0), is word."""
    h = _unmix64(_unmix64(word))  # the attempt and word counters are 0
    return _unmix64(_unmix64(h) ^ ((counter * 0x9E3779B97F4A7C15) & _MASK))


@pytest.mark.parametrize("n", [3, 1000, (1 << 63) + 1])
def test_randbelow_array_rejects_exactly_from_the_limit(n):
    limit = (1 << 64) - (1 << 64) % n
    words = sorted({w for w in (limit - 1, limit, limit + 1, _MASK) if w <= _MASK})
    seeds = np.array([_seed_drawing(w, 3) for w in words], dtype=np.uint64)
    assert [int(derive(int(s), 3, 0, 0)) for s in seeds] == words
    got = randbelow_array(n, seeds, 3)
    assert [int(v) for v in got] == [randbelow(n, int(s), 3) for s in seeds]
    assert int(got[0]) == (limit - 1) % n  # the last accepted word


def test_sample_blocks_is_lazy_and_checks_samples_first(monkeypatch):
    monkeypatch.setattr(_rng, "BLOCK", 4)
    calls = []
    blocks = sample_blocks(10, lambda a, b: calls.append((a, b)) or (a, b))
    assert calls == []
    assert next(blocks) == (0, 4) and calls == [(0, 4)]
    assert list(blocks) == [(4, 8), (8, 10)]
    for samples in (0, -2):
        with pytest.raises(UsageError):
            sample_blocks(samples, lambda a, b: calls.append((a, b)))
    assert calls == [(0, 4), (4, 8), (8, 10)]


def test_per_sample_gives_none_only_for_the_exhausted_type():
    def draw(i):
        if i % 2:
            raise KeyError(i)
        return i / 2

    assert per_sample(draw, KeyError)(0, 4) == [0.0, None, 1.0, None]
    with pytest.raises(KeyError):
        per_sample(draw)(0, 4)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.one_of(st.none(), st.floats(-1e6, 1e6)), max_size=6), max_size=6))
def test_moments_sums_in_index_order(blocks):
    # the oracle: one plain loop over the draws in index order
    used = exhausted = 0
    total = total_sq = 0.0
    for v in itertools.chain.from_iterable(blocks):
        if v is None:
            exhausted += 1
        else:
            used += 1
            total += v
            total_sq += v * v
    m = Moments(iter(blocks))
    assert (m.used, m.exhausted) == (used, exhausted)
    assert repr((m.total, m.total_sq)) == repr((total, total_sq))
    mean = total / used if used else math.nan
    var = max(0.0, (total_sq - used * mean * mean) / (used - 1)) if used > 1 else 0.0
    assert repr((m.mean, m.stderr)) == repr((mean, math.sqrt(var / used) if used > 1 else 0.0))


def _shallow_llz():
    # max depth 2: about one act in eight exhausts it
    return MatchedCoupling(LamplighterTiling(2), builtin("zmatch:ll:2"), max_depth=2)


def _tight_window_sweep():
    # a one-position carry window exhausts about one draw in eight
    with pytest.MonkeyPatch.context() as m:
        m.setattr(bsll, "DEFAULT_CARRY_BOUND", 1)
        return BsLamplighterCoupling(2).tail_bound_sweep((1, 0, 0), [2, 3], 40, 5)


# each run truncates some of its draws (rewrite depth or carry window)
_ENGINE_RUNS = {
    "mc_integrability": lambda: mc_integrability(
        _shallow_llz(), "left", ((), 1), IntegrabilityGauge.power(1.0), 20, 3
    ),
    "return_time_density": lambda: return_time_density(
        _shallow_llz().left, CylinderSet(1, frozenset({(0,), (1,)})), 1, 10, 4
    ),
    "return_time_density, row walk": lambda: return_time_density(
        TilingAction(ZnTiling(2), 2), CylinderSet(2, frozenset({(0, 1), (2, 3), (3, 0)})), 3, 10, 9
    ),
    "induced_gradient_check": lambda: induced_gradient_check(
        MatchedCoupling(ZnTiling(2), ZnGroupedTiling(1, 2), max_depth=1),
        "left", FiniteSupportFunction(ZN(1), {(0,): 1.0, (3,): -1.0}), 2, 30, 6,
    ),
    "tail_bound_sweep": _tight_window_sweep,
    "mc_tail_frequencies, array kernel": lambda: mc_tail_frequencies(
        TilingAction(ZnTiling(2), 3), (1, 0), range(4), 20, 7
    ),
    "mc_tail_frequencies, scalar act": lambda: mc_tail_frequencies(
        _shallow_llz().left, ((), 1), range(3), 20, 8
    ),
}


@pytest.mark.parametrize("name", list(_ENGINE_RUNS))
def test_block_size_changes_no_result(monkeypatch, name):
    # the sampled diameter has its own case in test_sampled_diameter_matches_per_point_draws
    run = _ENGINE_RUNS[name]
    default = repr(run())
    monkeypatch.setattr(_rng, "BLOCK", 3)
    assert repr(run()) == default
