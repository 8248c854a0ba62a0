"""Counter-based deterministic random streams.

Every random quantity in the package is a pure function of (seed, counters),
so Monte Carlo results are bit-for-bit reproducible and independent of
evaluation order.  The mixer is SplitMix64, which is cheap, well
distributed, and trivially portable.

Every Monte Carlo estimator runs on one engine: :func:`sample_blocks`
calls its ``draw_block(start, stop)`` on blocks of at most :data:`BLOCK`
indices, one block alive at a time.  That is an array kernel, or
:func:`per_sample` looping a scalar ``draw(i)``, with None for a truncated
draw.  :class:`Moments` counts the Nones and sums v and v^2 of the rest
in index order, so the block size never changes a result.

:func:`derive_array` and :func:`randbelow_array` compute the same words
over numpy ``uint64`` arrays, for the array kernels: the arithmetic
wraps mod 2^64 exactly as the masked Python ints do, and rejection runs
on the array, one attempt counter at a time.
Power-of-two ``n`` never rejects; ``n >= 2^64`` needs multi-word draws
and goes through the scalar path.  The scalar :func:`derive` and
:func:`randbelow` stay as they are: they are the oracles the array
versions are tested against.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UsageError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
BLOCK = 4096  # samples per engine block: an estimator's memory is flat in its sample count


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijective mixer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive(seed: int, *counters: int) -> int:
    """Derive a 64-bit value from a seed and a tuple of counters."""
    h = mix64(seed & _MASK)
    for c in counters:
        h = mix64(h ^ ((c * _GOLDEN) & _MASK))
    return h


def randbelow(n: int, seed: int, *counters: int) -> int:
    """Uniform integer in [0, n), derived from (seed, counters).

    Uses rejection over 64-bit words, so the result is exactly uniform even
    for n close to (or far above) 2**64.
    """
    if n <= 0:
        raise ValueError("randbelow needs n >= 1")
    if n == 1:
        return 0
    words = (n.bit_length() + 63) // 64
    span = 1 << (64 * words)
    limit = span - span % n
    attempt = 0
    while True:
        v = 0
        for w in range(words):
            v = (v << 64) | derive(seed, *counters, attempt, w)
        if v < limit:
            return v % n
        attempt += 1


def _words(v):
    """v mod 2^64 as uint64, for a Python int or an integer array."""
    if isinstance(v, int):
        return np.uint64(v & _MASK)
    return np.asarray(v).astype(np.uint64, copy=False)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def derive_array(seeds, *counters) -> np.ndarray:
    """:func:`derive` over arrays: seeds and counters are ints or integer arrays.

    The result has the broadcast shape of the arguments, as uint64.
    """
    with np.errstate(over="ignore"):  # uint64 scalars warn where arrays wrap
        h = _mix64_array(_words(seeds))
        for c in counters:
            h = _mix64_array(h ^ (_words(c) * np.uint64(_GOLDEN)))
    return h


def randbelow_array(n: int, seeds, *counters) -> np.ndarray:
    """:func:`randbelow` over arrays: uint64 values in [0, n), or Python ints for n >= 2^64."""
    if n <= 0:
        raise ValueError("randbelow needs n >= 1")
    if n >= 1 << 64:
        draw = np.frompyfunc(lambda *a: randbelow(n, *map(int, a)), 1 + len(counters), 1)
        return draw(seeds, *counters)
    if n & (n - 1) == 0:
        return derive_array(seeds, *counters, 0, 0) & np.uint64(n - 1)  # n divides 2^64
    shape = np.broadcast_shapes(*map(np.shape, (seeds, *counters)))
    words = [np.broadcast_to(_words(a), shape).reshape(-1) for a in (seeds, *counters)]
    v = derive_array(*words, 0, 0)
    limit = np.uint64((1 << 64) - (1 << 64) % n)
    rejected = np.flatnonzero(v >= limit)
    attempt = 1
    while len(rejected):
        v[rejected] = derive_array(*(w[rejected] for w in words), attempt, 0)
        rejected = rejected[v[rejected] >= limit]
        attempt += 1
    return (v % np.uint64(n)).reshape(shape)


def sample_blocks(samples: int, draw_block):
    """draw_block(start, stop) for consecutive blocks of at most BLOCK indices in [0, samples).

    Lazy: a block is drawn when the caller asks for it.  Fewer than one
    sample is a usage error, raised by this call before any draw.
    """
    if samples < 1:
        raise UsageError(f"Monte Carlo needs samples >= 1, got {samples}")
    return (draw_block(start, min(start + BLOCK, samples)) for start in range(0, samples, BLOCK))


def per_sample(draw, exhausted_by=()):
    """The block function [draw(start), ..., draw(stop - 1)], None for a draw that raised exhausted_by."""

    def draw_block(start: int, stop: int) -> list:
        out = []
        for i in range(start, stop):
            try:
                out.append(draw(i))
            except exhausted_by:
                out.append(None)
        return out

    return draw_block


class Moments:
    """Count, mean and stderr of a stream of blocks of values; a None value is an exhausted draw.

    The sums of v and v^2 run over Python floats in index order: ``np.sum``
    adds pairwise, which would move their last bits.
    """

    def __init__(self, blocks):
        self.used = self.exhausted = 0
        self.total = self.total_sq = 0.0
        for block in blocks:
            for v in block:
                if v is None:
                    self.exhausted += 1
                else:
                    self.used += 1
                    self.total += v
                    self.total_sq += v * v

    @property
    def mean(self) -> float:
        return self.total / self.used if self.used else math.nan

    @property
    def stderr(self) -> float:
        """Standard error of the mean; 0 with fewer than two used draws."""
        n = self.used
        if n < 2:
            return 0.0
        mean = self.total / n
        var = max(0.0, (self.total_sq - n * mean * mean) / (n - 1))
        return math.sqrt(var / n)


def proportion(count: int, samples: int) -> tuple[float, float]:
    """The frequency count / samples and its plug-in binomial stderr."""
    p = count / samples
    return p, math.sqrt(p * (1 - p) / samples)


def binomial_band(p: float, samples: int) -> float:
    """Four binomial standard errors at the frequency p: the half-width of the tail audits' band."""
    return 4 * math.sqrt(p * (1 - p) / samples)
