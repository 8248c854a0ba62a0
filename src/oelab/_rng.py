"""Counter-based deterministic random streams.

Every random quantity in the package is a pure function of (seed, counters),
so Monte Carlo results are bit-for-bit reproducible and independent of
evaluation order.  The mixer is SplitMix64, which is cheap, well
distributed, and trivially portable.

The Monte Carlo estimators run the same loop over these streams:
:class:`SampleLoop` calls the estimator's ``draw(i)``, which derives sample
i from (seed, i), for each index in order, counts the draws that hit a
truncation (rewrite depth or carry window) and streams the sums of v and
v^2 of the others.  The tail frequencies are the exception: they count
rewrite depths that ``coupling`` computes a block of samples at a time.

:func:`derive_array` and :func:`randbelow_array` compute the same words
over numpy ``uint64`` arrays, for that batched kernel: the arithmetic
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


def require_samples(samples: int) -> None:
    if samples < 1:
        raise UsageError(f"Monte Carlo needs samples >= 1, got {samples}")


class SampleLoop:
    """One pass over draw(0), ..., draw(samples - 1).

    Iterating yields each draw's value, or None for a draw that raised
    ``exhausted_by``; those draws are counted in ``exhausted`` and left out
    of the sums behind ``mean`` and ``stderr``.  Fewer than one sample is a
    usage error.
    """

    def __init__(self, samples: int, draw, exhausted_by: type[Exception]):
        require_samples(samples)
        self.samples = samples
        self.used = 0
        self.exhausted = 0
        self.total = 0.0
        self.total_sq = 0.0
        self._draw = draw
        self._exhausted_by = exhausted_by

    def __iter__(self):
        for i in range(self.samples):
            try:
                v = self._draw(i)
            except self._exhausted_by:
                self.exhausted += 1
                yield None
                continue
            self.used += 1
            self.total += v
            self.total_sq += v * v
            yield v

    def run(self) -> "SampleLoop":
        for _ in self:
            pass
        return self

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
