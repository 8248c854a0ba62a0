"""The bi-infinite coupling between Z/kZ wr Z and BS(1,k).

Both groups act on X = prod_Z Z/kZ: the lamplighter acts by shift-and-add,
and BS(1,k) = Z[1/k] x| Z acts with the Z part shifting and the Z[1/k] part
running the k-adic odometer (add with rightward carries) from its scale
position.  The two actions share orbits.  Each act returns the digit
changes it made (position -> new - old), and the element of the other
group carrying x to g.x is read off those changes, which is what
move_distance measures.

Shift orientation: reading a point as the k-adic number X = sum x_i k^i,
the lamplighter element (f, m) acts by X -> f + k^m X, which is a left
action for the wreath law.  For the semidirect law (z1, n1)(z2, n2) =
(z1 + z2 k^-n1, n1 + n2) the unique compatible left action is
(z, n) . X = z + k^-n X, so the BS shift generator (0, 1) moves
coordinates the opposite way from the lamplighter's (0, 1) (they match
after inverting the stable letter, an automorphism of BS(1,k) preserving
the generating set, so every distance and tail statement is unaffected).

Points hold the digits a move wrote over a deterministic seeded
background, so every trajectory is reproducible and carries never silently
overrun: a carry longer than the window bound raises WindowExhausted (an
event of probability <= k^-bound per step).

tail_bound_sweep runs the odometer on arrays of point seeds, one engine block
at a time (move_distance_array); the counter-based background makes its
digits those of the scalar points, and move_distance stays the oracle that
every block spot-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import binomial_band, derive, derive_array, proportion, sample_blocks
from .errors import UsageError, WindowExhausted
from .groups import BaumslagSolitar, Lamplighter

DEFAULT_CARRY_BOUND = 64


class BiInfinitePoint:
    """A point of prod_Z Z/kZ: digits a move wrote atop a seeded background.

    ``offset`` tracks accumulated shifts so unwritten coordinates stay a
    pure function of (seed, original position).  Reading never writes: only
    a move, or an assignment when the point is made, fills ``overrides``.
    """

    __slots__ = ("k", "seed", "offset", "overrides")

    def __init__(self, k: int, seed: int, offset: int = 0, overrides: dict | None = None):
        if k < 2:
            raise UsageError("alphabet needs k >= 2")
        self.k = k
        self.seed = seed
        self.offset = offset
        self.overrides = {} if overrides is None else overrides

    def value(self, i: int) -> int:
        v = self.overrides.get(i)
        if v is None:
            v = derive(self.seed, i - self.offset) % self.k
        return v

    def shifted(self, m: int) -> "BiInfinitePoint":
        """The point with coordinates y_i = x_{i-m}."""
        return BiInfinitePoint(
            self.k,
            self.seed,
            self.offset + m,
            {i + m: v for i, v in self.overrides.items()},
        )


def ll_act(group: Lamplighter, g, x: BiInfinitePoint) -> tuple[BiInfinitePoint, dict[int, int]]:
    """(f, m) . x: shift by m, then add the lamp values coordinate-wise.

    Returns the new point and its digit changes: each lamp position mapped
    to new - old, an integer in (-k, k).
    """
    if group.m != x.k:
        raise UsageError("lamp modulus does not match the point alphabet")
    lamps, m = g
    y = x.shifted(m)
    changes = {}
    for p, v in lamps:
        old = y.value(p)
        y.overrides[p] = (old + v) % y.k
        changes[p] = y.overrides[p] - old
    return y, changes


def bs_act(group: BaumslagSolitar, g, x: BiInfinitePoint) -> tuple[BiInfinitePoint, dict[int, int]]:
    """(a/k^s, n) . x = a/k^s + k^-n x: shift, then the k-adic odometer.

    Returns the new point and its digit changes: each position whose digit
    the carry changed mapped to new - old, in carry order.  The carry walks
    rightward; if it survives past DEFAULT_CARRY_BOUND positions the call
    raises WindowExhausted rather than fabricating a tail.
    """
    if group.k != x.k:
        raise UsageError("scale k does not match the point alphabet")
    a, s, n = g
    bound = DEFAULT_CARRY_BOUND
    y = x.shifted(-n)
    changes = {}
    k = y.k
    pos = -s
    cur = a
    start = pos
    while cur != 0:
        if pos - start > bound + abs(a).bit_length():
            raise WindowExhausted(
                f"carry ran past {bound} positions (all digits k-1)"
            )
        old = y.value(pos)
        t = old + cur
        new = t % k
        cur = t // k
        if new != old:
            y.overrides[pos] = new
            changes[pos] = new - old
        pos += 1
    return y, changes


def bs_element(group: BaumslagSolitar, changes: dict[int, int], n: int):
    """The BS(1,k) element (sum_p d_p k^p, n): shift by -n, then add d_p at each p."""
    scale = max(0, -min(changes, default=0))
    return group.make(sum(d * group.k ** (p + scale) for p, d in changes.items()), scale, n)


class BsLamplighterCoupling:
    """The shared-orbit actions of Z/kZ wr Z and BS(1,k) on prod_Z Z/kZ."""

    def __init__(self, k: int):
        self.k = k
        self.lamplighter = Lamplighter(k)
        self.bs = BaumslagSolitar(k)

    def point(self, seed: int, assignments: dict | None = None) -> BiInfinitePoint:
        x = BiInfinitePoint(self.k, seed)
        if assignments:
            for i, v in assignments.items():
                if not 0 <= v < self.k:
                    raise UsageError(f"digit {v} out of range for k={self.k}")
                x.overrides[i] = v
        return x

    def move_distance(self, side_metric: str, g, x: BiInfinitePoint) -> int:
        """Word length, in side_metric's group, of the element carrying x to g.x.

        ``side_metric`` is "ll" or "bs"; g belongs to the *other* group.
        """
        if side_metric == "ll":
            _, changes = bs_act(self.bs, g, x)
            return self.lamplighter.word_length(self.lamplighter.make(changes, -g[2]))
        if side_metric == "bs":
            _, changes = ll_act(self.lamplighter, g, x)
            return self.bs.word_length(bs_element(self.bs, changes, -g[1]))
        raise UsageError(f"side_metric must be ll|bs, got {side_metric!r}")

    def move_distance_array(self, g, seeds) -> np.ndarray:
        """move_distance("ll", g, point(s)) for each point seed s: the batched odometer.

        The carry runs one position at a time, on the samples whose carry is
        still alive.  Where bs_act would raise WindowExhausted the distance
        is -1.  The addend left at position -s + j is floor(a / k^j), shared
        by every sample, plus a per-sample carry of 0 or 1, so any a works on
        int64 rows.  A scale k of 2^32 or more goes through move_distance seed
        by seed, in an object array.
        """
        seeds = np.asarray(seeds, dtype=np.uint64)
        k = self.k
        if k >= 1 << 32:
            return np.array([self._ll_distance(g, self.point(int(s))) for s in seeds], dtype=object)
        a, s, n = g  # s and |n| are small: word_length(g) walks that many heights
        bound = DEFAULT_CARRY_BOUND + abs(a).bit_length()  # as bs_act, read at call time
        switches = np.zeros(len(seeds), dtype=np.int64)
        lo = np.full(len(seeds), min(0, -n), dtype=np.int64)  # the tour spans 0, -n and the changes
        hi = np.full(len(seeds), max(0, -n), dtype=np.int64)
        live = np.arange(len(seeds))
        carry = np.zeros(len(seeds), dtype=np.int64)
        rest = a
        for j in range(bound + 2):
            if rest in (0, -1):  # the addend rest + carry is 0 only here
                keep = carry != -rest
                live, carry = live[keep], carry[keep]
            if not len(live):
                break
            if j > bound:
                switches[live] = -1  # bs_act's WindowExhausted
                break
            pos = j - s
            rest, r = divmod(rest, k)
            step = (r + carry) % k  # new - old mod k, so the digit changed iff step != 0
            switches[live] += np.minimum(step, k - step)
            changed = live[step != 0]
            lo[changed] = np.minimum(lo[changed], pos)
            hi[changed] = np.maximum(hi[changed], pos)
            old = (derive_array(seeds[live], pos + n) % np.uint64(k)).astype(np.int64)
            carry = (old + r + carry) // k
        return np.where(switches < 0, -1, switches + 2 * (hi - lo) - abs(n))

    def _ll_distance(self, g, x: BiInfinitePoint) -> int:
        """move_distance("ll", g, x), or -1 where the carry runs past the window."""
        try:
            return self.move_distance("ll", g, x)
        except WindowExhausted:
            return -1

    def tail_bound_sweep(self, g, Ms, samples: int, seed: int) -> dict[int, "TailBoundReport"]:
        """Frequency of d_ll(g.x, x) >= (k+1)(2|g|_T + 2M + 3) vs the bound k^(1-M).

        One sampling pass serves every threshold M in Ms for the same g.  M must
        be at least 2: for M <= 1 the bound is at least 1 and cannot fail.
        Each engine block runs move_distance_array, and recomputes its first
        draw with the scalar move_distance: a mismatch raises RuntimeError.
        That guards the kernel's integer arithmetic against numpy changing
        its rules, as NEP 50 did for uint64 scalars in numpy 2.
        """
        if any(M < 2 for M in Ms):
            raise UsageError(f"tail thresholds need M >= 2, got {list(Ms)}")
        k = self.k
        glen = self.bs.word_length(g)
        thresholds = {M: (k + 1) * (2 * glen + 2 * M + 3) for M in Ms}

        def draw_block(start, stop):
            d = self.move_distance_array(g, derive_array(seed, np.arange(start, stop)))
            spot = self._ll_distance(g, self.point(derive(seed, start)))
            if d[0] != spot:
                raise RuntimeError(f"batched odometer gave {d[0]} where move_distance gives {spot} (sample {start})")
            return d

        counts = {M: 0 for M in Ms}
        exhausted = 0
        for d in sample_blocks(samples, draw_block):
            # a carry past the window (d = -1) certainly exceeds every threshold
            lost = d < 0
            exhausted += int(np.count_nonzero(lost))
            for M, thr in thresholds.items():
                counts[M] += int(np.count_nonzero(lost | (d >= thr)))
        out = {}
        for M in Ms:
            freq, stderr = proportion(counts[M], samples)
            out[M] = TailBoundReport(
                g=self.bs.format_element(g),
                g_length=glen,
                M=M,
                threshold=thresholds[M],
                samples=samples,
                freq=freq,
                stderr=stderr,
                bound=float(k) ** (1 - M),
                exhausted=exhausted,
            )
        return out


@dataclass
class TailBoundReport:
    g: str
    g_length: int
    M: int
    threshold: int
    samples: int
    freq: float
    stderr: float
    bound: float
    exhausted: int

    @property
    def passes(self) -> bool:
        """freq <= bound within 4 sigma, sigma taken at the bound itself.

        The plug-in stderr is one-sided: a high frequency widens its own band.
        """
        return self.freq <= self.bound + binomial_band(self.bound, self.samples)
