"""The bi-infinite coupling between Z/kZ wr Z and BS(1,k).

Both groups act on X = prod_Z Z/kZ: the lamplighter acts by shift-and-add,
and BS(1,k) = Z[1/k] x| Z acts with the Z part shifting and the Z[1/k] part
running the k-adic odometer (add with rightward carries) from its scale
position.  The two actions share orbits, and the element of one group
carrying x to g.x for g in the other group is reconstructed exactly from
the realized coordinate difference, which is what move_distance measures.

Shift orientation: reading a point as the k-adic number X = sum x_i k^i,
the lamplighter element (f, m) acts by X -> f + k^m X, which is a left
action for the wreath law.  For the semidirect law (z1, n1)(z2, n2) =
(z1 + z2 k^-n1, n1 + n2) the unique compatible left action is
(z, n) . X = z + k^-n X, so the BS shift generator (0, 1) moves
coordinates the opposite way from the lamplighter's (0, 1) (they match
after inverting the stable letter, an automorphism of BS(1,k) preserving
the generating set, so every distance and tail statement is unaffected).

Points hold a window of realized coordinates over a deterministic seeded
background, so every trajectory is reproducible and carries never silently
overrun: a carry longer than the window bound raises WindowExhausted (an
event of probability <= k^-bound per step).
"""

from __future__ import annotations

from dataclasses import dataclass

from ._rng import SampleLoop, derive, proportion
from .errors import UsageError, WindowExhausted
from .groups import BaumslagSolitar, Lamplighter

DEFAULT_CARRY_BOUND = 64


class BiInfinitePoint:
    """A point of prod_Z Z/kZ: realized overrides atop a seeded background.

    ``offset`` tracks accumulated shifts so unrealized coordinates stay a
    pure function of (seed, original position); re-reading a coordinate
    always yields the same value.
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
            self.overrides[i] = v
        return v

    def peek(self, i: int) -> int:
        """Like value() but without recording the realization."""
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

    def copy(self) -> "BiInfinitePoint":
        return BiInfinitePoint(self.k, self.seed, self.offset, dict(self.overrides))


def ll_act(group: Lamplighter, g, x: BiInfinitePoint) -> BiInfinitePoint:
    """(f, m) . x: shift by m, then add the lamp values coordinate-wise."""
    if group.m != x.k:
        raise UsageError("lamp modulus does not match the point alphabet")
    lamps, m = g
    y = x.shifted(m)
    for p, v in lamps:
        y.overrides[p] = (y.value(p) + v) % y.k
    return y


def bs_act(
    group: BaumslagSolitar,
    g,
    x: BiInfinitePoint,
    carry_bound: int = DEFAULT_CARRY_BOUND,
) -> tuple[BiInfinitePoint, list[int]]:
    """(a/k^s, n) . x = a/k^s + k^-n x: shift, then the k-adic odometer.

    Returns the new point and the positions whose digit actually changed.
    The carry walks rightward; if it survives past carry_bound positions the
    call raises WindowExhausted rather than fabricating a tail.
    """
    if group.k != x.k:
        raise UsageError("scale k does not match the point alphabet")
    a, s, n = g
    y = x.shifted(-n)
    changed = []
    if a == 0:
        return y, changed
    k = y.k
    pos = -s
    cur = a
    start = pos
    while cur != 0:
        if pos - start > carry_bound + abs(a).bit_length():
            raise WindowExhausted(
                f"carry ran past {carry_bound} positions (all digits k-1)"
            )
        old = y.value(pos)
        t = old + cur
        new = t % k
        cur = t // k
        if new != old:
            y.overrides[pos] = new
            changed.append(pos)
        pos += 1
    return y, changed


def bs_element_between(group: BaumslagSolitar, x: BiInfinitePoint, y: BiInfinitePoint, coord_shift: int):
    """The unique BS(1,k) element g with g . x = y.

    ``coord_shift`` is the coordinate shift the move applied (y ~ diff +
    coordinates of x moved by coord_shift), so the element's Z part is
    -coord_shift; the Z[1/k] part is the exact digit-difference sum
    (y_i - x'_i) k^i, finite because x and y share an orbit.
    """
    xs = x.shifted(coord_shift)
    positions = set(xs.overrides) | set(y.overrides)
    diffs = [(p, y.peek(p) - xs.peek(p)) for p in sorted(positions)]
    diffs = [(p, d) for p, d in diffs if d != 0]
    n = -coord_shift
    if not diffs:
        return group.make(0, 0, n)
    scale = max(0, -min(p for p, _ in diffs))
    num = sum(d * group.k ** (p + scale) for p, d in diffs)
    return group.make(num, scale, n)


def ll_element_between(group: Lamplighter, x: BiInfinitePoint, y: BiInfinitePoint, coord_shift: int):
    """The unique (f, coord_shift) in Z/kZ wr Z with (f, coord_shift) . x = y."""
    xs = x.shifted(coord_shift)
    positions = set(xs.overrides) | set(y.overrides)
    lamps = {}
    for p in positions:
        d = (y.peek(p) - xs.peek(p)) % group.m
        if d:
            lamps[p] = d
    return group.make(lamps, coord_shift)


class BsLamplighterCoupling:
    """The shared-orbit actions of Z/kZ wr Z and BS(1,k) on prod_Z Z/kZ."""

    def __init__(self, k: int, word_length_cap: int = 24, carry_bound: int = DEFAULT_CARRY_BOUND):
        self.k = k
        self.lamplighter = Lamplighter(k, word_length_cap)
        self.bs = BaumslagSolitar(k, word_length_cap)
        self.carry_bound = carry_bound

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
            y, changed = bs_act(self.bs, g, x, self.carry_bound)
            h = ll_element_between(self.lamplighter, x, y, -g[2])
            return self.lamplighter.word_length(h)
        if side_metric == "bs":
            y = ll_act(self.lamplighter, g, x)
            z = bs_element_between(self.bs, x, y, g[1])
            return self.bs.word_length(z)
        raise UsageError(f"side_metric must be ll|bs, got {side_metric!r}")

    def tail_bound_sweep(self, g, Ms, samples: int, seed: int) -> dict[int, "TailBoundReport"]:
        """Frequency of d_ll(g.x, x) >= (k+1)(2|g|_T + 2M + 3) vs the bound k^(1-M).

        One sampling pass serves every threshold M in Ms for the same g.
        """
        k = self.k
        glen = self.bs.word_length(g)
        thresholds = {M: (k + 1) * (2 * glen + 2 * M + 3) for M in Ms}
        lowest = min(thresholds.values())

        def draw(i):
            return self.move_distance("ll", g, self.point(derive(seed, i)))

        loop = SampleLoop(samples, draw, WindowExhausted)
        counts = {M: 0 for M in Ms}
        for d in loop:
            # a carry past the window (d is None) certainly exceeds every threshold
            if d is None or d >= lowest:
                for M, thr in thresholds.items():
                    if d is None or d >= thr:
                        counts[M] += 1
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
                exhausted=loop.exhausted,
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
        return self.freq <= self.bound + 4 * self.stderr
