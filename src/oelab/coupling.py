"""Orbit-equivalence couplings built from two tilings with matched letter sizes.

The product space X = prod_k F_k carries a measure-preserving action of the
tiled group: to act by gamma on x, find the smallest depth n at which the
prefix product g_n(x) = x_0...x_n satisfies gamma g_n(x) in T_n, rewrite the
first n+1 coordinates by decoding gamma g_n(x), and keep the rest.  (Right
tilings use h_n(x) = x_n...x_0 and the rewrite h_n(x) gamma^-1.)

When two tilings have equal letter counts the coordinate identification is a
measure-preserving bijection of the product spaces, and acting on one side
while reading prefix products on the other yields the transfer cocycle: the
unique partner-group element carrying the point to its image.

Points are a finite prefix of letter indices plus a seeded tail, so a point
of the infinite product is finitely representable and every estimate is
reproducible from (seed, counters).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._rng import SampleLoop, derive, proportion, randbelow
from .errors import DepthExhausted, UsageError
from .tilings import DEFAULT_TILE_BUDGET, TilingSequence

DEFAULT_MAX_DEPTH = 32
CHECK_LEVELS = 8  # letter counts compared up front; deeper levels as acts reach them


@dataclass(frozen=True)
class CouplingPoint:
    """A point of prod_k F_k: explicit prefix indices, deterministic tail.

    Coordinate k beyond the prefix is a uniform letter index derived from
    (tail_seed, k); two points with equal prefix and seed agree everywhere.
    """

    prefix: tuple[int, ...] = ()
    tail_seed: int = 0


class IntegrabilityGauge:
    """Nondecreasing gauge phi applied to cocycle word lengths.

    Kinds: power t^p (p > 0), exp(c t) (c > 0), the identity, and the
    corrected-log gauge logpow(eps) = log(e+t) / log(e+log(e+t))^(1+eps),
    which grows slightly slower than log: the natural yardstick for
    couplings whose distances blow up exponentially, where the plain-log
    strata are borderline (constant terms) and the correction makes them
    summable for every eps > 0.
    """

    def __init__(self, kind: str, param: float | None = None):
        if kind == "power":
            if param is None or param <= 0:
                raise UsageError("power gauge needs p > 0")
        elif kind == "exp":
            if param is None or param <= 0:
                raise UsageError("exp gauge needs c > 0")
        elif kind == "logpow":
            # monotone iff eps - 1 <= log(1 + eps); true up to eps ~ 2.146
            if param is None or not 0 <= param <= 2:
                raise UsageError("logpow gauge needs 0 <= eps <= 2")
        elif kind == "identity":
            param = None
        else:
            raise UsageError(f"unknown gauge kind {kind!r}")
        self.kind = kind
        self.param = param

    @classmethod
    def power(cls, p: float) -> "IntegrabilityGauge":
        return cls("power", p)

    @classmethod
    def exp(cls, c: float) -> "IntegrabilityGauge":
        return cls("exp", c)

    @classmethod
    def log_power(cls, eps: float) -> "IntegrabilityGauge":
        return cls("logpow", eps)

    @classmethod
    def identity(cls) -> "IntegrabilityGauge":
        return cls("identity")

    @classmethod
    def from_spec(cls, spec: str) -> "IntegrabilityGauge":
        kind, _, param = spec.partition(":")
        if kind == "identity":
            return cls.identity()
        try:
            return cls(kind, float(param))
        except ValueError:
            raise UsageError(f"bad gauge spec {spec!r}") from None

    def __call__(self, t: float) -> float:
        # arguments can be huge exact integers (tile radii); saturate to inf
        # instead of overflowing, and route logs through math.log on the int
        if t < 0:
            raise UsageError("gauge argument must be >= 0")
        if self.kind == "power":
            try:
                return float(t) ** self.param
            except OverflowError:
                pass
            try:
                return math.exp(self.param * math.log(t))
            except OverflowError:
                return math.inf
        if self.kind == "exp":
            try:
                return math.exp(self.param * t)
            except OverflowError:
                return math.inf
        if self.kind == "logpow":
            inner = math.log(t) if t > 1e16 else math.log(math.e + t)
            return inner / math.log(math.e + inner) ** (1.0 + self.param)
        try:
            return float(t)
        except OverflowError:
            return math.inf

    def describe(self) -> str:
        if self.kind == "identity":
            return "identity"
        return f"{self.kind}:{self.param}"


class TilingAction:
    """One side of a coupling: the tiled group acting on the index space."""

    def __init__(self, tiling: TilingSequence, max_depth: int = DEFAULT_MAX_DEPTH):
        if max_depth < 0:
            raise UsageError(f"max_depth must be >= 0, got {max_depth}")
        self.tiling = tiling
        self.group = tiling.group
        self.max_depth = max_depth

    def coordinate(self, x: CouplingPoint, k: int) -> int:
        if k < len(x.prefix):
            return x.prefix[k]
        return self.tiling.random_letter_index(k, x.tail_seed)

    def coordinates(self, x: CouplingPoint, upto: int) -> list[int]:
        return [self.coordinate(x, k) for k in range(upto + 1)]

    def carrier(self, x: CouplingPoint, y: CouplingPoint, n: int):
        """The element carrying x to y, read from their first n+1 coordinates."""
        t = self.tiling
        gx = t.prefix_product(self.coordinates(x, n))
        gy = t.prefix_product(self.coordinates(y, n))
        return t.oriented(t.grow(gy, self.group.inverse(gx)))

    def act(self, gamma, x: CouplingPoint) -> tuple[CouplingPoint, int]:
        """gamma . x and the rewrite depth n (smallest with the product in T_n)."""
        t = self.tiling
        if gamma == self.group.identity:
            return x, 0
        grow = t.grow
        h = t.oriented(gamma)
        prod = None
        for n in range(self.max_depth + 1):
            f = t.letter(n, self.coordinate(x, n))
            prod = f if prod is None else grow(prod, f)
            cand = grow(h, prod)
            if t.contains(cand, n):
                new = t.decode(cand, n)
                if len(x.prefix) > n + 1:
                    new = new + x.prefix[n + 1 :]
                return CouplingPoint(new, x.tail_seed), n
        raise DepthExhausted(self.max_depth)

    def stabilization_depth(self, gamma, x: CouplingPoint) -> int:
        """rho(gamma.x, x): first index beyond which all coordinates agree.

        At the first rewrite depth n the n-th coordinate provably changes
        (otherwise the rewrite would already have happened at depth n-1), so
        rho = n + 1 whenever gamma.x != x.  The tile-measure tail law is
        therefore phrased in terms of rewrite depth: mu({rewrite depth > k})
        equals |T_k \\ gamma^-1 T_k| / |T_k|, which is what exact_tail and
        mc_tail_frequencies compute.
        """
        y, n = self.act(gamma, x)
        rho = 0
        for k in range(n + 1):
            if self.coordinate(y, k) != self.coordinate(x, k):
                rho = k + 1
        return rho

    def exact_tail(self, gamma, k: int, budget: int = DEFAULT_TILE_BUDGET) -> Fraction:
        """Exact mu({x : rho(gamma.x, x) > k}) = |T_k \\ gamma^-1 T_k| / |T_k|.

        Right-oriented tilings rewrite h_k(x) gamma^-1, so their tail set is
        |T_k \\ T_k gamma| and the closed form is queried at gamma^-1.
        """
        t = self.tiling
        h = t.oriented(gamma)
        closed = t.escape_fraction(h, k)
        if closed is not None:
            return closed
        return t.enumerated_escape(h, set(t.build_tiles(k, budget)[k]))


class MatchedCoupling:
    """Two tilings with equal letter counts acting on the same index space."""

    def __init__(
        self,
        left: TilingSequence,
        right: TilingSequence,
        max_depth: int = DEFAULT_MAX_DEPTH,
    ):
        self.left = TilingAction(left, max_depth)
        self.right = TilingAction(right, max_depth)
        self.max_depth = max_depth
        self._checked = -1
        self._check_match(min(CHECK_LEVELS, max_depth))

    def _check_match(self, upto: int) -> None:
        for k in range(self._checked + 1, upto + 1):
            if self.left.tiling.letter_count(k) != self.right.tiling.letter_count(k):
                raise UsageError(
                    f"letter counts differ at level {k}: "
                    f"{self.left.tiling.name} vs {self.right.tiling.name}"
                )
        self._checked = max(self._checked, upto)

    def side(self, which: str) -> TilingAction:
        if which == "left":
            return self.left
        if which == "right":
            return self.right
        raise UsageError(f"side must be left|right, got {which!r}")

    def partner(self, which: str) -> TilingAction:
        return self.right if which == "left" else self.left

    def act(self, which: str, gamma, x: CouplingPoint) -> tuple[CouplingPoint, int]:
        side = self.side(which)
        y, n = side.act(gamma, x)
        self._check_match(n)
        return y, n

    def transfer_cocycle(self, which: str, gamma, x: CouplingPoint):
        """The partner-group element carrying x to gamma.x along the orbit."""
        y, n = self.act(which, gamma, x)
        return self.partner(which).carrier(x, y, n), y, n


@dataclass
class IntegrabilityReport:
    gauge: str
    estimate: float
    stderr: float
    samples: int
    exhausted_fraction: float
    bound_terms: list[float] | None
    bound_partial_sums: list[float] | None
    truncated: bool
    diverging: bool | None

    @property
    def stratified_bound(self) -> float | None:
        if not self.bound_partial_sums:
            return None
        return self.bound_partial_sums[-1]


def mc_integrability(
    coupling: MatchedCoupling,
    which: str,
    gamma,
    gauge: IntegrabilityGauge,
    samples: int,
    seed: int,
    strata_depth: int | None = None,
) -> IntegrabilityReport:
    """Monte Carlo estimate of int gauge(d_partner(x, gamma.x)) dmu.

    The distance is the partner word length of the transfer cocycle.  Points
    that exhaust the rewrite depth are excluded from the mean and reported
    as a fraction.  When both tilings carry claimed (epsilon_k, R_k), the
    truncated stratified upper-bound series gauge(2 R'_k)(eps_{k-1} - eps_k)
    is reported alongside.
    """
    if strata_depth is not None and strata_depth < 0:
        raise UsageError(f"strata_depth must be >= 0, got {strata_depth}")
    partner = coupling.partner(which).tiling

    def draw(i):
        lam, _, _ = coupling.transfer_cocycle(which, gamma, CouplingPoint((), derive(seed, i)))
        return gauge(partner.group.word_length(lam))

    loop = SampleLoop(samples, draw, DepthExhausted).run()

    terms = partial = diverging = None
    depth = coupling.max_depth if strata_depth is None else strata_depth
    acting = coupling.side(which).tiling
    eps = [acting.claimed_epsilon(k) for k in range(depth + 1)]
    radii = [partner.claimed_radius(k) for k in range(depth + 1)]
    if all(e is not None for e in eps) and all(r is not None for r in radii):
        terms = [gauge(2 * radii[0])]
        for k in range(1, depth + 1):
            terms.append(gauge(2 * radii[k]) * float(eps[k - 1] - eps[k]))
        partial = list(itertools.accumulate(terms))
        # heuristic: the tail of the series is not decaying
        diverging = len(terms) >= 4 and terms[-1] >= terms[-2] >= terms[-3] and terms[-1] > terms[1]
    return IntegrabilityReport(
        gauge=gauge.describe(),
        estimate=loop.mean,
        stderr=loop.stderr,
        samples=samples,
        exhausted_fraction=loop.exhausted / samples,
        bound_terms=terms,
        bound_partial_sums=partial,
        truncated=True,
        diverging=diverging,
    )


def mc_tail_frequencies(
    action: TilingAction,
    gamma,
    ks: Sequence[int],
    samples: int,
    seed: int,
) -> dict[int, tuple[float, float]]:
    """Monte Carlo frequency of the tail event {gamma g_k(x) not in T_k}.

    That event is "rewrite depth > k"; its exact probability is
    |T_k \\ gamma^-1 T_k| / |T_k| (see exact_tail).  One pass serves all k.
    """

    def draw(i):
        return action.act(gamma, CouplingPoint((), derive(seed, i)))[1]

    counts = {k: 0 for k in ks}
    for depth in SampleLoop(samples, draw, DepthExhausted):
        if depth is None:
            depth = action.max_depth + 1  # certainly beyond every tested k
        for k in ks:
            if depth > k:
                counts[k] += 1
    return {k: proportion(c, samples) for k, c in counts.items()}


@dataclass(frozen=True)
class CylinderSet:
    """Finite union of prefix cylinders {x : (x_0..x_{d-1}) in patterns}."""

    depth: int
    patterns: frozenset[tuple[int, ...]]

    def __post_init__(self):
        if self.depth < 1:
            raise UsageError("cylinder depth must be >= 1")
        for p in self.patterns:
            if len(p) != self.depth:
                raise UsageError("all patterns must have length == depth")
        if not self.patterns:
            raise UsageError("cylinder set must be nonempty")

    def measure(self, tiling: TilingSequence) -> Fraction:
        return Fraction(len(self.patterns), tiling.tile_size(self.depth - 1))

    def contains(self, action: TilingAction, x: CouplingPoint) -> bool:
        return tuple(action.coordinates(x, self.depth - 1)) in self.patterns

    def sample(self, seed: int, i: int) -> CouplingPoint:
        pats = sorted(self.patterns)
        pick = pats[randbelow(len(pats), seed, i, 0)]
        return CouplingPoint(tuple(pick), derive(seed, i, 1))


@dataclass
class ReturnTimeReport:
    lhs: float
    lhs_stderr: float
    rhs: float
    measure: float
    ball_size: int
    samples: int
    exhausted_fraction: float

    @property
    def holds_within(self) -> float:
        """How many stderr units the inequality has to spare (>= 0 passes)."""
        if self.lhs_stderr == 0:
            return math.inf if self.lhs >= self.rhs else -math.inf
        return (self.lhs - self.rhs) / self.lhs_stderr


def return_time_density(
    action: TilingAction,
    x0: CylinderSet,
    n: int,
    samples: int,
    seed: int,
) -> ReturnTimeReport:
    """Estimate int_{X0} |R_X0(x) n B(e,n)| / V(n) dmu against 2 mu(X0) - 1.

    R_X0(x) is the return-time set {gamma : gamma.x in X0}; the integral is
    estimated by sampling x uniformly in X0 and counting returns over the
    exact ball B(e, n).
    """
    ball = sorted(action.group.ball(n))
    V = len(ball)
    mu = float(x0.measure(action.tiling))
    exhausted = 0

    def draw(i):
        nonlocal exhausted
        x = x0.sample(seed, i)
        count = 0
        for gamma in ball:
            try:
                y, _ = action.act(gamma, x)
            except DepthExhausted:
                exhausted += 1  # one element of the ball; the sample still counts
                continue
            if x0.contains(action, y):
                count += 1
        return count / V

    loop = SampleLoop(samples, draw, DepthExhausted).run()
    return ReturnTimeReport(
        lhs=mu * loop.mean,
        lhs_stderr=mu * loop.stderr,
        rhs=2 * mu - 1,
        measure=mu,
        ball_size=V,
        samples=samples,
        exhausted_fraction=exhausted / (samples * V),
    )
