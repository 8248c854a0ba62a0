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

One level walk, :meth:`TilingAction.walk`, serves the batched estimators.
It takes rows (gamma, point), grows each row's prefix product g_n in numpy
int64 through the tiling's ``letter_array``, ``grow_array`` and
``contains_array``, and at each level n yields the rows whose gamma g_n
first lands in T_n.  It runs a level only after ``proven_bound`` has
proved, with Python ints, that no value there reaches 2^62 for any gamma
of the batch; the rows still unresolved at the first level it refuses
finish through the scalar :meth:`act`.  Its two users take one engine
block (``_rng``) of samples at a time:

- :meth:`TilingAction.depths`, behind ``mc_tail_frequencies``, is its
  first-hit reduction for one gamma and no prefix;
- :func:`return_rows`, behind ``return_time_density``, walks the
  (sample, ball element) rows from each sample's pattern, rewrites the
  hits through the tiling's ``decode_array`` and tests membership in X0
  by mixed-radix keys.

The box tilings (``zn:N``, ``zn:N:grouped:M``, ``zblocks`` and
``zmatch``) and ``heis`` have every hook.  ``ll:M``'s gate admits only the
identity, whose depth is 0 without a level, so its rewrite depths (and
``couple tail`` on an ``ll`` side) stay scalar; ``ll:M`` and ``cyclic:Q``
have no ``decode_array``, so their return times run :meth:`act` per
(sample, ball element) pair.  ``mc_integrability`` and
``induced_gradient_check`` still run :meth:`act` per sample.  The scalar
``act`` stays in place as the oracle of the walk: both give the same
depth and the same rewritten point for every row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._rng import Moments, derive, derive_array, per_sample, proportion, randbelow, randbelow_array, sample_blocks
from .errors import DepthExhausted, UsageError
from .tilings import INT64_SAFE, TilingSequence

DEFAULT_MAX_DEPTH = 32
CHECK_LEVELS = 8  # letter counts compared up front; deeper levels as acts reach them
WALK_ROWS = 1 << 13  # (sample, gamma) rows per walk of return_rows: about 2 MB of int64 temporaries


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

    Build one as ``IntegrabilityGauge(kind, param)``: the identity takes no
    param and every other kind a finite one.  ``power(p)`` and ``from_spec``
    (the CLI's ``kind[:param]``) build through it.
    """

    def __init__(self, kind: str, param: float | None = None):
        if kind == "identity":
            if param is not None:
                raise UsageError("identity gauge takes no parameter")
        elif kind not in ("power", "exp", "logpow"):
            raise UsageError(f"unknown gauge kind {kind!r}")
        elif param is None or not math.isfinite(param):
            raise UsageError(f"{kind} gauge needs a finite parameter, got {param}")
        elif kind == "power" and param <= 0:
            raise UsageError("power gauge needs p > 0")
        elif kind == "exp" and param <= 0:
            raise UsageError("exp gauge needs c > 0")
        elif kind == "logpow" and not 0 <= param <= 2:
            # monotone iff eps - 1 <= log(1 + eps); true up to eps ~ 2.146
            raise UsageError("logpow gauge needs 0 <= eps <= 2")
        self.kind = kind
        self.param = param

    @classmethod
    def power(cls, p: float) -> "IntegrabilityGauge":
        return cls("power", p)

    @classmethod
    def from_spec(cls, spec: str) -> "IntegrabilityGauge":
        kind, colon, param = spec.partition(":")
        try:
            value = float(param) if colon else None
        except ValueError:
            raise UsageError(f"bad gauge spec {spec!r}") from None
        return cls(kind, value)

    def __call__(self, t: float) -> float:
        # arguments can be huge exact integers (tile radii); saturate to inf
        # instead of overflowing, and route logs through math.log on the int
        if t < 0:
            raise UsageError("gauge argument must be >= 0")
        try:
            if self.kind == "power":
                try:
                    return float(t) ** self.param
                except OverflowError:
                    return math.exp(self.param * math.log(t))
            if self.kind == "exp":
                return math.exp(self.param * t)
            if self.kind == "logpow":
                inner = math.log(t) if t > 1e16 else math.log(math.e + t)
                return inner / math.log(math.e + inner) ** (1.0 + self.param)
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

    def walk(self, gammas, seeds, which=None, prefix=None):
        """The level walk on rows: where each row's rewrite lands, level by level.

        Row r acts by gammas[which[r]] (gammas[0] when which is None) on the
        point whose coordinates below prefix's width are prefix[r] and whose
        deeper ones are drawn from the tail seed seeds[r], as ``coordinate``
        draws them.  For each level n that proven_bound admits for every
        gamma, it grows the prefix products g_n on int64 rows and yields
        (n, hit, cand): the rows whose product first lands in T_n at n, and
        their products gamma g_n (the argument of ``decode``).  At the first
        level it refuses it yields (n, rest, None): the rows still unresolved,
        which the caller finishes through the scalar :meth:`act`.  Rows still
        unresolved past max_depth are never yielded: they exhaust it.
        """
        t = self.tiling
        width = 0 if prefix is None else prefix.shape[1]
        active = np.arange(len(seeds))  # the rows not yet rewritten
        prod = h = None
        for n in range(self.max_depth + 1):
            if not len(active):
                return
            if any(t.proven_bound(gamma, n) is None for gamma in gammas):
                yield n, active, None
                return
            if n < width:
                idx = prefix[active, n]
            else:
                idx = t.random_letter_indices(n, seeds[active]).astype(np.int64)
            f = t.letter_array(n, idx)
            if prod is None:  # level 0: every row is active, and the gate bounds every gamma
                h = np.array([t.oriented(gamma) for gamma in gammas], dtype=np.int64)
                h = h[0] if which is None else h[which]
                prod = f
            else:
                prod = t.grow_array(prod, f)
            cand = t.grow_array(h, prod)
            hit = t.contains_array(cand, n)
            yield n, active[hit], cand[hit]
            keep = ~hit
            active, prod = active[keep], prod[keep]
            if which is not None:
                h = h[keep]

    def depths(self, gamma, tail_seeds) -> np.ndarray:
        """The rewrite depth of gamma at CouplingPoint((), s) for each s in tail_seeds.

        The first hit of each row of :meth:`walk`.  A point that exhausts
        max_depth gets max_depth + 1, beyond every tested k.  Equal, sample
        for sample, to act (see the module notes).  Its arrays hold a few
        values per seed, so callers pass one engine block of seeds at a time
        to keep memory flat.
        """
        seeds = np.asarray(tail_seeds, dtype=np.uint64)
        if gamma == self.group.identity:
            return np.zeros(len(seeds), dtype=np.int64)  # as act: the identity rewrites nothing
        depth = np.full(len(seeds), self.max_depth + 1, dtype=np.int64)
        for n, rows, cand in self.walk([gamma], seeds):
            if cand is not None:
                depth[rows] = n
                continue
            for i in rows:
                try:
                    depth[i] = self.act(gamma, CouplingPoint((), int(seeds[i])))[1]
                except DepthExhausted:
                    pass  # stays max_depth + 1
        return depth

    def exact_tail(self, gamma, k: int) -> Fraction:
        """Exact mu({rewrite depth of gamma > k}) = |T_k \\ gamma^-1 T_k| / |T_k|.

        Right-oriented tilings rewrite h_k(x) gamma^-1, so their tail set is
        |T_k \\ T_k gamma| and the closed form is queried at gamma^-1.
        """
        t = self.tiling
        return t.escape_fraction(t.oriented(gamma), k)


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
        self._check_match(0, min(CHECK_LEVELS, max_depth))

    def _check_match(self, lo: int, hi: int) -> None:
        """Equal letter counts at levels lo to hi."""
        for k in range(lo, hi + 1):
            if self.left.tiling.letter_count(k) != self.right.tiling.letter_count(k):
                raise UsageError(
                    f"letter counts differ at level {k}: "
                    f"{self.left.tiling.name} vs {self.right.tiling.name}"
                )

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
        self._check_match(CHECK_LEVELS + 1, n)
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
    bound_terms: list[float]
    bound_partial_sums: list[float]
    truncated: bool
    diverging: bool

    @property
    def stratified_bound(self) -> float:
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
    as a fraction.  The truncated stratified upper-bound series
    gauge(2 R'_k)(eps_{k-1} - eps_k), from the claimed (epsilon_k, R_k) of
    both tilings, is reported alongside.
    """
    if strata_depth is not None and strata_depth < 0:
        raise UsageError(f"strata_depth must be >= 0, got {strata_depth}")
    partner = coupling.partner(which).tiling

    def draw(i):
        lam, _, _ = coupling.transfer_cocycle(which, gamma, CouplingPoint((), derive(seed, i)))
        return gauge(partner.group.word_length(lam))

    loop = Moments(sample_blocks(samples, per_sample(draw, DepthExhausted)))

    depth = coupling.max_depth if strata_depth is None else strata_depth
    acting = coupling.side(which).tiling
    eps = [acting.claimed_epsilon(k) for k in range(depth + 1)]
    # gauges and claimed radii are nondecreasing, so once a term is +inf every
    # later one is: the doubly exponential lamplighter radii are never formed
    terms = []
    for k in range(depth + 1):
        saturated = terms and terms[-1] == math.inf
        terms.append(math.inf if saturated else gauge(2 * partner.claimed_radius(k)))
    for k in range(1, depth + 1):
        terms[k] *= float(eps[k - 1] - eps[k])
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
    |T_k \\ gamma^-1 T_k| / |T_k| (see exact_tail).  Sample i is the point
    CouplingPoint((), derive(seed, i)); one pass over blocks of samples
    serves all k.  Every k must be at most action.max_depth: the depth of
    a sample that exhausts max_depth is known only to exceed max_depth.
    """
    blocks = sample_blocks(samples, lambda a, b: action.depths(gamma, derive_array(seed, np.arange(a, b))))
    if max(ks, default=0) > action.max_depth:
        raise UsageError(f"tail k={max(ks)} exceeds max_depth={action.max_depth}")
    counts = {k: 0 for k in ks}
    for depths in blocks:
        for k in counts:
            counts[k] += int(np.count_nonzero(depths > k))
    return {k: proportion(c, samples) for k, c in counts.items()}


@dataclass(frozen=True)
class CylinderSet:
    """Finite union of prefix cylinders {x : (x_0..x_{d-1}) in patterns}.

    ``table`` holds the patterns once, sorted: a sample's pattern is drawn
    from it by index.
    """

    depth: int
    patterns: frozenset[tuple[int, ...]]
    table: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.depth < 1:
            raise UsageError("cylinder depth must be >= 1")
        for p in self.patterns:
            if len(p) != self.depth:
                raise UsageError("all patterns must have length == depth")
        if not self.patterns:
            raise UsageError("cylinder set must be nonempty")
        object.__setattr__(self, "table", tuple(sorted(self.patterns)))

    def measure(self, tiling: TilingSequence) -> Fraction:
        return Fraction(len(self.patterns), tiling.tile_size(self.depth - 1))

    def contains(self, action: TilingAction, x: CouplingPoint) -> bool:
        return tuple(action.coordinates(x, self.depth - 1)) in self.patterns

    def sample(self, seed: int, i: int) -> CouplingPoint:
        return CouplingPoint(self.table[randbelow(len(self.table), seed, i, 0)], derive(seed, i, 1))


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
        """How many plug-in stderr units the inequality has to spare; the verdict is ``passes``."""
        if self.lhs_stderr == 0:
            return math.inf if self.lhs >= self.rhs else -math.inf
        return (self.lhs - self.rhs) / self.lhs_stderr

    @property
    def passes(self) -> bool:
        """lhs >= rhs within 4 sigma, sigma the distribution-free mu / (2 sqrt N).

        Each sample lies in [0, 1], so its variance is at most 1/4; unlike the
        plug-in stderr, this sigma is never 0.
        """
        return self.lhs >= self.rhs - 4 * self.measure / (2 * math.sqrt(self.samples))


def return_time_density(
    action: TilingAction,
    x0: CylinderSet,
    n: int,
    samples: int,
    seed: int,
) -> ReturnTimeReport:
    """Estimate int_{X0} |R_X0(x) n B(e,n)| / V(n) dmu against 2 mu(X0) - 1.

    R_X0(x) is the return-time set {gamma : gamma.x in X0}; the integral is
    estimated by sampling x uniformly in X0 (sample i is x0.sample(seed, i))
    and counting returns over the exact ball B(e, n), one engine block of
    samples at a time through :func:`return_rows`.
    """
    ball = sorted(action.group.ball(n))
    V = len(ball)
    mu = float(x0.measure(action.tiling))
    exhausted = 0

    def draw_block(start: int, stop: int) -> list:
        nonlocal exhausted
        i = np.arange(start, stop)
        back = return_rows(action, x0, ball, randbelow_array(len(x0.table), seed, i, 0), derive_array(seed, i, 1))
        exhausted += int(np.count_nonzero(back < 0))  # counted as non-returns; the sample still counts
        return [count / V for count in np.count_nonzero(back > 0, axis=1).tolist()]

    loop = Moments(sample_blocks(samples, draw_block))
    return ReturnTimeReport(
        lhs=mu * loop.mean,
        lhs_stderr=mu * loop.stderr,
        rhs=2 * mu - 1,
        measure=mu,
        ball_size=V,
        samples=samples,
        exhausted_fraction=exhausted / (samples * V),
    )


def return_rows(action: TilingAction, x0: CylinderSet, gammas: Sequence, picks, tail_seeds) -> np.ndarray:
    """Whether gamma_j . x_s lies in X0, for x_s = CouplingPoint(x0.table[picks[s]], tail_seeds[s]).

    An (S, G) int8 array: 1 for a return, 0 for none, -1 where act exhausts
    max_depth.  On a tiling with ``decode_array``, and patterns of letter
    indices whose mixed-radix keys stay below 2^62, the (sample, gamma) rows
    run on :meth:`TilingAction.walk`, WALK_ROWS rows at a time: a row that
    hits at level n keeps x's own coordinates n < j < d and takes the others
    from ``decode_array``, and X0 membership compares mixed-radix keys.
    Every other row (each row, on the other tilings) runs the scalar act
    and ``x0.contains``, the kernel's oracle.
    """
    t, d = action.tiling, x0.depth
    S, G = len(picks), len(gammas)
    out = np.zeros((S, G), dtype=np.int8)
    flat = out.reshape(-1)  # row r = s G + j

    def scalar(rows):
        for r in rows:
            s, j = divmod(int(r), G)
            try:
                y, _ = action.act(gammas[j], CouplingPoint(x0.table[picks[s]], int(tail_seeds[s])))
            except DepthExhausted:
                flat[r] = -1
                continue
            flat[r] = x0.contains(action, y)

    counts = [t.letter_count(j) for j in range(d)]
    # a pattern that is no letter index goes to act, which rejects it where it reads it
    if not (
        hasattr(t, "decode_array")
        and math.prod(counts) < INT64_SAFE
        and all(0 <= a < c for p in x0.table for a, c in zip(p, counts))
    ):
        scalar(range(S * G))
        return out
    radix = np.array([math.prod(counts[:j]) for j in range(d)], dtype=np.int64)
    table = np.array(x0.table, dtype=np.int64)
    keys = table @ radix
    picks = np.asarray(picks).astype(np.intp)
    tail_seeds = np.asarray(tail_seeds, dtype=np.uint64)
    per = max(1, WALK_ROWS // max(1, G))  # samples per walk
    for a in range(0, S, per):
        rows = np.arange(a * G, min(S, a + per) * G)
        sample = rows // G
        prefix = table[picks[sample]]
        flat[rows] = -1  # a row the walk never yields exhausts max_depth
        for n, hit, cand in action.walk(gammas, tail_seeds[sample], rows % G, prefix):
            if cand is None:
                scalar(rows[hit])
                break
            coords = prefix[hit]
            m = min(d, n + 1)
            coords[:, :m] = t.decode_array(cand, n)[:, :m]
            flat[rows[hit]] = np.isin(coords @ radix, keys)
    return out
