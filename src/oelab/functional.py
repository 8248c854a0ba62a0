"""ell^p gradients, base-point transport, induced functions, and profiles.

The transport lemma: pushing f along an orbit map lambda -> lambda . x0
preserves the ell^p norm, and changing the base point costs at most the
Schreier distance times the right gradient:

    || f_x0 - f_x1 ||_p  <=  d(x0, x1) || grad^r f ||_p.

On a coupling, a finitely supported f on one group induces functions f^x on
the other whose left gradients are controlled on average by the cocycle
moments; induced_gradient_check measures both sides.

The isoperimetric profile is one exhaustive, exact search over connected
supports that maximizes |A| / ||grad 1_A||_1.  Weighting a support gains
nothing: by the coarea formula ||f||_1 / ||grad f||_1 is a weighted mean of
the ratios of f's level sets.  The search never translates a support: it
carries out(A) = #{(g, s) : g in A, s g not in A}, so ||grad 1_A||_1 =
2 out(A), and updates it from a per-call table of each element's
neighbours as it adds one element; the tests recompute the gradient from
scratch as its oracle.  Redelmeier's untried-set search gives the value
and the count; the frozenset enumeration is replayed only up to the
witness.  On a finite group the whole group is a support with an empty
boundary, which is a usage error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from ._rng import Moments, derive, per_sample, sample_blocks
from .coupling import CouplingPoint, IntegrabilityGauge, MatchedCoupling, mc_integrability
from .errors import DepthExhausted, ResourceExhausted, TruncationError, UsageError
from .groups import Group

DEFAULT_PROFILE_BUDGET = 200_000


@dataclass
class FiniteSupportFunction:
    """A finitely supported real function on a group (zeros never stored)."""

    group: Group
    entries: dict

    def __post_init__(self):
        self.entries = {g: v for g, v in self.entries.items() if v != 0}
        for g in self.entries:
            self.group.check_element(g)

    def __call__(self, g):
        return self.entries.get(g, 0.0)

    def norm(self, p: float) -> float:
        if p <= 0:
            raise UsageError("norm needs p > 0")
        return sum(abs(v) ** p for v in self.entries.values()) ** (1.0 / p)

    def gradient_power_sum(self, side: str, p: float) -> float:
        """sum over generators s and group elements of |f(g) - f(translate)|^p.

        side "left": translate is f(s^-1 g); side "right": f(g s).
        Only the finitely many nonzero terms are visited.
        """
        if p <= 0:
            raise UsageError("gradient needs p > 0")
        return float(_gradient_power_sum(self.group, self.entries, side, p))

    def gradient_norm(self, side: str, p: float) -> float:
        return self.gradient_power_sum(side, p) ** (1.0 / p)


def _gradient_power_sum(group: Group, entries: dict, side: str, p):
    """sum over generators s and g of |f(g) - f(s^-1 g)|^p (left) or |f(g) - f(g s)|^p.

    f is the finitely supported function ``entries``; only points where a
    term can be nonzero are visited.  Int values and an int p give an int.
    """
    if side not in ("left", "right"):
        raise UsageError(f"side must be left|right, got {side!r}")
    mul = group.multiply
    total = 0
    for s in group.generators:
        sinv = group.inverse(s)
        if side == "left":
            pts = set(entries) | {mul(s, g) for g in entries}
            for g in pts:
                total += abs(entries.get(g, 0) - entries.get(mul(sinv, g), 0)) ** p
        else:
            pts = set(entries) | {mul(g, sinv) for g in entries}
            for g in pts:
                total += abs(entries.get(g, 0) - entries.get(mul(g, s), 0)) ** p
    return total


class TransitiveAction:
    """A transitive action of a group on finitely many states.

    ``apply(g, state)`` returns the image state, or None when the action is a
    truncation and the image falls outside (surfaced as TruncationError by
    the operations that cannot tolerate it).
    """

    def __init__(self, group: Group, states: Iterable, apply: Callable):
        self.group = group
        self.states = list(states)
        self.apply = apply

    def schreier_distance(self, x0, x1) -> int:
        if x0 == x1:
            return 0
        seen = {x0: 0}
        frontier = [x0]
        while frontier:
            new = []
            for u in frontier:
                for s in self.group.generators:
                    v = self.apply(s, u)
                    if v is None or v in seen:
                        continue
                    seen[v] = seen[u] + 1
                    if v == x1:
                        return seen[v]
                    new.append(v)
            frontier = new
        raise TruncationError(f"{x1} unreachable from {x0} in the realized orbit")


@dataclass
class PushReport:
    lhs: float
    rhs: float
    distance: int
    norm_in: float
    norm_pushed: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + 1e-9


def push_to_orbit(
    f: FiniteSupportFunction,
    orbit: TransitiveAction,
    x0,
    x1,
    p: float,
) -> PushReport:
    """Both sides of the base-point transport inequality at (x0, x1).

    f_x(y) = (sum of |f(lambda)|^p over lambda with lambda.x = y)^(1/p);
    checks ||f_x0 - f_x1||_p <= d(x0, x1) ||grad^r f||_p and that the push
    preserves the p-norm.
    """
    if p < 1:
        raise UsageError("transport inequality needs p >= 1")

    def pushed(x):
        acc: dict = {}
        for lam, v in f.entries.items():
            y = orbit.apply(lam, x)
            if y is None:
                raise TruncationError("support image leaves the realized orbit")
            acc[y] = acc.get(y, 0.0) + abs(v) ** p
        return {y: w ** (1.0 / p) for y, w in acc.items()}

    f0, f1 = pushed(x0), pushed(x1)
    lhs = sum(
        abs(f0.get(y, 0.0) - f1.get(y, 0.0)) ** p for y in set(f0) | set(f1)
    ) ** (1.0 / p)
    d = orbit.schreier_distance(x0, x1)
    rhs = d * f.gradient_norm("right", p)
    norm_pushed = sum(v**p for v in f0.values()) ** (1.0 / p)
    return PushReport(lhs, rhs, d, f.norm(p), norm_pushed)


@dataclass
class InducedGradientReport:
    lhs: float
    lhs_stderr: float
    rhs: float
    rhs_stderr: float
    constant: float
    samples: int
    exhausted_fraction: float
    deterministic: bool

    def holds_within(self, sigmas: float) -> bool:
        spread = sigmas * math.hypot(self.lhs_stderr, self.rhs_stderr)
        return self.lhs <= self.rhs + spread + 1e-9


def induced_gradient_check(
    coupling: MatchedCoupling,
    which: str,
    f: FiniteSupportFunction,
    p: float,
    samples: int,
    seed: int,
    gauge: IntegrabilityGauge | None = None,
) -> InducedGradientReport:
    """Measure the induced-gradient inequality on an orbit coupling.

    ``which`` names the side whose group the induced functions f^x live on;
    f is a finitely supported function on the partner group.  With
    gauge=None this is the L^p inequality

        mean_x ||grad^l f^x||_p^p  <=  |S| max_s E[d(x, s.x)^p] ||grad^r f||_p^p,

    where f^x(gamma) = |f(alpha(gamma, x)^-1)| is evaluated through transfer
    cocycles.  With a gauge phi it is the phi-variant

        mean_x ||grad^l f^x||_1 / ||f||_1  <=  2 C / phi(||f||_1),

    with C = |S| max_s E[phi(d(x, s.x))], for f normalized to unit right
    gradient.
    """
    if p < 1:
        raise UsageError("induced gradient check needs p >= 1")
    side = coupling.side(which)
    partner = coupling.partner(which).tiling
    if f.group is not partner.group and f.group.name != partner.group.name:
        raise UsageError("f must live on the partner group")
    grp = side.group
    pgrp = partner.group
    sup_inv = {pgrp.inverse(lam): abs(v) for lam, v in f.entries.items()}
    partner_side = "right" if which == "left" else "left"

    identical = side.tiling.name == partner.name
    n_samples = 1 if identical else samples

    def draw(i):
        x = CouplingPoint((), derive(seed, 1, i))
        fx = {}
        for lam, v in sup_inv.items():
            gamma, _, _ = coupling.transfer_cocycle(partner_side, lam, x)
            fx[gamma] = v
        return _gradient_power_sum(grp, fx, "left", p)

    loop = Moments(sample_blocks(n_samples, per_sample(draw, DepthExhausted)))
    if loop.used == 0:
        raise DepthExhausted(coupling.max_depth)
    mean = loop.mean
    lhs_stderr = loop.stderr

    # cocycle-moment constant over the generators of the acting side
    moment_gauge = gauge if gauge is not None else IntegrabilityGauge.power(p)
    best = None
    best_stderr = 0.0
    for s in grp.generators:
        # only the estimate is read: strata_depth=0 forms no claimed radius past R_0
        rep = mc_integrability(coupling, which, s, moment_gauge, n_samples, derive(seed, 2), strata_depth=0)
        if best is None or rep.estimate > best:
            best = rep.estimate
            best_stderr = rep.stderr
    C = len(grp.generators) * best
    C_stderr = len(grp.generators) * best_stderr

    if gauge is None:
        rhs = C * f.gradient_power_sum("right", p)
        rhs_stderr = C_stderr * f.gradient_power_sum("right", p)
    else:
        norm1 = sum(abs(v) for v in f.entries.values())
        mean = mean / norm1
        lhs_stderr = lhs_stderr / norm1
        rhs = 2 * C / gauge(norm1)
        rhs_stderr = 2 * C_stderr / gauge(norm1)
    return InducedGradientReport(
        lhs=mean,
        lhs_stderr=lhs_stderr,
        rhs=rhs,
        rhs_stderr=rhs_stderr,
        constant=C,
        samples=n_samples,
        exhausted_fraction=loop.exhausted / n_samples,
        deterministic=identical,
    )


# ---------------------------------------------------------------------------
# isoperimetry
# ---------------------------------------------------------------------------


@dataclass
class ProfileResult:
    n: int
    value: Fraction
    witness: tuple
    convention: str
    subsets_searched: int


def _connected_supports(group: Group, max_size: int):
    """All connected subsets A of the Cayley graph containing e, up to max_size.

    Yields (A, out(A)) with out(A) = #{(g, s) : g in A, s g not in A}, the
    left gradient of the indicator halved.  Enumeration is canonical: a
    subset is grown only through its frontier, deduplicated by frozenset.
    Search restricted to supports containing the identity (translation
    invariance).  Adding h to A removes the pairs (s^-1 h, s) with s^-1 h in
    A and adds those (h, s) with s h not in A; S = S^-1, so
    out(A + h) = out(A) + |S| - 2 #{s : s h in A}.
    """
    e = group.identity
    gens = group.generators
    neighbours: dict = {}

    def around(g):
        hs = neighbours.get(g)
        if hs is None:
            hs = neighbours[g] = tuple(group.multiply(s, g) for s in gens)
        return hs

    start = frozenset([e])
    seen = {start}
    stack = [(start, len(gens))]
    while stack:
        A, out = stack.pop()
        yield A, out
        if len(A) == max_size:
            continue
        frontier = {h for g in A for h in around(g) if h not in A}
        for h in frontier:
            B = frozenset(A | {h})
            if B not in seen:
                seen.add(B)
                inside = sum(1 for x in around(h) if x in A)
                stack.append((B, out + len(gens) - 2 * inside))


def _untried_search(group: Group, n: int, budget: int):
    """Best |A| / (2 out(A)) over connected A containing e with 1 <= |A| <= n.

    Redelmeier's untried-set enumeration (Discrete Math. 36, 1981) visits
    each such support once and keeps no set of the supports it has seen.
    Elements are numbered the first time the search reaches them, with a
    table of their left neighbours s g.  A support is the path of elements
    added so far.  Its untried segment is the parent's still untried
    elements followed by the neighbours the new element reached first; all
    segments live in one list, which each depth truncates back on return.
    cnt[x] = #{s : s x in A} gives out(A + x) = out(A) + |S| - 2 cnt[x] at
    once, so a whole segment of size-n supports costs one pass over it.
    Returns (numerator, denominator, supports searched).  Past ``budget``
    supports ResourceExhausted carries the best ratio so far and the first
    support, in this order, that reaches it.
    """
    gens = group.generators
    S = len(gens)
    mul = group.multiply
    elements = [group.identity]
    index = {group.identity: 0}
    rows: list = [None]
    cnt = [0]
    marked = bytearray(b"\x01")  # in A, in an untried segment, or already tried
    untried = [0]
    chosen: list = []  # A, in the order its elements were added
    stack = [[0, 1, 0]]  # per depth: next untried index, segment end, out(A)
    searched = 0
    num, den, best = 0, 1, []

    def stop():
        return ResourceExhausted(
            f"profile search budget hit after {budget} supports",
            progress={"best": Fraction(num, den), "witness": tuple(sorted(elements[i] for i in best))},
        )

    while stack:
        frame = stack[-1]
        i, end, out = frame
        size = len(chosen) + 1
        if i == end:
            stack.pop()
            if chosen:
                for w in rows[chosen.pop()]:
                    cnt[w] -= 1
                top = stack[-1][1]
                for w in untried[top:]:
                    marked[w] = 0
                del untried[top:]
        elif size == n:
            # every untried element completes a support of size n: take them at once
            leaves = untried[i:end]
            frame[0] = end
            cut = searched + len(leaves) > budget
            if cut:
                del leaves[budget - searched :]
            searched += len(leaves)
            if leaves:
                c = list(map(cnt.__getitem__, leaves))
                most = max(c)
                o = out + S - 2 * most
                if o == 0:
                    raise _unbounded(group, n)
                if n * den > 2 * o * num:
                    num, den, best = n, 2 * o, chosen + [leaves[c.index(most)]]
            if cut:
                raise stop()
        else:
            frame[0] = i + 1
            v = untried[i]
            searched += 1
            if searched > budget:
                raise stop()
            o = out + S - 2 * cnt[v]
            if o == 0:
                raise _unbounded(group, size)
            if size * den > 2 * o * num:
                num, den, best = size, 2 * o, chosen + [v]
            row = rows[v]
            if row is None:
                g = elements[v]
                row = []
                for s in gens:
                    h = mul(s, g)
                    j = index.get(h)
                    if j is None:
                        j = index[h] = len(elements)
                        elements.append(h)
                        rows.append(None)
                        cnt.append(0)
                        marked.append(0)
                    row.append(j)
                rows[v] = row = tuple(row)
            for w in row:
                cnt[w] += 1
                if not marked[w]:
                    marked[w] = 1
                    untried.append(w)
            chosen.append(v)
            stack.append([i + 1, len(untried), o])
    return num, den, searched


def isoperimetric_profile(group: Group, n: int, budget: int | None = None) -> ProfileResult:
    """Exact profile lower bound over connected supports containing e.

    max |A| / ||grad^l 1_A||_1 over connected A with |A| <= n, as an exact
    rational (the denominator counts each generator's displacement
    separately, i.e. it is the ell^1 left gradient of the indicator,
    2 out(A)).  No f with values on such a support scores higher: by the
    coarea formula its ratio is a weighted mean of its level sets' ratios.
    The value and the number of supports come from the untried-set search;
    the witness is the first support in ``_connected_supports``' order
    whose ratio equals the value, found by replaying that enumeration up to
    it.  Past ``budget`` supports (default DEFAULT_PROFILE_BUDGET, read at
    call time) ResourceExhausted carries the best so far and its first
    support in the untried-set order.  A support with an empty boundary (a
    whole finite group) is a usage error.
    """
    if n < 0:
        raise UsageError("profile needs n >= 0")
    if budget is None:
        budget = DEFAULT_PROFILE_BUDGET
    best = Fraction(0)
    witness: tuple = ()
    searched = 0
    if n > 0:
        num, den, searched = _untried_search(group, n, budget)
        best = Fraction(num, den)
        # the same supports the search counted under the budget, so no budget here
        for A, out in _connected_supports(group, n):
            if len(A) * den == 2 * out * num:
                witness = tuple(sorted(A))
                break
    convention = (
        "denominator = ell^1 left gradient of the function "
        "(sum over generators s of sum_g |f(g) - f(s^-1 g)|); "
        "supports restricted to connected sets containing the identity"
    )
    return ProfileResult(n, best, witness, convention, searched)


def _unbounded(group: Group, size: int) -> UsageError:
    return UsageError(
        f"{group.name} is finite: its {size} elements form a support with an empty "
        "boundary, so the profile ratio is unbounded; use n below the group order"
    )


@dataclass
class SetQualityReport:
    size: int
    boundary_size: int
    quality: Fraction
    convention: str


def folner_set_quality(group: Group, A: Iterable, side: str = "left") -> SetQualityReport:
    """Exact |dA| / |A| with dA = S A symmetric-difference A (left side).

    Applied to a tile T_k this upper-bounds the Folner function at the
    reciprocal quality.  The boundary convention is the set-difference one
    (each boundary point counted once, not per generator); side "right"
    measures A S instead, which is the convention matching right-oriented
    tilings.
    """
    Aset = set(A)
    if not Aset:
        raise UsageError("folner_set_quality needs a nonempty finite set")
    if side not in ("left", "right"):
        raise UsageError(f"side must be left|right, got {side!r}")
    for g in Aset:
        group.check_element(g)
    if side == "left":
        SA = {group.multiply(s, g) for s in group.generators for g in Aset}
    else:
        SA = {group.multiply(g, s) for s in group.generators for g in Aset}
    boundary = SA.symmetric_difference(Aset)
    return SetQualityReport(
        size=len(Aset),
        boundary_size=len(boundary),
        quality=Fraction(len(boundary), len(Aset)),
        convention=f"dA = {'S A' if side == 'left' else 'A S'} symmetric-difference A (set, not multiset)",
    )
