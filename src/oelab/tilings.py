"""Folner tiling sequences: construction, verification, and the built-ins.

A tiling sequence is a sequence of finite letter sets F_k whose products
tile each other disjointly: with left orientation the tiles satisfy
T_{k+1} = T_k F_{k+1} (disjoint union over F_{k+1}); with right orientation
T_{k+1} = F_{k+1} T_k.  Every element of T_k factors uniquely into letters,
which is what :meth:`TilingSequence.decode` computes.  Letters are addressed
by index, so two tilings with equal letter counts share one product space,
and unranked on demand: the lamplighter's letter counts grow doubly
exponentially.  Built-ins carry the claimed (epsilon_k, R_k) so the verifier
can compare computed boundary ratios and diameters against them.

Every built-in answers ``contains``, ``decode``, ``escape_fraction`` and both
claims in closed form; the base class has no fallback for them.
:meth:`TilingSequence.build_tiles` materializes tiles as Python tuples: it is
the tests' enumeration oracle, and it proves disjointness for the families
without array hooks.  Each built-in but ``cyclic:Q`` takes its exact diameter
from its own structure, with the quotient loop over that tile as the oracle.

The box tilings ``zn:N``, ``zn:N:grouped:M``, ``zblocks`` and ``zmatch`` are
one class with one alphabet, :class:`_BoxTiling`.  They, ``heis`` and ``ll:M``
have row hooks: they unrank letters and test membership on (N, d) int64
arrays (an ``ll:M`` row is the cursor, then the lamp digits on
[0, 2^(k+1))), and bound those values, the group's products and its
``distance_array`` through ``int64_bound``.  ``proven_bound`` is the one
gate: the batched rewrite-depth kernel in ``coupling``, the sorted-row
disjointness proof in :meth:`TilingSequence.prove_disjoint` and the sampled
``tile_diameter`` run a level on rows only after it proves int64 exact, and
the scalar methods are the oracles.  ``ll:M``'s gate admits only the
identity (a window row cannot hold t gamma^-1), so its rewrite depths stay
scalar.  The proof stores each level's rows in the narrowest signed dtype
that holds +-proven_bound (int8 for ``ll:M``), and builds and packs them in
blocks of ROW_BLOCK = 2^15 rows; its products stay int64.
:meth:`TilingSequence.grow_array` is the one place that reads the
orientation on rows.  The sampled diameter draws each level's letter indices
as one array, as ``depths`` does, and takes the largest ``distance_array``
over each engine block of pairs; a tiling that fails the gate at some level
up to k multiplies per point instead.

A box tiling's ``_levels`` list grows level by level on demand and ``grow``
is cached on first use; with a wreath point's realized lamps, that is all
oelab changes after construction.
oelab is single-threaded: share a tiling, coupling or point under a lock.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import groups
from ._rng import randbelow, randbelow_array, sample_blocks
from .errors import NotInTile, ResourceExhausted, TilingViolation, UsageError

DEFAULT_TILE_BUDGET = 4_000_000
INT64_SAFE = 1 << 62  # array hooks run only where int64_bound proves values stay below this
ROW_BLOCK = 1 << 15  # rows per block of the disjointness proof


class Orientation(Enum):
    LEFT = "left"
    RIGHT = "right"


class TilingSequence:
    """Base class; subclasses provide letters, membership, decoding, escape
    fractions and the claimed (epsilon_k, R_k), all in closed form."""

    group: groups.Group
    orientation: Orientation = Orientation.LEFT
    name: str = "?"

    # -- orientation ---------------------------------------------------------

    @functools.cached_property
    def grow(self) -> Callable:
        """The product in tile order: (t, f) -> t f for left tilings, f t for right."""
        mul = self.group.multiply
        if self.orientation is Orientation.LEFT:
            return mul
        return lambda t, f: mul(f, t)

    def grow_array(self, t, f):
        """grow on int64 rows: multiply_array(t, f) for left tilings, multiply_array(f, t) for right."""
        if self.orientation is Orientation.LEFT:
            return self.group.multiply_array(t, f)
        return self.group.multiply_array(f, t)

    def oriented(self, gamma):
        """gamma (left) or gamma^-1 (right): grow(oriented(gamma), g) is gamma acting on g."""
        if self.orientation is Orientation.LEFT:
            return gamma
        return self.group.inverse(gamma)

    # -- letters -----------------------------------------------------------

    def letter_count(self, k: int) -> int:
        raise NotImplementedError

    def letter(self, k: int, idx: int):
        """Unrank: the idx-th letter of F_k (0 <= idx < letter_count(k))."""
        raise NotImplementedError

    # -- tiles -------------------------------------------------------------

    def tile_size(self, k: int) -> int:
        return math.prod(self.letter_count(i) for i in range(k + 1))

    def contains(self, g, k: int) -> bool:
        """Membership in T_k."""
        raise NotImplementedError

    def decode(self, g, k: int) -> tuple[int, ...]:
        """Letter indices (i_0, ..., i_k) of the unique factorization of g.

        Left orientation: g = f_0 f_1 ... f_k; right: g = f_k ... f_1 f_0.
        Raises NotInTile when g is not in T_k.
        """
        raise NotImplementedError

    def claimed_epsilon(self, k: int) -> Fraction:
        raise NotImplementedError

    def claimed_radius(self, k: int) -> int:
        raise NotImplementedError

    def escape_fraction(self, gamma, k: int) -> Fraction:
        """Exact #{t in T_k : grow(gamma, t) not in T_k} / |T_k|.

        That is |T_k \\ gamma^-1 T_k| for left tilings and |T_k \\ T_k gamma^-1|
        for right ones.
        """
        raise NotImplementedError

    # -- generic machinery ---------------------------------------------------

    def prefix_product(self, indices: Sequence[int]):
        """Product of the letters addressed by indices, in tile order."""
        grow, g = self.grow, None
        for k, idx in enumerate(indices):
            f = self.letter(k, idx)
            g = f if g is None else grow(g, f)
        return self.group.identity if g is None else g

    def random_letter_index(self, k: int, seed: int, *counters: int) -> int:
        return randbelow(self.letter_count(k), seed, k, *counters)

    def random_letter_indices(self, k: int, seeds, *counters) -> np.ndarray:
        """random_letter_index(k, s, *c) over the broadcast of seeds and counter arrays."""
        return randbelow_array(self.letter_count(k), seeds, k, *counters)

    def int64_bound(self, gamma, k: int) -> int | None:
        """Bound on every |value| the array hooks compute at level k of gamma's rewrite.

        That covers ``letter_array(k, .)``, ``contains_array(., k)``, the
        group's ``multiply_array`` forming prefix products in T_k and
        grow(gamma, prefix), and, for the identity, the group's
        ``distance_array`` on two points of T_k.  None when the family has no
        array hooks for gamma.
        """
        return None

    def proven_bound(self, gamma, k: int) -> int | None:
        """int64_bound(gamma, k) if it and |F_k| are below 2^62, else None: the array hooks' gate."""
        bound = self.int64_bound(gamma, k)
        return None if bound is None or max(bound, self.letter_count(k)) >= INT64_SAFE else bound

    def build_tiles(self, K: int, budget: int = DEFAULT_TILE_BUDGET) -> list[list]:
        """Materialize T_0..T_K, proving disjointness by cardinality.

        The tiling condition |T_k| = prod |F_i| is checked level by level;
        on failure the first colliding pair of factorizations is reported.
        """
        if K < 0:
            raise UsageError("build_tiles needs K >= 0")
        if self.tile_size(K) > budget:
            raise ResourceExhausted(
                f"|T_{K}| = {self.tile_size(K)} exceeds budget {budget}"
            )
        grow = self.grow
        # every |F_k| <= |T_K| <= budget
        letters = [[self.letter(k, i) for i in range(self.letter_count(k))] for k in range(K + 1)]
        tiles = letters[:1]
        if len(set(tiles[0])) != self.letter_count(0):
            raise TilingViolation(0, _first_duplicate(tiles[0]))
        for k in range(1, K + 1):
            prev = tiles[k - 1]
            new, seen = [], set()
            for f in letters[k]:
                for t in prev:
                    g = grow(t, f)
                    new.append(g)
                    seen.add(g)
            if len(seen) != len(new):
                # position p holds letters[p // |prev|] acting on prev[p % |prev|]
                i, j, g = _first_duplicate(new)
                (a, b), (c, d) = divmod(i, len(prev)), divmod(j, len(prev))
                raise TilingViolation(k, ((prev[b], letters[k][a]), (prev[d], letters[k][c]), g))
            tiles.append(new)
        return tiles

    def prove_disjoint(self, K: int, budget: int = DEFAULT_TILE_BUDGET) -> None:
        """The tiling condition of :meth:`build_tiles` up to level K, on arrays where possible.

        Each level of :meth:`_tile_arrays` must sort into distinct rows.  When
        K < 0, |T_K| exceeds the budget, or a level fails its gate or the
        sort, the whole proof goes through build_tiles, which raises the same
        errors and the same TilingViolation witness.
        """
        if 0 <= K and self.tile_size(K) <= budget:
            proved = itertools.takewhile(_distinct_rows, self._tile_arrays(K))
            if sum(1 for _ in proved) == K + 1:
                return
        self.build_tiles(K, budget)

    def _tile_arrays(self, K: int):
        """Yield T_k for k = 0..K as integer arrays with rows in build_tiles's order.

        Level k is stored in the narrowest signed dtype that holds
        +-proven_bound(identity, k): int8 for ``ll:M``, int16 for ``zn:3``'s T_5.
        It is built in blocks of at most ROW_BLOCK rows, each one broadcast
        grow_array(T_{k-1}, F_k) with letter outer and previous tile inner.
        The letters stay int64, so every product runs in int64 and only the
        stored rows are narrow; only the previous level is held.  A wrong
        bound would only wrap the stored rows, and a wrapped row is a
        function of its int64 row: the proof could then lose a level to
        build_tiles but never pass a collision.  Only tilings with array
        hooks yield, each level after proven_bound proves its values below
        2^62; the generator stops at the first level it cannot prove.
        """
        prev = None
        for k in range(K + 1):
            bound = self.proven_bound(self.group.identity, k)
            if bound is None:
                return
            dtype = next(d for d in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(d).max >= bound)
            prev = self._level_rows(prev, k, dtype)
            yield prev

    def _level_rows(self, prev, k: int, dtype) -> np.ndarray:
        """T_k as dtype rows: F_k, or grow_array(T_{k-1}, F_k) in blocks of at most ROW_BLOCK rows."""
        letters = self.letter_array(k, np.arange(self.letter_count(k), dtype=np.int64))
        if prev is None:
            return letters.astype(dtype)
        n, width = len(prev), self.grow_array(prev[:1], letters[:1]).shape[-1]
        rows = np.empty((len(letters) * n, width), dtype)
        span, per = min(n, ROW_BLOCK), max(1, ROW_BLOCK // n)  # rows of T_{k-1} and letters per block
        for j in range(0, len(letters), per):
            for i in range(0, n, span):
                block = self.grow_array(prev[None, i : i + span], letters[j : j + per, None]).reshape(-1, width)
                rows[j * n + i : j * n + i + len(block)] = block  # wraps only past a wrong bound
        return rows

    def folner_constant(self, k: int) -> "ClaimReport":
        """max over generators s of the exact boundary ratio of T_k.

        Left orientation measures |T_k \\ s T_k| / |T_k|; right orientation
        measures |T_k \\ T_k s| / |T_k| (the convention the lamplighter
        construction is stated in).
        """
        # |T \ sT| = #{t in T : s^-1 t not in T} = escape fraction of s^-1
        value = max(self.escape_fraction(self.group.inverse(s), k) for s in self.group.generators)
        return ClaimReport(value, self.claimed_epsilon(k))

    def tile_diameter(
        self, k: int, mode: str, samples: int = 100_000, seed: int = 0, budget: int = DEFAULT_TILE_BUDGET
    ) -> "ClaimReport":
        """Diameter of T_k in the word metric, in one of two modes.

        "exact" is the maximum over all pairs of T_k: a closed form for the
        box tilings and ``ll:M``, the column ends of T_k for ``heis`` once
        T_0..T_k are proved disjoint under ``budget``, and otherwise the
        scalar loop over every quotient of build_tiles's T_k, their oracle.
        "sampled" is the maximum over ``samples`` seeded pairs, a lower
        bound.  It runs on int64 rows when levels 0..k all pass
        proven_bound(identity, .), and per point otherwise; both draw the
        same pairs and give the same maximum.
        """
        if mode == "exact":
            return ClaimReport(self._exact_diameter(k, budget), self.claimed_radius(k))
        if mode != "sampled":
            raise UsageError(f"diameter mode must be exact|sampled, got {mode!r}")
        mul, inv, length = self.group.multiply, self.group.inverse, self.group.word_length
        on_rows = all(self.proven_bound(self.group.identity, j) is not None for j in range(k + 1))

        def pairs(start, stop):
            # pair i joins the points drawn at counters 2i and 2i + 1
            counters = np.arange(2 * start, 2 * stop)
            if on_rows:
                points = None
                for j in range(k + 1):
                    f = self.letter_array(j, self.random_letter_indices(j, seed, counters).astype(np.int64))
                    points = f if points is None else self.grow_array(points, f)
                return int(self.group.distance_array(points[0::2], points[1::2]).max())
            levels = [self.random_letter_indices(j, seed, counters).tolist() for j in range(k + 1)]
            points = map(self.prefix_product, zip(*levels))
            return max(length(mul(inv(u), v)) for u, v in zip(points, points))

        return ClaimReport(max(sample_blocks(samples, pairs)), self.claimed_radius(k))

    def _exact_diameter(self, k: int, budget: int) -> int:
        """The scalar oracle: the largest word length over every quotient u^-1 v of build_tiles's T_k."""
        tile = self.build_tiles(k, budget)[k]
        return self._largest_quotient(tile, tile)

    def _largest_quotient(self, us, vs) -> int:
        """max |u^-1 v| over u in us and v in vs, one word length per distinct quotient."""
        mul, inv = self.group.multiply, self.group.inverse
        quotients = {mul(u_inv, v) for u_inv in map(inv, us) for v in vs}
        return max(map(self.group.word_length, quotients))


def _distinct_rows(rows: np.ndarray) -> bool:
    """Whether sorting proves the rows of an (N, d) integer array distinct.

    Column c takes values in [lo_c, hi_c], its observed min and max, so each
    row packs into one mixed-radix int64 key with radix hi_c - lo_c + 1,
    which is injective on the rows.  The keys are packed ROW_BLOCK rows at a
    time into one int64 array, each column widened and its low subtracted
    in int64.  False when two keys are equal, or when the product of the
    radices reaches 2^62 and the keys could leave int64.
    """
    columns = rows.T  # 1-D reductions per column: far faster than axis 0 on C-ordered rows
    lows = [int(column.min()) for column in columns]
    radices = [int(column.max()) - low + 1 for column, low in zip(columns, lows)]
    if math.prod(radices) >= INT64_SAFE:
        return False
    key = np.zeros(len(rows), dtype=np.int64)
    for start in range(0, len(rows), ROW_BLOCK):
        part = key[start : start + ROW_BLOCK]
        for column, low, radix in zip(columns, lows, radices):
            part *= radix
            part += column[start : start + ROW_BLOCK]
            part -= low
    key.sort()
    return not (key[1:] == key[:-1]).any()


def _first_duplicate(items):
    seen = {}
    for i, x in enumerate(items):
        if x in seen:
            return (seen[x], i, x)
        seen[x] = i


@dataclass
class ClaimReport:
    """A computed ``value`` beside the ``claimed`` bound of the construction."""

    value: Fraction | int
    claimed: Fraction | int

    @property
    def within_claim(self) -> bool:
        return self.value <= self.claimed


# ---------------------------------------------------------------------------
# built-ins
# ---------------------------------------------------------------------------


class _BoxTiling(TilingSequence):
    """Left tiling of Z^n by the boxes T_k = [0, side(k))^n, one radix per level.

    Level k has c_k^n letters, c_k = radix(k), and side(k) = c_0 ... c_k.
    Letter i of level k is side(k-1) times the base-c_k digits of i,
    coordinate 0 least significant, so decoding reads the digits back.
    Membership, the escape fraction of a translation and the tile diameter
    are closed forms in the side length.
    """

    def __init__(self, n: int, radix: Callable[[int], int], name: str):
        self.group = groups.ZN(n)
        self.n = n
        self.radix = radix
        self.name = name
        self._levels = []  # (c_k, side(k - 1), side(k)) at index k, extended level by level

    def _level(self, k: int) -> tuple[int, int, int]:
        levels = self._levels
        while len(levels) <= k:
            below = levels[-1][2] if levels else 1
            c = self.radix(len(levels))
            if c < 1:
                raise UsageError("letter counts must be >= 1")
            levels.append((c, below, below * c))
        return levels[k]

    def side(self, k: int) -> int:
        return self._level(k)[2]

    def letter_count(self, k):
        return self._level(k)[0] ** self.n

    def letter(self, k, idx):
        c, scale, _ = self._level(k)
        if not 0 <= idx < c**self.n:
            raise UsageError(f"letter index {idx} out of range")
        out = []
        for _ in range(self.n):
            idx, d = divmod(idx, c)
            out.append(d * scale)
        return tuple(out)

    def letter_array(self, k, idx):
        c, scale, _ = self._level(k)
        return idx[:, None] // c ** np.arange(self.n) % c * scale

    def decode(self, g, k):
        if not self.contains(g, k):
            raise NotInTile(f"{g} not in T_{k} of {self.name}")
        out = []
        for i in range(k + 1):
            c, scale, _ = self._level(i)
            idx = 0
            for a in reversed(g):
                idx = idx * c + a // scale % c
            out.append(idx)
        return tuple(out)

    def contains(self, g, k):
        L = self.side(k)
        return all(0 <= a < L for a in g)

    def contains_array(self, g, k):
        L = self.side(k)
        return ((g >= 0) & (g < L)).all(axis=1)

    def int64_bound(self, gamma, k):
        # letters and prefix products lie in the box, gamma shifts them by
        # |gamma|, and two points of the box lie at most n side apart
        return max(map(abs, gamma)) + self.n * self.side(k)

    def escape_fraction(self, gamma, k):
        # box translation: survivors form the shifted sub-box
        L = self.side(k)
        stay = math.prod(max(0, L - abs(a)) for a in gamma)
        return 1 - Fraction(stay, L**self.n)

    def _exact_diameter(self, k, budget):
        return self.n * (self.side(k) - 1)


class ZnGroupedTiling(_BoxTiling):
    """Z^n with m levels grouped per step: F_k = (2^(mk) [0, 2^m))^n.

    The box tiling with radix 2^m: letter count 2^(nm) per level and
    epsilon_k = 2^-m(k+1) exactly.
    """

    def __init__(self, n: int, m: int):
        if m < 1:
            raise UsageError("grouping needs m >= 1")
        super().__init__(n, lambda k: 1 << m, f"zn:{n}:grouped:{m}")
        self.m = m

    def claimed_epsilon(self, k):
        return Fraction(1, self.side(k))

    def claimed_radius(self, k):
        return self.n * self.side(k)


class ZnTiling(ZnGroupedTiling):
    """Z^n with F_k = {0, 2^k}^n; tiles are the boxes [0, 2^(k+1))^n.

    The grouped tiling with one level per step.  Exact parameters:
    epsilon_k = 2^-(k+1) (equality, not just a bound) and tile diameter
    n(2^(k+1) - 1) <= R_k = n 2^(k+1).
    """

    def __init__(self, n: int):
        super().__init__(n, 1)
        self.name = f"zn:{n}"


class HeisTiling(TilingSequence):
    """Heisenberg tiles: F_k = {(2^k x, 2^k y, 4^k z) : x,y in {0,1}, z in [0,4)}.

    |F_k| = 16, |T_k| = 2^(4k+4), claimed epsilon_k = 2^-k and
    R_k = 10 * 2^(k+2).  Membership and decoding invert the product identity

        x_A = sum 2^i x_i,  y_A = sum 2^i y_i,
        z_A = sum 4^i z_i + sum_i 2^i x_i (y_A mod 2^i),

    and the same identity gives an exact escape count by enumerating the
    (x_A, y_A) pair and counting admissible values of sum 4^i z_i, which
    stays polynomial in the tile SIDE rather than its size.
    """

    def __init__(self):
        self.group = groups.Heisenberg()
        self.name = "heis"

    def letter_count(self, k):
        return 16

    def letter(self, k, idx):
        if not 0 <= idx < 16:
            raise UsageError(f"letter index {idx} out of range")
        x = idx & 1
        y = (idx >> 1) & 1
        z = idx >> 2
        return (x << k, y << k, z << (2 * k))

    def letter_array(self, k, idx):
        return np.stack([(idx & 1) << k, ((idx >> 1) & 1) << k, (idx >> 2) << (2 * k)], axis=1)

    @staticmethod
    def _cross(x: int, y: int) -> int:
        # sum over set bits i >= 1 of x: 2^i * (y mod 2^i)
        total = 0
        i = 1
        while (x >> i) != 0:
            if (x >> i) & 1:
                total += (1 << i) * (y & ((1 << i) - 1))
            i += 1
        return total

    @staticmethod
    def _cross_array(x, y, k: int):
        """_cross over int64 arrays with entries in [0, 2^(k+1))."""
        total = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)), dtype=np.int64)
        for i in range(1, k + 1):
            total += ((x >> i) & 1) * ((y & ((1 << i) - 1)) << i)
        return total

    def contains(self, g, k):
        x, y, z = g
        L = 1 << (k + 1)
        if not (0 <= x < L and 0 <= y < L):
            return False
        w = z - self._cross(x, y)
        return 0 <= w < (1 << (2 * (k + 1)))

    def contains_array(self, g, k):
        x, y, z = g.T
        L = 1 << (k + 1)
        inside = (x >= 0) & (x < L) & (y >= 0) & (y < L)
        w = z - self._cross_array(np.where(inside, x, 0), np.where(inside, y, 0), k)
        return inside & (w >= 0) & (w < L * L)

    def int64_bound(self, gamma, k):
        # T_k has x, y < L and z < 2 L^2; gamma (x, y, z) adds |y_gamma| x to z,
        # the membership test subtracts a cross term below L^2, and the
        # distance kernel's values on two points of T_k stay below 8 L^2 + L + 4
        p, q, r = gamma
        L = 1 << (k + 1)
        return abs(p) + (abs(q) + 1) * L + abs(r) + 9 * L * L

    def decode(self, g, k):
        if not self.contains(g, k):
            raise NotInTile(f"{g} not in T_{k} of heis")
        x, y, z = g
        w = z - self._cross(x, y)
        out = []
        for i in range(k + 1):
            xi = (x >> i) & 1
            yi = (y >> i) & 1
            zi = (w >> (2 * i)) & 3
            out.append(xi | (yi << 1) | (zi << 2))
        return tuple(out)

    def claimed_epsilon(self, k):
        return Fraction(1, 1 << k) if k >= 1 else Fraction(1)

    def claimed_radius(self, k):
        return 10 << (k + 2)

    def escape_fraction(self, gamma, k):
        # gamma (X, Y, Z) = (X+p, Y+q, Z + r + q X) with Z = w + cross(X, Y):
        # a column (X, Y) whose image leaves the square loses all W values
        # of w, and one that stays loses min(W, |delta|) of them
        p, q, r = gamma
        L = 1 << (k + 1)
        W = L * L
        if k >= 20:
            # the grid has 4^(k+1) columns, and its chunk sums would leave int64
            raise ResourceExhausted(f"heis escape_fraction at k={k} needs a 4^{k + 1} grid")
        # the columns whose image stays in the square: p + X and q + Y in [0, L)
        xs = np.arange(L)[min(L, max(0, -p)) : max(0, L - max(0, p))]
        ys = np.arange(L)[min(L, max(0, -q)) : max(0, L - max(0, q))]
        esc = (L * L - len(xs) * len(ys)) * W
        # |delta - r| < 2W, so clipping r to +-4W keeps every min(W, |delta|)
        r = max(-4 * W, min(4 * W, r))
        rows = max(1, (1 << 12) // L)  # a fixed number of columns per numpy pass
        for start in range(0, len(xs) if len(ys) else 0, rows):
            X = xs[start : start + rows, None]
            delta = r + q * X + self._cross_array(X, ys, k) - self._cross_array(X + p, ys + q, k)
            esc += int(np.minimum(W, np.abs(delta)).sum())
        return Fraction(esc, L * L * W)

    def _exact_diameter(self, k, budget):
        # build_tiles raises the budget error or the collision witness first
        self.prove_disjoint(k, budget)
        # a live oracle, as in tail_bound_sweep: on T_0 the column ends must
        # give the quotient loop's value
        ends, loop = self._column_end_diameter(0), super()._exact_diameter(0, budget)
        if ends != loop:
            raise RuntimeError(f"the column ends give diameter {ends} on T_0 where the quotient loop gives {loop}")
        return self._column_end_diameter(k)

    def _column_end_diameter(self, k: int) -> int:
        """The largest |u^-1 v| with u on the floor and v on the top of a column of T_k.

        Column (x, y) of T_k holds z = cross(x, y) + w for w in [0, L^2), and
        u = (x, y, z), v = (x', y', z') have u^-1 v = (x' - x, y' - y,
        z' - z - y (x' - x)), so over two columns
        only the last coordinate moves, with z' - z over an interval whose
        ends pair a floor with a top.  |(x, y, z)| is quasi-convex in z, so
        the ends hold the maximum, and |g^-1| = |g| turns each top-to-floor
        pair into a floor-to-top one.
        """
        L = 1 << (k + 1)
        floors = [(x, y, self._cross(x, y)) for x in range(L) for y in range(L)]
        return self._largest_quotient(floors, [(x, y, z + L * L - 1) for x, y, z in floors])


class LamplighterTiling(TilingSequence):
    """Right tiling of Z/mZ wr Z, per the lamplighter construction.

    F_0 = {(f, n): supp f in {0,1}, n in {0,1}} and for k >= 1
    F_k = {(f, 0): supp f in [2^k, 2^(k+1))} u {(f, 2^k): supp f in [0, 2^k)};
    tiles are T_k = {(f, n): supp f in [0, 2^(k+1)), n in [0, 2^(k+1))} with
    T_{k+1} = F_{k+1} T_k.  Claimed epsilon_k = 2^-(k+1), R_k = (m+1) 2^(k+1).
    """

    orientation = Orientation.RIGHT

    def __init__(self, m: int):
        self.group = groups.Lamplighter(m)
        self.m = m
        self.name = f"ll:{m}"

    def letter_count(self, k):
        if k == 0:
            return 2 * self.m * self.m
        return 2 * self.m ** (1 << k)

    def letter(self, k, idx):
        if not 0 <= idx < self.letter_count(k):
            raise UsageError(f"letter index {idx} out of range")
        m = self.m
        if k == 0:
            n = idx // (m * m)
            rem = idx % (m * m)
            return self.group.make({0: rem // m, 1: rem % m}, n)
        width = 1 << k
        branch, rem = divmod(idx, m**width)
        start = width if branch == 0 else 0
        lamps = {}
        for j in range(width):
            rem, v = divmod(rem, m)
            if v:
                lamps[start + j] = v
        return self.group.make(lamps, 0 if branch == 0 else width)

    def letter_array(self, k, idx):
        """Letters as rows (cursor, digits on [0, 2^(k+1)))."""
        m = self.m
        if k == 0:
            return np.stack([idx // (m * m), idx // m % m, idx % m], axis=1)
        width = 1 << k
        branch, rem = np.divmod(idx, m**width)
        digits = rem[:, None] // m ** np.arange(width) % m
        low = branch[:, None] == 1  # (h, width) holds [0, width), (h, 0) the top half
        return np.concatenate([(branch * width)[:, None], np.where(low, digits, 0), np.where(low, 0, digits)], axis=1)

    def contains(self, g, k):
        lamps, n = g
        L = 1 << (k + 1)
        return 0 <= n < L and all(0 <= p < L for p, _ in lamps)

    def contains_array(self, g, k):
        # a row's lamps lie in its window [0, W); those at L or beyond must be off
        L = 1 << (k + 1)
        return (g[:, 0] >= 0) & (g[:, 0] < L) & ~g[:, 1 + L :].any(axis=1)

    def int64_bound(self, gamma, k):
        # only the identity: a window row cannot hold t gamma^-1, whose lamps
        # may leave [0, L).  Rows hold a cursor below L and L digits below m,
        # and a distance is at most L m / 2 switches plus a 2 L walk
        if gamma != self.group.identity:
            return None
        return (self.m + 3) << (k + 1)

    def decode(self, g, k):
        if not self.contains(g, k):
            raise NotInTile(f"{g} not in T_{k} of {self.name}")
        m = self.m
        out = []
        lamps = dict(g[0])
        n = g[1]
        for lvl in range(k, 0, -1):
            width = 1 << lvl
            # letter (h, 0) holds the top half [width, 2 width) and leaves the
            # cursor below width; letter (h, width) holds [0, width)
            branch = int(n >= width)
            start = 0 if branch else width
            rem = 0
            for j in reversed(range(width)):
                rem = rem * m + lamps.pop(start + j, 0)
            if branch:
                # the remainder acted from position width: shift its lamps back down
                n -= width
                lamps = {p - width: v for p, v in lamps.items()}
            out.append(branch * m**width + rem)
        # level 0: remaining lamps sit in {0,1}, cursor n in {0,1}
        out.append(n * m * m + lamps.pop(0, 0) * m + lamps.pop(1, 0))
        if lamps:
            raise NotInTile(f"{g} not in T_{k} of {self.name}")
        return tuple(reversed(out))

    def claimed_epsilon(self, k):
        return Fraction(1, 1 << (k + 1))

    def claimed_radius(self, k):
        return (self.m + 1) << (k + 1)

    def escape_fraction(self, gamma, k):
        # right tiles: (f, n) escapes under right multiplication by gamma
        # iff the cursor leaves [0, 2^(k+1)) or a shifted lamp of gamma does,
        # so the cursors that stay are those with n, n + j and every p + n
        # in [0, L): one interval [lo, hi)
        lamps, j = gamma
        L = 1 << (k + 1)
        shifts = [0, j, *(p for p, _ in lamps)]
        lo, hi = -min(shifts), L - max(shifts)
        return Fraction(L - max(0, hi - lo), L)

    def _exact_diameter(self, k, budget):
        # u^-1 v holds its lamp differences on L sites, each at most m // 2
        # switches from off, and walks from 0 to its cursor within those
        # sites, at most 2 (L - 1) steps; v with every lamp at m // 2 and
        # cursor 0 meets both bounds at u = identity
        L = 1 << (k + 1)
        return L * (self.m // 2) + 2 * (L - 1)


class ZBlocksTiling(_BoxTiling):
    """Z tiled by intervals: the box tiling of Z with radix c_k = sizes[k].

    F_0 = [0, c_0) and F_k = |T_{k-1}| * [0, c_k), so T_k = [0, prod c_i).
    This is the workhorse for matching Z against another tiling with the
    same letter counts (the construction pairing Z with the lamplighter
    uses exactly these letters).
    """

    def __init__(self, sizes: Callable[[int], int] | Sequence[int], name: str = "zblocks"):
        listed = None if callable(sizes) else list(sizes)
        if listed is not None:

            def sizes(k):
                if k >= len(listed):
                    raise UsageError(f"zblocks sizes given only up to k={len(listed)-1}")
                return listed[k]

        super().__init__(1, sizes, name)
        if listed:
            self._level(len(listed) - 1)  # builds every listed level, so a size below 1 fails here

    def claimed_epsilon(self, k):
        # stated bound for the Z-side matched tiling; computed value is 1/|T_k|
        return Fraction(2, self.side(k))

    def claimed_radius(self, k):
        return self.side(k) - 1


class FiniteCyclicTiling(TilingSequence):
    """Trivial tiling of Z/qZ: F_0 is the whole group, F_k = {0} after.

    Used as the lamp coupling in wreath products; epsilon_k = 0 for k >= 1.
    """

    def __init__(self, q: int):
        self.group = groups.CyclicGroup(q)
        self.q = q
        self.name = f"cyclic:{q}"

    def letter_count(self, k):
        return self.q if k == 0 else 1

    def letter(self, k, idx):
        if not 0 <= idx < self.letter_count(k):
            raise UsageError(f"letter index {idx} out of range")
        return idx if k == 0 else 0

    def contains(self, g, k):
        return 0 <= g < self.q

    def decode(self, g, k):
        if not self.contains(g, k):
            raise NotInTile(f"{g} not in Z/{self.q}Z")
        return (g,) + (0,) * k

    def claimed_epsilon(self, k):
        return Fraction(0) if k >= 1 else Fraction(1)

    def claimed_radius(self, k):
        return self.q // 2

    def escape_fraction(self, gamma, k):
        return Fraction(0)


def builtin(spec: str) -> TilingSequence:
    """Tiling from a CLI spec.

    Grammar: ``zn:N``, ``zn:N:grouped:M``, ``heis``, ``ll:M``,
    ``zmatch:ll:M`` (Z with letters matched to the lamplighter sizes),
    ``zblocks:c0,c1,...``, ``cyclic:Q``.
    """
    parts = spec.split(":")
    try:
        if parts[0] == "zn":
            if len(parts) == 2:
                return ZnTiling(int(parts[1]))
            if len(parts) == 4 and parts[2] == "grouped":
                return ZnGroupedTiling(int(parts[1]), int(parts[3]))
        elif parts[0] == "heis" and len(parts) == 1:
            return HeisTiling()
        elif parts[0] == "ll" and len(parts) == 2:
            return LamplighterTiling(int(parts[1]))
        elif parts[0] == "zmatch" and len(parts) == 3 and parts[1] == "ll":
            ll = LamplighterTiling(int(parts[2]))
            return ZBlocksTiling(ll.letter_count, name=f"zmatch:ll:{parts[2]}")
        elif parts[0] == "zblocks" and len(parts) == 2:
            sizes = [int(c) for c in parts[1].split(",")]
            return ZBlocksTiling(sizes, name=spec)
        elif parts[0] == "cyclic" and len(parts) == 2:
            return FiniteCyclicTiling(int(parts[1]))
    except UsageError:
        raise  # a constructor's own reason
    except ValueError:
        raise UsageError(f"bad tiling spec: {spec!r}") from None
    raise UsageError(f"unknown tiling spec: {spec!r}")
