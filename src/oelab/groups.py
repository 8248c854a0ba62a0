"""Exact arithmetic and word metrics for five concrete group families.

Families and normal forms:

* ``ZN(n)``        -- integer vectors, generators +-e_i.
* ``Heisenberg()`` -- triples (x, y, z) with product
                      (x,y,z)(x',y',z') = (x+x', y+y', z+z'+y*x'),
                      generators (1,0,0), (0,1,0) and their inverses.
* ``Lamplighter(m)`` -- Z/mZ wr Z; elements are (lamps, pos) where lamps is a
                      sorted tuple of (position, value) pairs with values in
                      1..m-1 (identity lamps are never stored).
* ``BaumslagSolitar(k)`` -- Z[1/k] x| Z; elements are (a, s, n) meaning
                      (a / k**s, n) with s >= 0 and k not dividing a when
                      s > 0, so the form is unique.
* ``CyclicGroup(q)`` -- Z/qZ as ints 0..q-1, generators +-1.

A family declares its data: ``identity`` and ``generators`` are plain values
handed to :class:`Group`, next to ``multiply``, ``inverse``,
``check_element``, ``format_element``, ``word_length`` and a ``_parse_body``
hook.  The base class writes the shared procedures once: the strict element
parser, and the balls, spheres and growth read off one breadth-first search.

Word lengths are closed forms in every family (ell^1, switches plus travel,
cyclic distance, Blachere's boxes on Heisenberg, a carry pass on BS(1,k)), so
no element is out of reach; BFS serves balls, spheres and growth, and is the
test suite's oracle for the closed forms.

All elements are plain hashable tuples (ints for cyclic groups) and all
groups are immutable after construction.

``ZN``, ``Heisenberg`` and ``Lamplighter`` also have row hooks on (N, d)
int64 arrays: ``multiply_array``, and ``distance_array(u, v)``, the word
length of u^-1 v row by row, for the batched rewrite-depth kernel, the
array tiles and the sampled tile diameter.  A ``Lamplighter`` row is
(cursor, lamp digits on a window [0, W)).  Their callers prove beforehand
(``TilingSequence.proven_bound``) that no value leaves int64, and the
scalar methods are the oracles of the row hooks.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable

import numpy as np

from .errors import ResourceExhausted, UsageError

DEFAULT_BALL_BUDGET = 5_000_000


class Group:
    """Base class: exact normal forms plus a designated symmetric generating set.

    ``generators`` is closed under inversion and omits the identity.
    """

    name: str = "?"

    def __init__(self, identity, generators: tuple):
        self.identity = identity
        self.generators = generators

    # -- family-specific primitives -------------------------------------

    def multiply(self, g, h):
        raise NotImplementedError

    def inverse(self, g):
        raise NotImplementedError

    def word_length(self, g) -> int:
        raise NotImplementedError

    def check_element(self, g) -> None:
        """Raise UsageError unless g is a valid normal form for this family."""
        raise NotImplementedError

    def format_element(self, g) -> str:
        raise NotImplementedError

    def _parse_body(self, body: str):
        """The element a serialization spells after its tag; ValueError if malformed.

        The default reads comma-separated integers (zn, heis).
        """
        return tuple(int(p) for p in body.split(","))

    # -- serialization ---------------------------------------------------

    def parse_element(self, text: str):
        """Parse a canonical serialization strictly: tag, body, normal form."""
        tag = self.name.partition(":")[0]
        head, _, body = text.partition(":")
        if head != tag:
            raise UsageError(f"expected {tag}:... serialization, got {text!r}")
        try:
            g = self._parse_body(body)
        except ValueError:
            raise UsageError(f"malformed {self.name} element: {text!r}") from None
        self.check_element(g)
        return g

    # -- balls, spheres and growth -----------------------------------------

    def ball(self, radius: int) -> set:
        """The exact ball B(e, radius) as a set of normal forms."""
        return set().union(*self._spheres(radius))

    def growth(self, radius: int) -> int:
        """|B(e, radius)|, by BFS layer counting."""
        return sum(len(layer) for layer in self._spheres(radius))

    def sphere(self, radius: int) -> set:
        return self._spheres(radius)[radius]

    def _spheres(self, radius: int) -> list[set]:
        """Spheres 0..radius by one BFS.

        Past DEFAULT_BALL_BUDGET elements, ResourceExhausted at the last radius.
        """
        if radius < 0:
            raise UsageError(f"radius must be >= 0, got {radius}")
        budget = DEFAULT_BALL_BUDGET
        layers, seen = [{self.identity}], {self.identity}
        while len(layers) <= radius:
            new = {self.multiply(g, s) for g in layers[-1] for s in self.generators}
            new -= seen
            if len(seen) + len(new) > budget:
                raise ResourceExhausted(
                    f"ball enumeration exceeded budget of {budget} elements",
                    progress=len(layers) - 1,
                )
            seen |= new
            layers.append(new)
        return layers

    def __repr__(self):
        return f"{type(self).__name__}({self.name})"


def _fields(body: str, sep: str, keys: tuple) -> list[str]:
    """The values of `key=value` fields naming each of keys once, in keys order."""
    pairs = [part.split("=", 1) for part in body.split(sep)]
    fields = dict(pairs)  # ValueError on a part without "="
    if len(fields) != len(pairs) or set(fields) != set(keys):
        raise ValueError(f"fields must be {keys}")
    return [fields[key] for key in keys]


def line_tour(points: Iterable[int], end: int) -> int:
    """Shortest walk on Z from 0 that visits every point and stops at end.

    The walk covers [lo, hi] (the span of the points, 0 and end) and goes
    there and back except for the stretch between 0 and end, so it takes
    2 (hi - lo) - |end| steps whichever side it sweeps first.
    """
    ps = [*points, 0, end]
    return 2 * (max(ps) - min(ps)) - abs(end)


class ZN(Group):
    """Z^n with the standard generators +-e_i; elements are int tuples."""

    def __init__(self, n: int):
        if n < 1:
            raise UsageError("ZN needs n >= 1")
        self.n = n
        self.name = f"zn:{n}"
        gens = tuple(
            tuple(v if j == i else 0 for j in range(n)) for i in range(n) for v in (1, -1)
        )
        super().__init__((0,) * n, gens)

    def multiply(self, g, h):
        return tuple(a + b for a, b in zip(g, h, strict=True))

    def multiply_array(self, g, h):
        """multiply on (N, n) int64 arrays (or broadcastable rows); int64 wraps."""
        return g + h

    def distance_array(self, u, v):
        """word_length(multiply(inverse(u), v)) row by row: the ell^1 norm of v - u."""
        return np.abs(v - u).sum(axis=-1)

    def inverse(self, g):
        return tuple(-a for a in g)

    def check_element(self, g):
        if not (isinstance(g, tuple) and len(g) == self.n and all(isinstance(a, int) for a in g)):
            raise UsageError(f"not a Z^{self.n} element: {g!r}")

    def word_length(self, g):
        self.check_element(g)
        return sum(abs(a) for a in g)

    def format_element(self, g):
        return "zn:" + ",".join(str(a) for a in g)


class Heisenberg(Group):
    """Integer Heisenberg group H(Z) with S = {(1,0,0)^+-1, (0,1,0)^+-1}."""

    name = "heis"

    def __init__(self):
        gens = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
        super().__init__((0, 0, 0), gens)

    def multiply(self, g, h):
        x, y, z = g
        x2, y2, z2 = h
        return (x + x2, y + y2, z + z2 + y * x2)

    def multiply_array(self, g, h):
        """multiply on (N, 3) int64 arrays (or broadcastable rows); int64 wraps."""
        out = g + h
        out[..., 2] += g[..., 1] * h[..., 0]
        return out

    def distance_array(self, u, v):
        """word_length(multiply(inverse(u), v)) row by row, in exact int64.

        u^-1 v = (dx, dy, z' - z - y dx), and :meth:`word_length`'s closed
        form runs on every row at once.  The float square root is only a
        first guess: two integer steps make it isqrt exactly.
        """
        x = v[..., 0] - u[..., 0]
        y = v[..., 1] - u[..., 1]
        z = v[..., 2] - u[..., 2] - u[..., 1] * x
        z = np.where((x < 0) == (y < 0), z, -z)
        x, y = np.abs(x), np.abs(y)
        z = np.where(z < 0, x * y - z, z)
        r = np.sqrt(z).astype(np.int64)
        r -= r * r > z
        r += (r + 1) * (r + 1) <= z
        box = None
        for X in (x, r - 1, r, r + 1, r + 2, np.where(y > 0, -(-z // np.maximum(y, 1)), x)):
            X = np.maximum(np.maximum(X, x), 1)
            cost = 2 * X - x + y + 2 * np.maximum(0, -(-z // X) - y)
            box = cost if box is None else np.minimum(box, cost)
        return np.where(z <= x * y, x + y, box)

    def inverse(self, g):
        x, y, z = g
        return (-x, -y, x * y - z)

    def check_element(self, g):
        if not (isinstance(g, tuple) and len(g) == 3 and all(isinstance(a, int) for a in g)):
            raise UsageError(f"not a Heisenberg element: {g!r}")

    def word_length(self, g):
        """Blachere (2003): a word is a lattice path to (x, y) of signed area z = int y dx.

        Once reflections and reversal (z -> xy - z) make x, y, z >= 0, any
        z <= xy takes a monotone path; a larger z an X-wide box, least near
        X = sqrt(z) or at X = ceil(z/y).
        """
        self.check_element(g)
        x, y, z = g
        x, y, z = abs(x), abs(y), z if (x < 0) == (y < 0) else -z
        if z < 0:
            z = x * y - z
        if z <= x * y:
            return x + y
        r = isqrt(z)
        widths = (max(X, x, 1) for X in (x, r - 1, r, r + 1, r + 2, -(-z // y) if y else x))
        return min(2 * X - x + y + 2 * max(0, -(-z // X) - y) for X in widths)

    def format_element(self, g):
        return "heis:" + ",".join(str(a) for a in g)


class Lamplighter(Group):
    """Z/mZ wr Z with S = {(delta_0, 0)^+-1, (0, +-1)}.

    Word lengths use the closed form: switch presses plus the shortest
    :func:`line_tour` over supp(f) that ends at pos.
    """

    def __init__(self, m: int):
        if m < 2:
            raise UsageError("Lamplighter needs m >= 2")
        self.m = m
        self.name = f"ll:{m}"
        lamp = ((((0, 1),), 0),)
        if m > 2:
            lamp += ((((0, m - 1),), 0),)
        super().__init__(((), 0), lamp + (((), 1), ((), -1)))

    def make(self, lamps: dict, pos: int):
        """Normal form from a {position: value} dict (values taken mod m)."""
        ls = tuple(sorted((p, v % self.m) for p, v in lamps.items() if v % self.m))
        return (ls, pos)

    def multiply_array(self, g, h):
        """multiply on rows (cursor, lamp digits in [0, m) on [0, W)), or broadcastable rows.

        The product has g's window: h's digits, shifted by g's cursor, must
        land inside it, which holds for f t with f a lamplighter letter and
        t in the tile below.  They are added as one slice per distinct cursor
        of g, and only that slice is reduced mod m.
        """
        shape = np.broadcast_shapes(g.shape[:-1], h.shape[:-1])
        out = np.empty(shape + g.shape[-1:], dtype=np.int64)
        out[...] = g
        out[..., 0] += h[..., 0]
        cursor, digits = g[..., :1], h[..., 1:]
        for c in np.flatnonzero(np.bincount(cursor.ravel())).tolist():  # np.unique would import numpy.ma
            # h's digits land on g's window from position c: one slice per distinct cursor
            window, here = out[..., 1 + c : 1 + c + digits.shape[-1]], cursor == c
            np.add(window, digits, out=window, where=here)
            np.subtract(window, self.m, out=window, where=window >= self.m)  # two digits sum below 2m
        return out

    def distance_array(self, u, v):
        """word_length(multiply(inverse(u), v)) row by row, for rows on one window.

        With delta = v - u mod m per position and cursors a, b, it is
        sum min(delta, m - delta) + 2 (hi - lo) - |b - a|, where [lo, hi]
        spans a, b and the support of delta: :func:`line_tour` shifted by a.
        """
        a, b = u[..., 0], v[..., 0]
        delta = (v[..., 1:] - u[..., 1:]) % self.m
        lit = delta != 0
        on = lit.any(axis=-1)
        first = lit.argmax(axis=-1)
        last = delta.shape[-1] - 1 - lit[..., ::-1].argmax(axis=-1)
        lo = np.where(on, np.minimum(np.minimum(a, b), first), np.minimum(a, b))
        hi = np.where(on, np.maximum(np.maximum(a, b), last), np.maximum(a, b))
        return np.minimum(delta, self.m - delta).sum(axis=-1) + 2 * (hi - lo) - np.abs(b - a)

    def multiply(self, g, h):
        lamps1, n1 = g
        lamps2, n2 = h
        acc = dict(lamps1)
        for p, v in lamps2:
            q = p + n1
            w = (acc.get(q, 0) + v) % self.m
            if w:
                acc[q] = w
            else:
                acc.pop(q, None)
        return (tuple(sorted(acc.items())), n1 + n2)

    def inverse(self, g):
        lamps, n = g
        return (tuple(sorted((p - n, (-v) % self.m) for p, v in lamps)), -n)

    def check_element(self, g):
        ok = (
            isinstance(g, tuple)
            and len(g) == 2
            and isinstance(g[1], int)
            and isinstance(g[0], tuple)
            and all(
                isinstance(pv, tuple) and len(pv) == 2 and 0 < pv[1] < self.m
                for pv in g[0]
            )
            and list(g[0]) == sorted(g[0])
            and len({p for p, _ in g[0]}) == len(g[0])
        )
        if not ok:
            raise UsageError(f"not a Z/{self.m}Z wr Z normal form: {g!r}")

    def word_length(self, g):
        self.check_element(g)
        lamps, pos = g
        switch = sum(min(v, self.m - v) for _, v in lamps)
        return switch + line_tour((p for p, _ in lamps), pos)

    def format_element(self, g):
        lamps, pos = g
        body = ",".join(f"{p}:{v}" for p, v in lamps)
        return f"ll:m={self.m};lamps={body};pos={pos}"

    def _parse_body(self, body):
        m, lamps, pos = _fields(body, ";", ("m", "lamps", "pos"))
        if int(m) != self.m:
            raise ValueError(f"lamp modulus {m} is not {self.m}")
        pairs = [pair.split(":") for pair in lamps.split(",")] if lamps else []
        return (tuple(sorted((int(p), int(v)) for p, v in pairs)), int(pos))


class BaumslagSolitar(Group):
    """BS(1,k) = Z[1/k] x| Z with T = {(1,0)^+-1, (0,1)^+-1}.

    Element (a, s, n) stands for (a / k**s, n); the (a, s) pair is reduced so
    the form is unique.  A word is a walk on heights from 0 to n dropping
    d_h a-letters at height h, so a / k**s = sum_h d_h k**-h.
    """

    def __init__(self, k: int):
        if k < 2:
            raise UsageError("BS(1,k) needs k >= 2")
        self.k = k
        self.name = f"bs:{k}"
        gens = ((1, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 0, -1))
        super().__init__((0, 0, 0), gens)

    def _reduce(self, a: int, s: int):
        if a == 0:
            return (0, 0)
        while s > 0 and a % self.k == 0:
            a //= self.k
            s -= 1
        if s < 0:
            a *= self.k ** (-s)
            s = 0
        return (a, s)

    def make(self, a: int, s: int, n: int):
        ra, rs = self._reduce(a, s)
        return (ra, rs, n)

    def multiply(self, g, h):
        a1, s1, n1 = g
        a2, s2, n2 = h
        # right factor lands at scale s2 + n1, which may be negative
        t2 = s2 + n1
        if t2 < 0:
            a2 *= self.k ** (-t2)
            t2 = 0
        s = max(s1, t2)
        num = a1 * self.k ** (s - s1) + a2 * self.k ** (s - t2)
        ra, rs = self._reduce(num, s)
        return (ra, rs, n1 + n2)

    def inverse(self, g):
        # (a/k^s, n)^-1 = (-a k^n / k^s, -n); _reduce absorbs a negative scale
        a, s, n = g
        ra, rs = self._reduce(-a, s - n)
        return (ra, rs, -n)

    def check_element(self, g):
        ok = (
            isinstance(g, tuple)
            and len(g) == 3
            and all(isinstance(v, int) for v in g)
            and g[1] >= 0
            and (g[0] != 0 or g[1] == 0)
            and (g[1] == 0 or g[0] % self.k != 0)
        )
        if not ok:
            raise UsageError(f"not a reduced BS(1,{self.k}) form: {g!r}")

    def word_length(self, g):
        """The least walk plus digit cost, after Elder (2010).

        A walk over heights [top - W, top], top = max(0, n, s), costs 2W - |n|;
        scaled by k**top its digits d_0..d_W (d_i at height top - i) sum to
        M = a k**(top - s).  Each digit is r or r - k, r = remainder mod k, but
        the last takes what is left, so one carry pass keeps at most three
        values alive.  Past W = low + |a|.bit_length() + 1 only 0 or +-1 is
        left, and a deeper walk pays 2 letters a level to save at most 1.
        While e = top - s - W > 0 a value is a k**e + c and its digit is c mod
        k, so the pass carries the small offset c, linear in n where the
        value itself would be quadratic; no cost is read before
        W >= low >= top - s, where the values take over.
        """
        self.check_element(g)
        a, s, n = g
        k = self.k
        top = max(0, n, s)
        low = top - min(0, n)
        carries = {0: 0}  # offset c of a k**(top - s - W) left to write -> least digit cost
        costs = []
        for W in range(low + abs(a).bit_length() + 2):
            if W == top - s:
                carries = {a + c: cost for c, cost in carries.items()}  # the values themselves from here
            if W >= low:
                costs.append(2 * W - abs(n) + min(c + abs(v) for v, c in carries.items()))
            step = {}
            for v, c in carries.items():
                for d in (v % k, v % k - k):
                    step[(v - d) // k] = min(step.get((v - d) // k, c + abs(d)), c + abs(d))
            carries = step
        return min(costs)

    def format_element(self, g):
        a, s, n = g
        return f"bs:a={a},s={s},n={n}"

    def _parse_body(self, body):
        return tuple(int(v) for v in _fields(body, ",", ("a", "s", "n")))


class CyclicGroup(Group):
    """Z/qZ with generators +-1.  Lamp factor for wreath couplings."""

    def __init__(self, q: int):
        if q < 2:
            raise UsageError("CyclicGroup needs q >= 2")
        self.q = q
        self.name = f"cyclic:{q}"
        super().__init__(0, (1,) if q == 2 else (1, q - 1))

    def multiply(self, g, h):
        return (g + h) % self.q

    def inverse(self, g):
        return (-g) % self.q

    def check_element(self, g):
        if not (isinstance(g, int) and 0 <= g < self.q):
            raise UsageError(f"not a Z/{self.q}Z element: {g!r}")

    def word_length(self, g):
        self.check_element(g)
        return min(g, self.q - g)

    def format_element(self, g):
        return f"cyclic:q={self.q};v={g}"

    def _parse_body(self, body):
        q, v = _fields(body, ";", ("q", "v"))
        if int(q) != self.q:
            raise ValueError(f"modulus {q} is not {self.q}")
        return int(v)


_FAMILIES = {"zn": ZN, "ll": Lamplighter, "bs": BaumslagSolitar, "cyclic": CyclicGroup}


def group_from_spec(spec: str) -> Group:
    """Build a group from a CLI spec: zn:2, heis, ll:3, bs:2, cyclic:5."""
    head, _, rest = spec.partition(":")
    if head == "heis":
        if rest:
            raise UsageError(f"heis takes no parameter: {spec!r}")
        return Heisenberg()
    if head not in _FAMILIES:
        raise UsageError(f"unknown group family: {spec!r}")
    try:
        param = int(rest)
    except ValueError:
        raise UsageError(f"bad group spec: {spec!r}") from None
    return _FAMILIES[head](param)


def parse_element(text: str, group: Group):
    """Parse a canonical serialization, strictly, against the given group."""
    return group.parse_element(text)

