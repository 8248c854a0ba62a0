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
``check_element``, ``format_element`` and a ``_parse_body`` hook.  The base
class writes the shared procedures once: the strict element parser, the BFS
word metric and the balls, spheres and growth read off its layers.

Word lengths are exact: closed forms where one exists (ZN ell^1 norm,
lamplighter switch+travel, cyclic distance), breadth-first search from the
identity elsewhere, with an explicit radius cap surfaced as
:class:`CapExceeded`.

All elements are plain hashable tuples (ints for cyclic groups) and all
groups are immutable after construction, apart from the BFS layer caches.
Those caches assume a single thread: concurrent growth() calls have been
seen to misindex the layers, and oelab itself runs single-threaded.
"""

from __future__ import annotations

from typing import Iterable

from .errors import CapExceeded, ResourceExhausted, UsageError

DEFAULT_WORD_CAP = 24
DEFAULT_BALL_BUDGET = 5_000_000


class Group:
    """Base class: exact normal forms plus a designated symmetric generating set.

    ``generators`` is closed under inversion and omits the identity.
    """

    name: str = "?"

    def __init__(self, identity, generators: tuple, word_length_cap: int = DEFAULT_WORD_CAP):
        self.identity = identity
        self.generators = generators
        self.word_length_cap = word_length_cap
        self._layers: list[set] = []  # BFS spheres, layer r = sphere of radius r
        self._dist: dict = {}

    # -- family-specific primitives -------------------------------------

    def multiply(self, g, h):
        raise NotImplementedError

    def inverse(self, g):
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

    # -- word metric -----------------------------------------------------

    def word_length(self, g) -> int:
        """Exact word length w.r.t. the designated generators (BFS default)."""
        self.check_element(g)
        return self.word_lengths_of((g,))[g]

    def word_lengths_of(self, elements: Iterable, cap: int | None = None) -> dict:
        """Word lengths for a batch of elements via one shared BFS.

        A cached element costs one dict lookup; the layers grow only as far
        as the farthest element needs, and never beyond ``cap``.
        """
        cap = self.word_length_cap if cap is None else cap
        dist = self._dist
        found = {}
        for g in elements:
            d = dist.get(g)
            while d is None and len(self._layers) <= cap:
                self._extend_layers(len(self._layers), DEFAULT_BALL_BUDGET)
                d = dist.get(g)
            if d is None or d > cap:
                raise CapExceeded(
                    f"|{self.format_element(g)}| exceeds word-length cap {cap}", cap
                )
            found[g] = d
        return found

    def ball(self, radius: int, budget: int = DEFAULT_BALL_BUDGET) -> set:
        """The exact ball B(e, radius) as a set of normal forms."""
        return set().union(*self._spheres(radius, budget))

    def growth(self, radius: int, budget: int = DEFAULT_BALL_BUDGET) -> int:
        """|B(e, radius)|, by BFS layer counting."""
        return sum(len(layer) for layer in self._spheres(radius, budget))

    def sphere(self, radius: int, budget: int = DEFAULT_BALL_BUDGET) -> set:
        return set(self._spheres(radius, budget)[radius])

    def _spheres(self, radius: int, budget: int) -> list[set]:
        """The cached spheres of radius 0..radius, after checking the radius."""
        if radius < 0:
            raise UsageError(f"radius must be >= 0, got {radius}")
        if radius > self.word_length_cap:
            raise CapExceeded(
                f"radius {radius} exceeds word-length cap {self.word_length_cap}",
                self.word_length_cap,
            )
        self._extend_layers(radius, budget)
        return self._layers[: radius + 1]

    # -- shared BFS kernel ------------------------------------------------

    def _extend_layers(self, radius: int, budget: int) -> None:
        if not self._layers:
            self._layers.append({self.identity})
            self._dist[self.identity] = 0
        while len(self._layers) <= radius:
            frontier = self._layers[-1]
            r = len(self._layers)
            new = set()
            for g in frontier:
                for s in self.generators:
                    h = self.multiply(g, s)
                    if h not in self._dist:
                        self._dist[h] = r
                        new.add(h)
            if len(self._dist) > budget:
                raise ResourceExhausted(
                    f"ball enumeration exceeded budget of {budget} elements",
                    progress=r - 1,
                )
            self._layers.append(new)

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

    def __init__(self, n: int, word_length_cap: int = DEFAULT_WORD_CAP):
        if n < 1:
            raise UsageError("ZN needs n >= 1")
        self.n = n
        self.name = f"zn:{n}"
        gens = tuple(
            tuple(v if j == i else 0 for j in range(n)) for i in range(n) for v in (1, -1)
        )
        super().__init__((0,) * n, gens, word_length_cap)

    def multiply(self, g, h):
        return tuple(a + b for a, b in zip(g, h, strict=True))

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

    def __init__(self, word_length_cap: int = DEFAULT_WORD_CAP):
        gens = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
        super().__init__((0, 0, 0), gens, word_length_cap)

    def multiply(self, g, h):
        x, y, z = g
        x2, y2, z2 = h
        return (x + x2, y + y2, z + z2 + y * x2)

    def inverse(self, g):
        x, y, z = g
        return (-x, -y, x * y - z)

    def check_element(self, g):
        if not (isinstance(g, tuple) and len(g) == 3 and all(isinstance(a, int) for a in g)):
            raise UsageError(f"not a Heisenberg element: {g!r}")

    def format_element(self, g):
        return "heis:" + ",".join(str(a) for a in g)


class Lamplighter(Group):
    """Z/mZ wr Z with S = {(delta_0, 0)^+-1, (0, +-1)}.

    Word lengths use the closed form: switch presses plus the shortest
    :func:`line_tour` over supp(f) that ends at pos.  The formula is
    validated against BFS in the test suite (m = 2 and 3).
    """

    def __init__(self, m: int, word_length_cap: int = DEFAULT_WORD_CAP):
        if m < 2:
            raise UsageError("Lamplighter needs m >= 2")
        self.m = m
        self.name = f"ll:{m}"
        lamp = ((((0, 1),), 0),)
        if m > 2:
            lamp += ((((0, m - 1),), 0),)
        super().__init__(((), 0), lamp + (((), 1), ((), -1)), word_length_cap)

    def make(self, lamps: dict, pos: int):
        """Normal form from a {position: value} dict (values taken mod m)."""
        ls = tuple(sorted((p, v % self.m) for p, v in lamps.items() if v % self.m))
        return (ls, pos)

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
    the form is unique.  Word lengths go through BFS with the shared cap.
    """

    def __init__(self, k: int, word_length_cap: int = DEFAULT_WORD_CAP):
        if k < 2:
            raise UsageError("BS(1,k) needs k >= 2")
        self.k = k
        self.name = f"bs:{k}"
        gens = ((1, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 0, -1))
        super().__init__((0, 0, 0), gens, word_length_cap)

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
        super().__init__(0, (1,) if q == 2 else (1, q - 1), word_length_cap=q)

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


def group_from_spec(spec: str, word_length_cap: int = DEFAULT_WORD_CAP) -> Group:
    """Build a group from a CLI spec: zn:2, heis, ll:3, bs:2, cyclic:5."""
    head, _, rest = spec.partition(":")
    if head == "zn":
        return ZN(_int_param(rest, spec), word_length_cap)
    if head == "heis":
        if rest:
            raise UsageError(f"heis takes no parameter: {spec!r}")
        return Heisenberg(word_length_cap)
    if head == "ll":
        return Lamplighter(_int_param(rest, spec), word_length_cap)
    if head == "bs":
        return BaumslagSolitar(_int_param(rest, spec), word_length_cap)
    if head == "cyclic":
        return CyclicGroup(_int_param(rest, spec))
    raise UsageError(f"unknown group family: {spec!r}")


def parse_element(text: str, group: Group):
    """Parse a canonical serialization, strictly, against the given group."""
    return group.parse_element(text)


def _int_param(rest: str, spec: str) -> int:
    try:
        return int(rest)
    except ValueError:
        raise UsageError(f"bad group spec: {spec!r}") from None
