"""Exact arithmetic and word metrics for four concrete group families.

Families and normal forms:

* ``ZN(n)``        -- integer vectors, generators +-e_i.
* ``Heisenberg()`` -- triples (x, y, z) with product
                      (x,y,z)(x',y',z') = (x+x', y+y', z+z'+y*x'),
                      generators E1 = (1,0,0), E2 = (0,1,0) and inverses.
* ``Lamplighter(m)`` -- Z/mZ wr Z; elements are (lamps, pos) where lamps is a
                      sorted tuple of (position, value) pairs with values in
                      1..m-1 (identity lamps are never stored).
* ``BaumslagSolitar(k)`` -- Z[1/k] x| Z; elements are (a, s, n) meaning
                      (a / k**s, n) with s >= 0 and k not dividing a when
                      s > 0, so the form is unique.

Word lengths are exact: closed forms where one exists (ZN ell^1 norm,
lamplighter switch+travel), breadth-first search from the identity elsewhere,
with an explicit radius cap surfaced as :class:`CapExceeded`.

All elements are plain hashable tuples and all groups are immutable after
construction, apart from the BFS layer caches.  Those caches assume a single
thread: concurrent growth() calls have been seen to misindex the layers, and
oelab itself runs single-threaded.
"""

from __future__ import annotations

from typing import Iterable

from .errors import CapExceeded, ResourceExhausted, UsageError

DEFAULT_WORD_CAP = 24
DEFAULT_BALL_BUDGET = 5_000_000


class Group:
    """Base class: exact normal forms plus a designated symmetric generating set."""

    name: str = "?"
    word_length_cap: int

    def __init__(self, word_length_cap: int = DEFAULT_WORD_CAP):
        self.word_length_cap = word_length_cap
        self._layers: list[set] = []  # BFS spheres, layer r = sphere of radius r
        self._dist: dict = {}

    # -- family-specific primitives -------------------------------------

    @property
    def identity(self):
        raise NotImplementedError

    @property
    def generators(self) -> tuple:
        """Symmetric generating set (closed under inversion, no identity)."""
        raise NotImplementedError

    def multiply(self, g, h):
        raise NotImplementedError

    def inverse(self, g):
        raise NotImplementedError

    def check_element(self, g) -> None:
        """Raise UsageError unless g is a valid normal form for this family."""
        raise NotImplementedError

    def format_element(self, g) -> str:
        raise NotImplementedError

    def parse_element(self, text: str):
        raise NotImplementedError

    # -- word metric -----------------------------------------------------

    def word_length(self, g) -> int:
        """Exact word length w.r.t. the designated generators (BFS default)."""
        return self._bfs_length(g)

    def ball(self, radius: int, budget: int = DEFAULT_BALL_BUDGET) -> set:
        """The exact ball B(e, radius) as a set of normal forms."""
        self._check_radius(radius)
        self._extend_layers(radius, budget)
        out = set()
        for layer in self._layers[: radius + 1]:
            out |= layer
        return out

    def growth(self, radius: int, budget: int = DEFAULT_BALL_BUDGET) -> int:
        """|B(e, radius)|, by BFS layer counting."""
        self._check_radius(radius)
        self._extend_layers(radius, budget)
        return sum(len(layer) for layer in self._layers[: radius + 1])

    def sphere(self, radius: int, budget: int = DEFAULT_BALL_BUDGET) -> set:
        self._check_radius(radius)
        self._extend_layers(radius, budget)
        return set(self._layers[radius])

    def _check_radius(self, radius: int) -> None:
        if radius < 0:
            raise UsageError(f"radius must be >= 0, got {radius}")
        if radius > self.word_length_cap:
            raise CapExceeded(
                f"radius {radius} exceeds word-length cap {self.word_length_cap}",
                self.word_length_cap,
            )

    def word_lengths_of(self, elements: Iterable, cap: int | None = None) -> dict:
        """Word lengths for a batch of elements via one shared BFS."""
        cap = self.word_length_cap if cap is None else cap
        todo = set(elements)
        found: dict = {}
        radius = 0
        while todo:
            if radius > cap:
                raise CapExceeded(
                    f"{len(todo)} elements outside the radius-{cap} ball", cap
                )
            self._extend_layers(radius, DEFAULT_BALL_BUDGET)
            for g in list(todo):
                if g in self._dist and self._dist[g] <= radius:
                    found[g] = self._dist[g]
                    todo.discard(g)
            radius += 1
        return found

    # -- shared BFS kernel ------------------------------------------------

    def _extend_layers(self, radius: int, budget: int) -> None:
        if not self._layers:
            e = self.identity
            self._layers.append({e})
            self._dist[e] = 0
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

    def _bfs_length(self, g, cap: int | None = None) -> int:
        cap = self.word_length_cap if cap is None else cap
        self.check_element(g)
        d = self._dist.get(g)
        if d is not None:
            return d
        radius = len(self._layers)
        while radius <= cap:
            self._extend_layers(radius, DEFAULT_BALL_BUDGET)
            d = self._dist.get(g)
            if d is not None:
                return d
            radius += 1
        raise CapExceeded(
            f"|{self.format_element(g)}| exceeds word-length cap {cap}", cap
        )

    def __repr__(self):
        return f"{type(self).__name__}({self.name})"


class ZN(Group):
    """Z^n with the standard generators +-e_i; elements are int tuples."""

    def __init__(self, n: int, word_length_cap: int = DEFAULT_WORD_CAP):
        if n < 1:
            raise UsageError("ZN needs n >= 1")
        super().__init__(word_length_cap)
        self.n = n
        self.name = f"zn:{n}"

    @property
    def identity(self):
        return (0,) * self.n

    @property
    def generators(self):
        gens = []
        for i in range(self.n):
            e = [0] * self.n
            e[i] = 1
            gens.append(tuple(e))
            e[i] = -1
            gens.append(tuple(e))
        return tuple(gens)

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

    def parse_element(self, text):
        body = _strip_tag(text, "zn")
        try:
            g = tuple(int(p) for p in body.split(","))
        except ValueError:
            raise UsageError(f"malformed zn element: {text!r}") from None
        self.check_element(g)
        return g


class Heisenberg(Group):
    """Integer Heisenberg group H(Z) with S = {E1^+-1, E2^+-1}."""

    name = "heis"

    E1 = (1, 0, 0)
    E2 = (0, 1, 0)

    @property
    def identity(self):
        return (0, 0, 0)

    @property
    def generators(self):
        return ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))

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

    def parse_element(self, text):
        body = _strip_tag(text, "heis")
        parts = body.split(",")
        if len(parts) != 3:
            raise UsageError(f"malformed heis element: {text!r}")
        try:
            g = tuple(int(p) for p in parts)
        except ValueError:
            raise UsageError(f"malformed heis element: {text!r}") from None
        return g


class Lamplighter(Group):
    """Z/mZ wr Z with S = {(delta_0, 0)^+-1, (0, +-1)}.

    Word lengths use the closed form: switch presses plus the cheaper of the
    two monotone sweeps over supp(f) united with {0, pos}.  The formula is
    validated against BFS in the test suite (radius-8 balls, m = 2 and 3).
    """

    def __init__(self, m: int, word_length_cap: int = DEFAULT_WORD_CAP):
        if m < 2:
            raise UsageError("Lamplighter needs m >= 2")
        super().__init__(word_length_cap)
        self.m = m
        self.name = f"ll:{m}"

    @property
    def identity(self):
        return ((), 0)

    @property
    def generators(self):
        lamp = ((((0, 1),), 0),)
        if self.m > 2:
            lamp += ((((0, self.m - 1),), 0),)
        return lamp + (((), 1), ((), -1))

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
        ps = [p for p, _ in lamps] + [0, pos]
        lo, hi = min(ps), max(ps)
        left_first = (0 - lo) + (hi - lo) + (hi - pos)
        right_first = (hi - 0) + (hi - lo) + (pos - lo)
        return switch + min(left_first, right_first)

    def format_element(self, g):
        lamps, pos = g
        body = ",".join(f"{p}:{v}" for p, v in lamps)
        return f"ll:m={self.m};lamps={body};pos={pos}"

    def parse_element(self, text):
        body = _strip_tag(text, "ll")
        fields = dict(_split_fields(body, ";", text))
        if set(fields) != {"m", "lamps", "pos"}:
            raise UsageError(f"malformed ll element: {text!r}")
        if int(fields["m"]) != self.m:
            raise UsageError(f"lamp modulus mismatch: {text!r} vs m={self.m}")
        lamps = {}
        if fields["lamps"]:
            for pair in fields["lamps"].split(","):
                p, _, v = pair.partition(":")
                try:
                    pi, vi = int(p), int(v)
                except ValueError:
                    raise UsageError(f"malformed ll lamps: {text!r}") from None
                if not 0 < vi < self.m or pi in lamps:
                    raise UsageError(f"malformed ll lamps: {text!r}")
                lamps[pi] = vi
        g = (tuple(sorted(lamps.items())), int(fields["pos"]))
        self.check_element(g)
        return g


class BaumslagSolitar(Group):
    """BS(1,k) = Z[1/k] x| Z with T = {(1,0)^+-1, (0,1)^+-1}.

    Element (a, s, n) stands for (a / k**s, n); the (a, s) pair is reduced so
    the form is unique.  Word lengths go through BFS with the shared cap.
    """

    def __init__(self, k: int, word_length_cap: int = DEFAULT_WORD_CAP):
        if k < 2:
            raise UsageError("BS(1,k) needs k >= 2")
        super().__init__(word_length_cap)
        self.k = k
        self.name = f"bs:{k}"

    @property
    def identity(self):
        return (0, 0, 0)

    @property
    def generators(self):
        return ((1, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 0, -1))

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

    def parse_element(self, text):
        body = _strip_tag(text, "bs")
        fields = dict(_split_fields(body, ",", text))
        if set(fields) != {"a", "s", "n"}:
            raise UsageError(f"malformed bs element: {text!r}")
        try:
            g = (int(fields["a"]), int(fields["s"]), int(fields["n"]))
        except ValueError:
            raise UsageError(f"malformed bs element: {text!r}") from None
        self.check_element(g)
        return g


class CyclicGroup(Group):
    """Z/qZ with generators +-1.  Lamp factor for wreath couplings."""

    def __init__(self, q: int):
        if q < 2:
            raise UsageError("CyclicGroup needs q >= 2")
        super().__init__(word_length_cap=q)
        self.q = q
        self.name = f"cyclic:{q}"

    @property
    def identity(self):
        return 0

    @property
    def generators(self):
        if self.q == 2:
            return (1,)
        return (1, self.q - 1)

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

    def parse_element(self, text):
        body = _strip_tag(text, "cyclic")
        fields = dict(_split_fields(body, ";", text))
        if set(fields) != {"q", "v"} or int(fields["q"]) != self.q:
            raise UsageError(f"malformed cyclic element: {text!r}")
        g = int(fields["v"])
        self.check_element(g)
        return g


def _strip_tag(text: str, tag: str) -> str:
    prefix = tag + ":"
    if not text.startswith(prefix):
        raise UsageError(f"expected {prefix}... serialization, got {text!r}")
    return text[len(prefix):]


def _split_fields(body: str, sep: str, original: str):
    for part in body.split(sep):
        key, eq, value = part.partition("=")
        if not eq:
            raise UsageError(f"malformed element serialization: {original!r}")
        yield key, value


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
