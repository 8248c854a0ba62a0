import random
from functools import cache
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oelab import groups
from oelab.errors import ResourceExhausted, UsageError
from oelab.groups import (
    ZN,
    BaumslagSolitar,
    CyclicGroup,
    Heisenberg,
    Lamplighter,
    group_from_spec,
)

FAMILIES = [
    ZN(2),
    ZN(3),
    Heisenberg(),
    Lamplighter(2),
    Lamplighter(3),
    BaumslagSolitar(2),
    BaumslagSolitar(3),
]


def random_element(group, rng, words=6):
    g = group.identity
    gens = group.generators
    for _ in range(rng.randrange(words + 1)):
        g = group.multiply(g, gens[rng.randrange(len(gens))])
    return g


@pytest.mark.parametrize("group", FAMILIES, ids=lambda g: g.name)
def test_group_axioms(group):
    rng = random.Random(hash(group.name) & 0xFFFF)
    e = group.identity
    for _ in range(10_000):
        a = random_element(group, rng)
        b = random_element(group, rng)
        c = random_element(group, rng)
        assert group.multiply(group.multiply(a, b), c) == group.multiply(a, group.multiply(b, c))
        assert group.multiply(a, e) == a
        assert group.multiply(e, a) == a
        assert group.multiply(a, group.inverse(a)) == e
        assert group.multiply(group.inverse(a), a) == e
        assert group.inverse(group.inverse(a)) == a
        group.check_element(a)


@pytest.mark.parametrize("group", FAMILIES + [CyclicGroup(2), CyclicGroup(5)], ids=lambda g: g.name)
def test_generators_symmetric_without_identity(group):
    gens = set(group.generators)
    assert group.identity not in gens
    assert {group.inverse(s) for s in gens} == gens


def test_multiply_examples():
    assert ZN(2).multiply((1, 0), (0, 1)) == (1, 1)
    assert Heisenberg().multiply((0, 1, 0), (1, 0, 0)) == (1, 1, 1)
    # (1, 1) * (1, 0) = (3/2, 1) stored as (a=3, s=1, n=1)
    assert BaumslagSolitar(2).multiply((1, 0, 1), (1, 0, 0)) == (3, 1, 1)


def test_word_length_examples():
    for group in FAMILIES:
        assert group.word_length(group.identity) == 0
    assert ZN(2).word_length((3, -2)) == 5
    ll = Lamplighter(2)
    assert ll.word_length(ll.make({0: 1, 1: 1}, 0)) == 4  # a t a t^-1


def test_growth_examples():
    assert ZN(1).growth(3) == 7
    assert Heisenberg().growth(1) == 5
    assert ZN(2).growth(2) == 13


def test_ball_examples():
    assert ZN(1).ball(1) == {(-1,), (0,), (1,)}
    assert len(ZN(2).ball(1)) == 5
    bs = BaumslagSolitar(2)
    # sphere of radius 2 has 12 reduced forms; the ball is 1 + 4 + 12
    assert len(bs.sphere(2)) == 12
    assert len(bs.ball(2)) == 17
    assert bs.growth(2) == 17


@pytest.mark.parametrize("group", FAMILIES, ids=lambda g: g.name)
def test_word_length_symmetric_and_triangle(group):
    rng = random.Random(1 + hash(group.name) % 1000)
    for _ in range(300):
        a = random_element(group, rng, words=4)
        b = random_element(group, rng, words=4)
        la = group.word_length(a)
        assert la == group.word_length(group.inverse(a))
        assert group.word_length(group.multiply(a, b)) <= la + group.word_length(b)


@pytest.mark.parametrize(
    "group, radius",
    [
        pytest.param(group, radius, id=group.name)
        for group, radius in [
            (ZN(2), 8),
            (ZN(3), 8),
            (Lamplighter(2), 8),
            (Lamplighter(3), 8),
            (CyclicGroup(5), 5),
            (Heisenberg(), 20),
            (BaumslagSolitar(2), 12),
            (BaumslagSolitar(3), 11),
            (BaumslagSolitar(5), 10),
        ]
    ],
)
def test_closed_form_matches_bfs(group, radius):
    # BFS is the oracle: every element of the sphere of radius r has length r;
    # one search yields every sphere, where sphere(r) would search again per r
    for r, sphere in enumerate(group._spheres(radius)):
        for g in sphere:
            assert group.word_length(g) == r, g


def _heis_box_minimum(g):
    """Heisenberg length by trying every box width in [x, x + 4 isqrt(z) + 4]."""
    x, y, z = g
    x, y, z = abs(x), abs(y), z if (x < 0) == (y < 0) else -z
    if z < 0:
        z = x * y - z
    if z <= x * y:
        return x + y
    widths = range(max(x, 1), x + 4 * isqrt(z) + 5)
    return min(2 * X - x + y + 2 * max(0, -(-z // X) - y) for X in widths)


def _bs_carry_minimum(k, g):
    """BS(1,k) length by a fresh digit search at every walk depth W.

    Each digit but the last is r or r - k, r the remainder mod k, and W runs
    to low + 2 |a|.bit_length() + 8, past the closed form's window.
    """
    a, s, n = g
    top = max(0, n, s)
    low = top - min(0, n)

    @cache
    def cost(value, W):
        # least sum |d_i| with sum_{i <= W} d_i k^i = value, d_W free
        if W == 0:
            return abs(value)
        r = value % k
        return min(abs(d) + cost((value - d) // k, W - 1) for d in (r, r - k))

    M = a * k ** (top - s)
    return min(2 * W - abs(n) + cost(M, W) for W in range(low, low + 2 * abs(a).bit_length() + 9))


# far past BFS reach (|z| <= 169 within radius 26), small enough to scan widths
@given(st.integers(-3000, 3000), st.integers(-3000, 3000), st.integers(-10**7, 10**7))
@settings(max_examples=200, deadline=None)
def test_heisenberg_closed_form_matches_box_search(x, y, z):
    assert Heisenberg().word_length((x, y, z)) == _heis_box_minimum((x, y, z))


@given(
    st.sampled_from([2, 3, 5]),
    st.integers(-10**5, 10**5),
    st.integers(0, 12),
    st.integers(-40, 40),
)
@settings(max_examples=150, deadline=None)
def test_bs_closed_form_matches_carry_search(k, a, s, n):
    bs = BaumslagSolitar(k)
    g = bs.make(a, s, n)
    assert bs.word_length(g) == _bs_carry_minimum(k, g)


def _bs_value_carry_pass(k, g):
    """The carry pass on the values a k**(top - s - W) + c themselves, quadratic in n."""
    a, s, n = g
    top = max(0, n, s)
    low = top - min(0, n)
    carries = {a * k ** (top - s): 0}
    costs = []
    for W in range(low + abs(a).bit_length() + 2):
        if W >= low:
            costs.append(2 * W - abs(n) + min(c + abs(v) for v, c in carries.items()))
        step = {}
        for v, c in carries.items():
            for d in (v % k, v % k - k):
                step[(v - d) // k] = min(step.get((v - d) // k, c + abs(d)), c + abs(d))
        carries = step
    return min(costs)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_bs_offset_carry_pass_matches_the_value_pass(k):
    bs, rng = BaumslagSolitar(k), random.Random(k)
    for _ in range(1000):
        a = rng.choice([rng.randint(-9, 9), rng.randint(-10**6, 10**6), rng.randint(-(10**30), 10**30)])
        g = bs.make(a, rng.randint(0, 40), rng.randint(-60, 200))
        assert bs.word_length(g) == _bs_value_carry_pass(k, g), g


def test_heisenberg_bfs_word_lengths():
    h = Heisenberg()
    # commutator [E1, E2] = (0,0,?) has length 4: E1 E2 E1^-1 E2^-1
    comm = h.multiply(h.multiply((1, 0, 0), (0, 1, 0)), h.multiply((-1, 0, 0), (0, -1, 0)))
    assert comm[:2] == (0, 0) and comm[2] != 0
    assert h.word_length(comm) == 4
    assert h.word_length((1, 1, 1)) == 2  # E2 * E1


def test_big_integers_no_overflow():
    h = Heisenberg()
    g = (2**70, 3**50, -(5**40))
    assert h.multiply(g, h.inverse(g)) == (0, 0, 0)
    bs = BaumslagSolitar(2)
    x = bs.make(3**40, 90, 5)
    assert bs.multiply(x, bs.inverse(x)) == (0, 0, 0)


def test_bs_normal_form_reduced():
    bs = BaumslagSolitar(2)
    assert bs.make(4, 2, 0) == (1, 0, 0)
    assert bs.make(6, 1, 0) == (3, 0, 0)
    assert bs.make(0, 5, 7) == (0, 0, 7)
    with pytest.raises(UsageError):
        bs.check_element((4, 2, 0))


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=200, deadline=None)
def test_bs_semidirect_law_matches_rationals(a1, a2, n1, n2):
    # multiply agrees with (z1 + z2/k^n1, n1+n2) computed in exact rationals
    from fractions import Fraction

    bs = BaumslagSolitar(2)
    g = bs.make(a1, 2, n1)
    h = bs.make(a2, 3, n2)
    prod = bs.multiply(g, h)
    z = Fraction(g[0], 2 ** g[1]) + Fraction(h[0], 2 ** h[1]) / Fraction(2**n1)
    assert Fraction(prod[0], 2 ** prod[1]) == z
    assert prod[2] == n1 + n2


@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 2)), max_size=4), st.integers(-4, 4))
@settings(max_examples=200, deadline=None)
def test_lamplighter_normal_form_roundtrip(lamp_list, pos):
    ll = Lamplighter(3)
    g = ll.make(dict(lamp_list), pos)
    ll.check_element(g)
    assert ll.multiply(g, ll.inverse(g)) == ll.identity


@pytest.mark.parametrize("group", FAMILIES + [CyclicGroup(5)], ids=lambda g: g.name)
def test_serialization_roundtrip(group):
    rng = random.Random(7)
    for _ in range(50):
        g = random_element(group, rng)
        assert group.parse_element(group.format_element(g)) == g


def test_serialization_strict():
    with pytest.raises(UsageError):
        ZN(2).parse_element("zn:1")  # wrong arity
    with pytest.raises(UsageError):
        ZN(2).parse_element("heis:1,1,1")
    with pytest.raises(UsageError):
        Lamplighter(2).parse_element("ll:m=3;lamps=;pos=0")  # modulus mismatch
    with pytest.raises(UsageError):
        BaumslagSolitar(2).parse_element("bs:a=4,s=1,n=0")  # not reduced
    with pytest.raises(UsageError):
        Lamplighter(2).parse_element("ll:m=2;lamps=0:1,0:1;pos=0")  # dup position
    malformed = {
        Heisenberg(): ["heis:1,2", "heis:1,2,3,4", "heis:1,x,3", "heis", "zn:1,2,3"],
        BaumslagSolitar(2): ["bs:a=1,s=0", "bs:a=1,s=0,n=0,n=1", "bs:a=x,s=0,n=0", "bs:a=1;s=0;n=0"],
        CyclicGroup(5): ["cyclic:q=5;v=7", "cyclic:q=4;v=1", "cyclic:q=x;v=1", "cyclic:q=5", "cyclic:5"],
    }
    for group, texts in malformed.items():
        for text in texts:
            with pytest.raises(UsageError):
                group.parse_element(text)


def test_group_from_spec():
    assert group_from_spec("zn:3").name == "zn:3"
    assert group_from_spec("heis").name == "heis"
    assert group_from_spec("ll:4").m == 4
    assert group_from_spec("bs:3").k == 3
    with pytest.raises(UsageError):
        group_from_spec("zn:x")
    with pytest.raises(UsageError):
        group_from_spec("frobnicate:2")


def test_lamplighter_length_examples():
    ll = Lamplighter(2)
    # lamp at 3, end at 0: go right 3, press, come back: 3 + 1 + 3
    assert ll.word_length(ll.make({3: 1}, 0)) == 7
    # lamps at -1 and 2, end 0: travel min(2*1+2, 1+2*2) = 4 plus back... exact via BFS covered
    ll3 = Lamplighter(3)
    # value 2 lamps cost min(2, 1) = 1 via the inverse generator
    assert ll3.word_length(ll3.make({0: 2}, 0)) == 1


def test_budget_exhaustion_reports_last_radius(monkeypatch):
    # |B(3)| = 53 and |B(4)| = 135 in heis; a budget of 100 stops at radius 4
    for call in ("ball", "growth"):
        h = Heisenberg()
        with monkeypatch.context() as m:
            m.setattr(groups, "DEFAULT_BALL_BUDGET", 100)
            with pytest.raises(ResourceExhausted) as exc:
                getattr(h, call)(6)
        assert exc.value.progress == 3
        # a failed search leaves nothing behind: a larger budget then gets the right ball
        assert h.growth(4) == 135
    monkeypatch.setattr(groups, "DEFAULT_BALL_BUDGET", 100)
    assert len(Heisenberg().ball(3)) == 53


@pytest.mark.parametrize("group", FAMILIES + [CyclicGroup(5)], ids=lambda g: g.name)
def test_balls_keep_no_state(group):
    # each call runs its own search: no call changes the group or a later answer
    before = dict(vars(group))
    first = (group.ball(3), group.sphere(3), group.growth(3))
    assert vars(group) == before
    group.sphere(3).clear()  # the caller owns the set it gets
    group.ball(3).clear()
    assert (group.ball(3), group.sphere(3), group.growth(3)) == first
    assert vars(group) == before


def test_negative_radius_is_a_usage_error():
    g = ZN(1)
    g.ball(3)  # after a search too, a negative radius is refused, not read as layers[-1]
    for call in (g.ball, g.growth, g.sphere):
        with pytest.raises(UsageError):
            call(-1)


@pytest.mark.parametrize("group", [ZN(1), ZN(3), Heisenberg()], ids=lambda g: g.name)
def test_multiply_array_matches_multiply(group):
    rng = random.Random(5)
    d = len(group.identity)
    g = [tuple(rng.randint(-1000, 1000) for _ in range(d)) for _ in range(500)]
    h = [tuple(rng.randint(-1000, 1000) for _ in range(d)) for _ in range(500)]
    got = group.multiply_array(np.array(g), np.array(h))
    assert [tuple(map(int, row)) for row in got] == [group.multiply(a, b) for a, b in zip(g, h)]
    # a single row on the left, as the depth kernel forms gamma * prefix
    row = group.multiply_array(np.array(g[0]), np.array(h))
    assert [tuple(map(int, r)) for r in row] == [group.multiply(g[0], b) for b in h]


def test_lamplighter_multiply_array_matches_multiply():
    # rows (cursor, digits on [0, W)); h's digits shifted by g's cursor stay in the window
    rng = random.Random(6)
    for m, W, w in ((2, 8, 4), (3, 16, 8), (5, 4, 4)):
        group = Lamplighter(m)
        g = np.array([[rng.randrange(W - w + 1)] + [rng.randrange(m) for _ in range(W)] for _ in range(300)])
        h = np.array([[rng.randrange(-5, 6)] + [rng.randrange(m) for _ in range(w)] for _ in range(300)])
        got = group.multiply_array(g, h)
        assert [_ll_element(group, r) for r in got] == [
            group.multiply(_ll_element(group, a), _ll_element(group, b)) for a, b in zip(g, h)
        ]
        # letters against tiles: (F, 1) rows broadcast against (1, P) rows
        grid = group.multiply_array(g[:5, None], h[None, :7])
        assert grid.shape == (5, 7, W + 1)
        assert [_ll_element(group, r) for r in grid.reshape(-1, W + 1)] == [
            group.multiply(_ll_element(group, a), _ll_element(group, b)) for a in g[:5] for b in h[:7]
        ]


def _ll_element(group, row):
    row = [int(a) for a in row]
    return group.make(dict(enumerate(row[1:])), row[0])


def _scalar_distance(group, u, v):
    return group.word_length(group.multiply(group.inverse(u), v))


# the last levels proven_bound admits: a box of side below 2^62 / n on Z^n,
# heis T_28 (L = 2^29), and ll windows of 64 lamps (ll:2 and ll:3 at k = 5)
_HEIS_L = 1 << 29


@given(st.data(), st.sampled_from([1, 3, 5]), st.sampled_from([9, None]))
@settings(max_examples=200, deadline=None)
def test_zn_distance_array_matches_word_length(data, n, side):
    side = side or ((1 << 62) - 1) // n
    coords = st.tuples(*[st.integers(0, side - 1)] * n)
    pairs = data.draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=20))
    group = ZN(n)
    got = group.distance_array(np.array([u for u, _ in pairs]), np.array([v for _, v in pairs]))
    assert [int(d) for d in got] == [_scalar_distance(group, u, v) for u, v in pairs]


@given(st.data(), st.sampled_from([4, 64, _HEIS_L]))
@settings(max_examples=300, deadline=None)
def test_heisenberg_distance_array_matches_word_length(data, L):
    # points of T_k lie in [0, L)^2 x [0, 2 L^2)
    point = st.tuples(st.integers(0, L - 1), st.integers(0, L - 1), st.integers(0, 2 * L * L - 1))
    pairs = data.draw(st.lists(st.tuples(point, point), min_size=1, max_size=20))
    group = Heisenberg()
    got = group.distance_array(np.array([u for u, _ in pairs]), np.array([v for _, v in pairs]))
    assert [int(d) for d in got] == [_scalar_distance(group, u, v) for u, v in pairs]


def test_heisenberg_distance_array_edge_rows():
    # z on either side of xy, zero rows, corners of T_28 and exact squares
    L = _HEIS_L
    corners = [0, 1, L - 1]
    points = [(x, y, z) for x in corners for y in corners for z in (0, 1, L * L, 2 * L * L - 1)]
    points += [(0, 1, r * r) for r in (3, 1 << 20, L - 1)] + [(1, 0, 5), (0, 0, 7)]
    group = Heisenberg()
    u = np.array([p for p in points for _ in points])
    v = np.array([q for _ in points for q in points])
    want = [_scalar_distance(group, p, q) for p in points for q in points]
    assert [int(d) for d in group.distance_array(u, v)] == want


@given(st.data(), st.sampled_from([2, 3]), st.sampled_from([2, 4, 64]))
@settings(max_examples=200, deadline=None)
def test_lamplighter_distance_array_matches_word_length(data, m, W):
    row = st.tuples(st.integers(0, W - 1), *[st.integers(0, m - 1)] * W)
    pairs = data.draw(st.lists(st.tuples(row, row), min_size=1, max_size=20))
    group = Lamplighter(m)
    got = group.distance_array(np.array([u for u, _ in pairs]), np.array([v for _, v in pairs]))
    want = [_scalar_distance(group, _ll_element(group, u), _ll_element(group, v)) for u, v in pairs]
    assert [int(d) for d in got] == want
