import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oelab.errors import CapExceeded, UsageError
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
    "group",
    [ZN(2), ZN(3), Lamplighter(2), Lamplighter(3), CyclicGroup(5)],
    ids=lambda g: g.name,
)
def test_closed_form_matches_bfs(group):
    # word_lengths_of reads BFS distances; word_length is the family's closed form
    radius = min(8, group.word_length_cap)
    bfs = group.word_lengths_of(group.ball(radius))
    for g, d in bfs.items():
        assert group.word_length(g) == d, g


def test_heisenberg_bfs_word_lengths():
    h = Heisenberg()
    # commutator [E1, E2] = (0,0,?) has length 4: E1 E2 E1^-1 E2^-1
    comm = h.multiply(h.multiply((1, 0, 0), (0, 1, 0)), h.multiply((-1, 0, 0), (0, -1, 0)))
    assert comm[:2] == (0, 0) and comm[2] != 0
    assert h.word_length(comm) == 4
    assert h.word_length((1, 1, 1)) == 2  # E2 * E1


def test_cap_exceeded():
    bs = BaumslagSolitar(2, word_length_cap=4)
    with pytest.raises(CapExceeded) as exc:
        bs.word_length((1, 0, 40))
    assert exc.value.cap == 4


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


def test_growth_cap_enforced():
    bs = BaumslagSolitar(2, word_length_cap=3)
    with pytest.raises(CapExceeded):
        bs.growth(4)
    assert bs.growth(3) > 0


def test_negative_radius_is_a_usage_error():
    g = ZN(1)
    g.ball(3)  # cached layers must not make a negative index read one of them
    for call in (g.ball, g.growth, g.sphere):
        with pytest.raises(UsageError):
            call(-1)
