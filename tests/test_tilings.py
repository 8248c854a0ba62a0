import itertools
import math
import random
from fractions import Fraction

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oelab import _rng, tilings
from oelab.errors import NotInTile, ResourceExhausted, TilingViolation, UsageError
from oelab.tilings import (
    DEFAULT_TILE_BUDGET,
    INT64_SAFE,
    FiniteCyclicTiling,
    HeisTiling,
    LamplighterTiling,
    Orientation,
    TilingSequence,
    ZBlocksTiling,
    ZnGroupedTiling,
    ZnTiling,
    _distinct_rows,
    builtin,
)

BUILTINS = [
    ZnTiling(1),
    ZnTiling(2),
    ZnGroupedTiling(1, 2),
    ZnGroupedTiling(2, 2),
    HeisTiling(),
    LamplighterTiling(2),
    LamplighterTiling(3),
    builtin("zmatch:ll:2"),
    builtin("cyclic:3"),
    builtin("zblocks:3,2,2,3"),
]


def enumerate_escape(t: TilingSequence, gamma, k: int) -> Fraction:
    """Oracle: |T_k \\ gamma^-1 T_k| / |T_k| by direct enumeration."""
    tiles = t.build_tiles(k)[k]
    tset = set(tiles)
    mul, inv = t.group.multiply, t.group.inverse
    if t.orientation is Orientation.LEFT:
        esc = sum(1 for x in tset if mul(gamma, x) not in tset)
    else:
        ginv = inv(gamma)
        esc = sum(1 for x in tset if mul(x, ginv) not in tset)
    return Fraction(esc, len(tset))


def test_z_tiles_are_intervals():
    t = ZnTiling(1)
    tiles = t.build_tiles(2)
    assert sorted(g[0] for g in tiles[2]) == list(range(8))


def test_heis_t1_size_and_disjointness():
    t = HeisTiling()
    tiles = t.build_tiles(1)
    assert len(tiles[1]) == 256 == len(set(tiles[1]))


class Collides(ZBlocksTiling):
    """F_1 = {0,1} overlaps T_0 + {0,2}, in the scalar and the array alphabet alike."""

    def letter(self, k, idx):
        return (idx,)

    def letter_array(self, k, idx):
        return idx[:, None]


class RepeatsALetter(ZBlocksTiling):
    """F_0 = {0, 0}: two letters of level 0 coincide."""

    def letter(self, k, idx):
        return (idx // 2,)

    def letter_array(self, k, idx):
        return idx[:, None] // 2


def test_forced_collision_reports_witness():
    with pytest.raises(TilingViolation) as exc:
        Collides([2, 2]).build_tiles(1)
    assert exc.value.k == 1
    # (t, f) = (1, 0) and (t', f') = (0, 1) both give 1
    assert exc.value.witness == (((1,), (0,)), ((0,), (1,)), (1,))


@pytest.mark.parametrize("t", BUILTINS, ids=lambda t: t.name)
def test_decode_roundtrip(t):
    K = 2 if t.tile_size(3) > 300_000 else 3
    tiles = t.build_tiles(K)
    for k in range(K + 1):
        for g in tiles[k]:
            idxs = t.decode(g, k)
            assert len(idxs) == k + 1
            assert t.prefix_product(idxs) == g
    # an element outside the tile
    outside = t.group.inverse(t.prefix_product(t.decode(tiles[1][1], 1)))
    if t.contains(outside, K):
        outside = t.group.multiply(tiles[K][-1], tiles[K][-1])
    if not t.contains(outside, K):
        with pytest.raises(NotInTile):
            t.decode(outside, K)


@pytest.mark.parametrize("t", BUILTINS, ids=lambda t: t.name)
def test_folner_constant_within_claim_and_nonincreasing(t):
    K = 3 if t.tile_size(3) < 300_000 else 2
    values = []
    for k in range(K + 1):
        rep = t.folner_constant(k)
        assert rep.within_claim, (t.name, k)
        values.append(rep.value)
    assert all(values[i + 1] <= values[i] for i in range(len(values) - 1))


def test_zn_folner_exact_equality():
    # boxes achieve the claimed constants exactly
    for n in (1, 2):
        t = ZnTiling(n)
        for k in range(4):
            assert t.folner_constant(k).value == Fraction(1, 2 ** (k + 1))
    t = ZnGroupedTiling(1, 2)
    for k in range(3):
        assert t.folner_constant(k).value == Fraction(1, 4 ** (k + 1))


def test_zn_folner_example_values():
    assert ZnTiling(1).folner_constant(1).value == Fraction(1, 4)
    assert ZnTiling(2).folner_constant(0).value == Fraction(1, 2)
    assert HeisTiling().folner_constant(1).value <= Fraction(1, 2)


@pytest.mark.parametrize(
    "t,gammas,K",
    [
        (ZnTiling(1), [(1,), (-2,), (5,)], 3),
        (ZnTiling(2), [(1, 0), (2, -1)], 2),
        (HeisTiling(), [(1, 0, 0), (0, -1, 0), (1, 1, 0), (0, 0, 1), (2, 0, -3)], 2),
        (LamplighterTiling(2), None, 2),
        (builtin("zmatch:ll:2"), [(1,), (-3,), (10,)], 2),
    ],
    ids=lambda x: getattr(x, "name", str(x)),
)
def test_escape_fraction_matches_enumeration(t, gammas, K):
    if gammas is None:
        grp = t.group
        gammas = list(grp.generators) + [grp.multiply(grp.generators[0], grp.generators[2])]
    for k in range(K + 1):
        for gamma in gammas:
            assert t.escape_fraction(gamma, k) == enumerate_escape(t, gamma, k), (t.name, gamma, k)


def test_tile_sizes_closed_forms():
    assert [ZnTiling(2).tile_size(k) for k in range(4)] == [2 ** (2 * (k + 1)) for k in range(4)]
    assert [HeisTiling().tile_size(k) for k in range(4)] == [2 ** (4 * k + 4) for k in range(4)]
    ll = LamplighterTiling(3)
    assert [ll.tile_size(k) for k in range(3)] == [2 ** (k + 1) * 3 ** (2 ** (k + 1)) for k in range(3)]


def test_diameters():
    t = ZnTiling(1)
    assert t.tile_diameter(1, mode="exact").value == 3
    assert t.tile_diameter(1, mode="exact").claimed == 4
    assert ZnTiling(2).tile_diameter(0, mode="exact").value == 2
    with pytest.raises(UsageError):
        t.tile_diameter(1, mode="auto")  # the two modes are exact and sampled
    # sampled mode is a lower bound below the claim
    ll = LamplighterTiling(2)
    rep = ll.tile_diameter(2, mode="sampled", samples=2000, seed=5)
    assert rep.value <= rep.claimed == 24
    exact = ll.tile_diameter(1, mode="exact").value
    assert ll.tile_diameter(1, mode="sampled", samples=200, seed=5).value <= exact


def test_heis_exact_diameter_within_radius():
    t = HeisTiling()
    for k in (0, 1):
        rep = t.tile_diameter(k, mode="exact")
        assert rep.value <= rep.claimed == 10 * 2 ** (k + 2)


def test_lamplighter_letter_unrank_bijection():
    for m in (2, 3):
        t = LamplighterTiling(m)
        for k in (0, 1, 2):
            letters = [t.letter(k, i) for i in range(t.letter_count(k))]
            assert len(letters) == len(set(letters)) == t.letter_count(k)
            if k >= 1:
                assert t.letter_count(k) == 2 * m ** (2**k)


def test_builtin_specs():
    assert builtin("zn:3").n == 3
    assert builtin("zn:2:grouped:3").m == 3
    assert builtin("heis").name == "heis"
    assert builtin("ll:5").m == 5
    assert builtin("zblocks:4,4,4").letter_count(2) == 4
    assert builtin("cyclic:6").q == 6
    # a zero size anywhere in the list is refused when the spec is built
    for bad in ("zn", "zn:2:group:3", "nope:1", "ll:x", "zblocks:3,0,2", "zblocks:2,2,0"):
        with pytest.raises(UsageError):
            builtin(bad)


def test_zmatch_sizes_track_lamplighter():
    ll = LamplighterTiling(3)
    zm = builtin("zmatch:ll:3")
    for k in range(6):
        assert zm.letter_count(k) == ll.letter_count(k)
    # claimed epsilon from the matched construction: 2 / |T_k|
    assert zm.claimed_epsilon(1) == Fraction(2, zm.tile_size(1))
    assert zm.folner_constant(1).value == Fraction(1, zm.tile_size(1))


def test_budget_guard():
    with pytest.raises(ResourceExhausted):
        LamplighterTiling(2).build_tiles(3, budget=1000)


def test_finite_cyclic_tiling():
    t = FiniteCyclicTiling(4)
    assert t.tile_size(5) == 4
    assert t.folner_constant(2).value == 0
    assert t.decode(3, 2) == (3, 0, 0)


@pytest.mark.parametrize("t", [t for t in BUILTINS if hasattr(t, "decode_array")], ids=lambda t: t.name)
def test_decode_array_matches_decode(t):
    # every element of T_0, T_1 and T_2, as int64 rows
    for k, tile in enumerate(t.build_tiles(2)):
        got = t.decode_array(np.array(tile, dtype=np.int64), k)
        assert got.dtype == np.int64 and got.tolist() == [list(t.decode(g, k)) for g in tile], k
    assert t.decode_array(np.zeros((0, len(t.group.identity)), dtype=np.int64), 2).shape == (0, 3)


def test_decode_roundtrip_hypothesis():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    t = HeisTiling()

    @given(st.lists(st.integers(0, 15), min_size=1, max_size=5))
    @settings(max_examples=300, deadline=None)
    def check(indices):
        g = t.prefix_product(indices)
        k = len(indices) - 1
        assert t.contains(g, k)
        assert t.decode(g, k) == tuple(indices)

    check()


def test_heis_escape_closed_form_matches_enumeration_k3():
    # deeper cross-check of the digit-parametrized escape count at |T_3| = 65536
    t = HeisTiling()
    tiles = set(t.build_tiles(3)[3])
    mul = t.group.multiply
    for gamma in [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0), (1, -1, 2)]:
        esc = sum(1 for a in tiles if mul(gamma, a) not in tiles)
        assert t.escape_fraction(gamma, 3) == Fraction(esc, len(tiles)), gamma


def heis_escape_loop(gamma, k: int) -> Fraction:
    """Oracle: the Heisenberg escape count as a double loop over the (X, Y) columns."""
    cross = HeisTiling._cross
    p, q, r = gamma
    L = 1 << (k + 1)
    W = 1 << (2 * (k + 1))
    esc = 0
    for X in range(L):
        X2 = X + p
        if not 0 <= X2 < L:
            esc += L * W
            continue
        for Y in range(L):
            Y2 = Y + q
            if not 0 <= Y2 < L:
                esc += W
                continue
            # gamma * (X,Y,Z) = (X+p, Y+q, Z + r + q*X); Z = w + cross(X,Y)
            delta = r + q * X + cross(X, Y) - cross(X2, Y2)
            esc += min(W, abs(delta))
    return Fraction(esc, L * L * W)


_HEIS_GAMMAS = [
    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (3, -2, 5), (-5, 1, -100),
    (0, 0, 1 << 61), (0, 0, -(1 << 80)), (7, 7, 7), (-3, -3, 40), (2, 1, -7),
    (1 << 70, 1, 1), (1, -(1 << 70), 3), (0, 3, 1000), (127, -127, 1),
]


@pytest.mark.parametrize("gamma", _HEIS_GAMMAS)
def test_heis_escape_grid_matches_the_loop(gamma):
    t = HeisTiling()
    for k in range(7):
        assert t.escape_fraction(gamma, k) == heis_escape_loop(gamma, k), (gamma, k)


@pytest.mark.parametrize(
    "t",
    [ZnTiling(3), ZnGroupedTiling(2, 3), builtin("zmatch:ll:2"), ZBlocksTiling([3, 5, 2, 7]), HeisTiling()],
    ids=lambda t: t.name,
)
def test_array_hooks_match_the_scalar_letters_and_membership(t):
    rng = random.Random(3)
    for k in range(3):
        idx = np.arange(t.letter_count(k))
        assert [tuple(map(int, f)) for f in t.letter_array(k, idx)] == [t.letter(k, int(i)) for i in idx]
        # elements of T_k, their neighbours and far points, in and out of the tile
        tile = rng.sample(t.build_tiles(k)[k], min(300, t.tile_size(k)))
        side = max(abs(a) for g in tile for a in g) + 2
        near = [tuple(a + rng.randint(-2, 2) for a in rng.choice(tile)) for _ in range(300)]
        far = [tuple(rng.randint(-side, side) for _ in g) for g in near]
        gs = tile + near + far
        got = t.contains_array(np.array(gs, dtype=np.int64), k)
        assert list(got) == [t.contains(g, k) for g in gs], k
        assert t.int64_bound(t.group.identity, k) > side - 2


def test_heis_escape_grid_refuses_an_unreachable_k():
    with pytest.raises(ResourceExhausted):
        HeisTiling().escape_fraction((1, 0, 0), 20)


class GroupedByShifts:
    """Oracle: letters and decoding of zn:N:grouped:M by bit shifts, as first written."""

    def __init__(self, n, m):
        self.n, self.m = n, m

    def letter(self, k, idx):
        base = 1 << self.m
        out = []
        for _ in range(self.n):
            out.append((idx % base) << (self.m * k))
            idx //= base
        return tuple(out)

    def letter_array(self, k, idx):
        digits = (idx[:, None] >> (self.m * np.arange(self.n))) & ((1 << self.m) - 1)
        return digits << (self.m * k)

    def decode(self, g, k):
        base = 1 << self.m
        out = []
        for i in range(k + 1):
            idx = 0
            for j in reversed(range(self.n)):
                idx = idx * base + ((g[j] >> (self.m * i)) % base)
            out.append(idx)
        return tuple(out)


class BlocksByDivmod:
    """Oracle: letters and decoding of zblocks by divmod, as first written."""

    def __init__(self, sizes):
        self.sizes = sizes

    def tile_size(self, k):
        size = 1
        for i in range(k + 1):
            size *= self.sizes(i)
        return size

    def letter(self, k, idx):
        return (idx * (self.tile_size(k - 1) if k > 0 else 1),)

    def letter_array(self, k, idx):
        return (idx * (self.tile_size(k - 1) if k > 0 else 1))[:, None]

    def decode(self, g, k):
        v = g[0]
        out = []
        for i in range(k + 1):
            v, idx = divmod(v, self.sizes(i))
            out.append(idx)
        return tuple(out)


_BOX_ORACLES = [
    ("zn:1", GroupedByShifts(1, 1), 3),
    ("zn:2", GroupedByShifts(2, 1), 3),
    ("zn:1:grouped:2", GroupedByShifts(1, 2), 3),
    ("zn:2:grouped:3", GroupedByShifts(2, 3), 2),
    ("zblocks:3,2,5,4", BlocksByDivmod([3, 2, 5, 4].__getitem__), 3),
    ("zmatch:ll:2", BlocksByDivmod(LamplighterTiling(2).letter_count), 3),
    ("zmatch:ll:3", BlocksByDivmod(LamplighterTiling(3).letter_count), 3),
]
_ORACLE_SAMPLES = 5000


def _index_tuples(rng, counts):
    """Every index tuple below counts, or _ORACLE_SAMPLES random ones when there are more."""
    if math.prod(counts) <= _ORACLE_SAMPLES:
        return list(itertools.product(*map(range, counts)))
    return [tuple(rng.randrange(c) for c in counts) for _ in range(_ORACLE_SAMPLES)]


@pytest.mark.parametrize("spec,old,K", _BOX_ORACLES, ids=[c[0] for c in _BOX_ORACLES])
def test_box_alphabet_matches_the_per_family_letters(spec, old, K):
    # one radix-digit alphabet against the two schemes it replaced
    t = builtin(spec)
    rng = random.Random(spec)
    for k in range(K + 1):
        idx = np.array(_index_tuples(rng, [t.letter_count(k)]), dtype=np.int64)[:, 0]
        assert [t.letter(k, int(i)) for i in idx] == [old.letter(k, int(i)) for i in idx], k
        assert np.array_equal(t.letter_array(k, idx), old.letter_array(k, idx)), k
        for idxs in _index_tuples(rng, [t.letter_count(i) for i in range(k + 1)]):
            g = t.prefix_product(idxs)
            assert t.decode(g, k) == old.decode(g, k) == idxs, (k, idxs)


def lamplighter_escape_loop(gamma, k: int) -> Fraction:
    """Oracle: the lamplighter escape count as a loop over the cursor positions."""
    lamps, j = gamma
    L = 1 << (k + 1)
    bad = 0
    for n in range(L):
        if not 0 <= n + j < L:
            bad += 1
        elif any(not 0 <= p + n < L for p, _ in lamps):
            bad += 1
    return Fraction(bad, L)


def test_lamplighter_escape_interval_matches_the_loop():
    rng = random.Random(11)
    for m in (2, 3):
        t = LamplighterTiling(m)
        for _ in range(1500):
            lamps = {rng.randint(-12, 40): rng.randrange(1, m) for _ in range(rng.randrange(4))}
            gamma = t.group.make(lamps, rng.randint(-70, 70))
            k = rng.randrange(6)
            assert t.escape_fraction(gamma, k) == lamplighter_escape_loop(gamma, k), (gamma, k)


# -- the array disjointness proof and the batched diameter draws ------------

ARRAY_HOOKED = [t for t in BUILTINS if t.int64_bound(t.group.identity, 0) is not None] + [ZnTiling(3)]


def _largest_k(t, limit=60_000, top=3):
    return max(k for k in range(top + 1) if t.tile_size(k) <= limit)


def _element(t, row):
    """The normal form an int64 row stands for: the row itself, or (lamps, cursor) for ll."""
    row = [int(a) for a in row]
    if isinstance(t, LamplighterTiling):
        return t.group.make(dict(enumerate(row[1:])), row[0])
    return tuple(row)


def _narrowest(bound):
    """The smallest signed dtype holding both -bound and bound: a signed min is -max - 1."""
    return np.min_scalar_type(-bound - 1)


def _spy_on_products(t, monkeypatch):
    """Record the dtypes of every grow_array call's letters and product."""
    real, seen = t.grow_array, []

    def spy(rows, letters):
        out = real(rows, letters)
        seen.append((letters.dtype, out.dtype))
        return out

    monkeypatch.setattr(t, "grow_array", spy)
    return seen


@pytest.mark.parametrize("t", ARRAY_HOOKED, ids=lambda t: t.name)
def test_tile_arrays_match_build_tiles(t, monkeypatch):
    K = _largest_k(t)
    tiles = t.build_tiles(K)
    products = _spy_on_products(t, monkeypatch)
    levels = list(t._tile_arrays(K))
    assert len(levels) == K + 1
    for k, rows in enumerate(levels):
        # the same tiles in the same order: letter outer, previous tile inner
        assert [_element(t, r) for r in rows] == tiles[k], k
        bound = t.proven_bound(t.group.identity, k)
        assert int(np.abs(rows).max()) <= bound and rows.dtype == _narrowest(bound), k
    # only the stored rows are narrow: the letters and every product stay int64
    assert products and set(products) == {(np.dtype(np.int64), np.dtype(np.int64))}
    # blocks of 7 rows split the letters and the previous tile alike and give the same rows
    monkeypatch.setattr(tilings, "ROW_BLOCK", 7)
    for k, rows in enumerate(t._tile_arrays(K)):
        assert rows.dtype == levels[k].dtype and np.array_equal(rows, levels[k]), k
    monkeypatch.setattr(t, "build_tiles", lambda *a: pytest.fail("took the scalar proof"))
    t.prove_disjoint(K)


@pytest.mark.parametrize(
    "t,K,width,itemsize", [(ZnTiling(3), 5, 3, 2), (LamplighterTiling(2), 3, 17, 1)], ids=["zn:3", "ll:2"]
)
def test_prove_disjoint_holds_the_last_tile_and_its_keys_alone(t, K, width, itemsize, monkeypatch):
    # T_K's narrow rows and one int64 key per row, plus blocks of ROW_BLOCK
    # rows; the full-width int64 level and its key temporaries took 13 and 168 MB
    monkeypatch.setattr(t, "build_tiles", lambda *a: pytest.fail("took the scalar proof"))
    tracemalloc.start()
    try:
        t.prove_disjoint(K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < t.tile_size(K) * (width * itemsize + 8) + (2 << 20)


def test_a_bound_too_small_for_the_rows_only_sends_the_proof_to_build_tiles(monkeypatch):
    t = ZnTiling(1)  # T_k = [0, 2^(k+1)): from k = 7 the int8 rows would wrap
    monkeypatch.setattr(t, "int64_bound", lambda gamma, k: 1)
    products = _spy_on_products(t, monkeypatch)
    real, calls = t.build_tiles, []
    monkeypatch.setattr(t, "build_tiles", lambda K, budget: calls.append(K) or real(K, budget))
    # the range check stops the rows at T_6, the last level int8 holds: a
    # stored row always equals its int64 row, so the sampled diameter can gather it
    levels = list(t._tile_arrays(8))
    assert len(levels) == 7 and all(rows.dtype == np.int8 for rows in levels)
    assert np.array_equal(levels[-1][:, 0], np.arange(128))
    assert set(products) == {(np.dtype(np.int64), np.dtype(np.int64))}
    assert [len(rows) for rows in t.prove_disjoint(6)] == [2 << k for k in range(7)] and calls == []
    assert t.prove_disjoint(7) is None and calls == [7]
    # a real collision still raises the build_tiles witness
    c = Collides([2, 2])
    monkeypatch.setattr(c, "int64_bound", lambda gamma, k: 0)
    with pytest.raises(TilingViolation) as exc:
        c.prove_disjoint(1)
    assert (exc.value.k, exc.value.witness) == (1, (((1,), (0,)), ((0,), (1,)), (1,)))


def test_lamplighter_t3_rows_follow_build_tiles_order(monkeypatch):
    # ll:2's T_3 has 2^20 rows, too many to enumerate as tuples here: row p is
    # letter p // |T_2| grown on row p % |T_2|, the order build_tiles uses
    t = LamplighterTiling(2)
    *_, below, rows = t._tile_arrays(3)
    tile = t.build_tiles(2)[2]
    assert len(rows) == t.tile_size(3) and [_element(t, r) for r in below] == tile
    rng = random.Random(3)
    for p in [0, len(rows) - 1, *(rng.randrange(len(rows)) for _ in range(3000))]:
        a, b = divmod(p, len(tile))
        assert _element(t, rows[p]) == t.grow(tile[b], t.letter(3, a)), p
    monkeypatch.setattr(t, "build_tiles", lambda *a: pytest.fail("took the scalar proof"))
    t.prove_disjoint(3)


@pytest.mark.parametrize("m", [2, 3])
def test_lamplighter_row_hooks_match_the_scalar_letters_and_membership(m):
    t = LamplighterTiling(m)
    rng = random.Random(m)
    for k in range(4):
        count = t.letter_count(k)
        idx = np.array(sorted(rng.sample(range(count), min(count, 2000))), dtype=np.int64)
        letters = t.letter_array(k, idx)
        assert letters.shape[1] == 1 + (2 << k)
        assert [_element(t, f) for f in letters] == [t.letter(k, int(i)) for i in idx], k
        # rows on a wider window, cursors in and out of [0, L), lamps past L
        rows = np.zeros((600, 1 + (4 << k)), dtype=np.int64)
        rows[:, 0] = [rng.randint(-3, (4 << k) + 3) for _ in rows]
        for row in rows:
            for _ in range(rng.randrange(3)):
                row[1 + rng.randrange(row.size - 1)] = rng.randrange(1, m)
        got = t.contains_array(rows, k)
        assert list(got) == [t.contains(_element(t, r), k) for r in rows], k
        assert got.any() and not got.all()
    # the gate: the identity alone, up to k = 5, where the letter count is
    # still below 2^62 (2^33 for ll:2, 2 * 3^32 for ll:3)
    assert t.int64_bound(((), 1), 0) is None and t.int64_bound(((), 0), 0) is not None
    assert t.proven_bound(t.group.identity, 5) is not None
    assert t.proven_bound(t.group.identity, 6) is None


@pytest.mark.parametrize("t", [t for t in BUILTINS if t not in ARRAY_HOOKED], ids=lambda t: t.name)
def test_prove_disjoint_without_array_hooks_runs_build_tiles(t, monkeypatch):
    assert list(t._tile_arrays(2)) == []
    calls = []
    monkeypatch.setattr(t, "build_tiles", lambda K, budget: calls.append((K, budget)))
    t.prove_disjoint(2, 777)
    assert calls == [(2, 777)]


def test_array_proof_collision_raises_the_build_tiles_witness():
    t = Collides([2, 2])
    rows = list(t._tile_arrays(1))[1]
    assert not _distinct_rows(rows)
    with pytest.raises(TilingViolation) as scalar:
        t.build_tiles(1)
    with pytest.raises(TilingViolation) as arrays:
        t.prove_disjoint(1)
    assert (arrays.value.k, arrays.value.witness) == (scalar.value.k, scalar.value.witness)
    # a collision inside F_0 itself
    with pytest.raises(TilingViolation) as exc:
        RepeatsALetter([2, 2]).prove_disjoint(1)
    assert (exc.value.k, exc.value.witness) == (0, (0, 1, (0,)))


def test_prove_disjoint_errors_match_build_tiles():
    t = ZnTiling(2)
    with pytest.raises(UsageError):
        t.prove_disjoint(-1)
    with pytest.raises(ResourceExhausted, match="exceeds budget 15"):
        t.prove_disjoint(1, budget=15)


def test_array_proof_stops_where_int64_is_unproved(monkeypatch):
    t = ZnTiling(2)
    real = t.int64_bound
    monkeypatch.setattr(t, "int64_bound", lambda gamma, k: INT64_SAFE if k == 2 else real(gamma, k))
    assert len(list(t._tile_arrays(3))) == 2
    calls = []
    monkeypatch.setattr(t, "build_tiles", lambda K, budget: calls.append(K))
    t.prove_disjoint(3)
    assert calls == [3]


def test_distinct_rows_proves_only_what_the_packed_key_can_hold():
    rng = np.random.default_rng(5)
    rows = np.unique(rng.integers(-3, 4, size=(400, 3)), axis=0)
    rng.shuffle(rows)
    assert _distinct_rows(rows)
    assert not _distinct_rows(np.concatenate([rows, rows[7:8]]))
    # the radices are the observed column ranges: 2^31 * 2^31 reaches 2^62,
    # undecided and so not distinct; 2^31 * (2^31 - 1) does not
    assert not _distinct_rows(np.array([[0, 0], [(1 << 31) - 1, (1 << 31) - 1]]))
    assert _distinct_rows(np.array([[0, 0], [(1 << 31) - 1, (1 << 31) - 2]]))
    # an offset the old [-bound, bound] box could not hold
    assert _distinct_rows(rows + (1 << 61))
    # key spans just below and just above 2^31, int32 and int64 keys: each
    # low is subtracted before its column joins the key, which never leaves
    # [0, span) however far the columns sit from 0
    for a, b in ((1 << 16, (1 << 15) - 1), (1 << 16, (1 << 15) + 1), (2, (1 << 30) - 1), (2, (1 << 30) + 1)):
        corners = np.array([[0, 0], [a - 1, b - 1], [a - 1, 0], [0, b - 1], [a // 2, b // 3]]) + (-(1 << 50), 1 << 40)
        assert _distinct_rows(corners), (a, b)
        assert not _distinct_rows(np.concatenate([corners, corners[1:2]])), (a, b)


def test_distinct_rows_subtracts_each_low_in_int64():
    # column 1 spans [-100, 100], radix 201: 28 - (-100) = 128 leaves int8, and
    # wrapped to -128 it would pack (1, 28) onto the key of (0, -27)
    rows = np.array([[1, 28], [0, -27], [0, -100], [0, 100]], dtype=np.int8)
    assert _distinct_rows(rows)
    assert not _distinct_rows(np.concatenate([rows, rows[:1]]))
    rng = np.random.default_rng(8)
    for dtype in (np.int8, np.int16):
        info = np.iinfo(dtype)
        wide = np.unique(rng.integers(info.min, info.max + 1, size=(3000, 2)), axis=0)
        assert _distinct_rows(wide.astype(dtype))
        assert not _distinct_rows(np.concatenate([wide, wide[-1:]]).astype(dtype))


_INT64 = st.integers(-4, 4) | st.integers(-(1 << 63), (1 << 63) - 1)


@given(st.lists(st.tuples(_INT64, _INT64, _INT64), min_size=1, max_size=30), st.data())
@settings(max_examples=200, deadline=None)
def test_distinct_rows_always_catches_a_duplicated_row(entries, data):
    rows = np.array(entries, dtype=np.int64)
    twin = data.draw(st.integers(0, len(rows) - 1))
    at = data.draw(st.integers(0, len(rows)))
    assert not _distinct_rows(np.insert(rows, at, rows[twin], axis=0))


def _sampled_diameter_per_point(t, k, samples, seed):
    """Oracle: one scalar draw per letter index; pair i joins counters 2i and 2i + 1."""
    mul, inv = t.group.multiply, t.group.inverse

    def point(counter):
        return t.prefix_product([t.random_letter_index(j, seed, counter) for j in range(k + 1)])

    return max(t.group.word_length(mul(inv(point(2 * i)), point(2 * i + 1))) for i in range(samples))


_DIAMETER_CASES = [
    ("ll:2", 2),  # power-of-two letter counts
    ("ll:2", 5),  # the last level on rows: 2^33 letters, 64 lamp columns
    ("ll:2", 6),  # 2^65 letters at level 6: multi-word draws, per point
    ("ll:3", 3),  # rejection sampling
    ("heis", 2),
    ("heis", 3),
    ("zn:2", 6),
    ("zn:3", 3),
    ("zmatch:ll:2", 3),
    ("cyclic:3", 2),  # one letter past level 0, no row hooks
]
_PER_POINT_CASES = {("ll:2", 6), ("cyclic:3", 2)}


@pytest.mark.parametrize("draws", [6, 2 * _rng.BLOCK])  # letter-index draws per engine block, two per pair
@pytest.mark.parametrize("spec,k", _DIAMETER_CASES, ids=[f"{s}-k{k}" for s, k in _DIAMETER_CASES])
def test_sampled_diameter_matches_per_point_draws(monkeypatch, spec, k, draws):
    monkeypatch.setattr(_rng, "BLOCK", draws // 2)  # 6: 7 and 40 pairs span several blocks
    t = builtin(spec)
    if (spec, k) not in _PER_POINT_CASES:
        monkeypatch.setattr(t, "prefix_product", lambda *a: pytest.fail("left the rows"))
    for samples, seed in ((1, 0), (7, 11), (40, -3)):
        rep = t.tile_diameter(k, mode="sampled", samples=samples, seed=seed)
        assert rep.value == _sampled_diameter_per_point(builtin(spec), k, samples, seed), (samples, seed)


_WALKS = [("heis", 3, 1), ("zn:2", 5, 2), ("ll:2", 3, 1), ("ll:2", 6, 2), ("zmatch:ll:2", 3, 2), ("zn:3", 2, 2)]


@pytest.mark.parametrize("spec,K,fits", _WALKS, ids=[f"{s}-K{K}-fits{f}" for s, K, f in _WALKS])
def test_sampled_walk_gathers_the_proved_rows_then_grows(monkeypatch, spec, K, fits):
    t = builtin(spec)
    levels = t.prove_disjoint(fits)
    assert [len(rows) for rows in levels] == [t.tile_size(k) for k in range(fits + 1)]
    # one walk: gathers on the proved levels, one grow_array per block on each
    # later level the gate admits (ll:2 up to k = 5), per point after that
    on_rows = next((k for k in range(K + 1) if t.proven_bound(t.group.identity, k) is None), K + 1)
    real, grown = t.grow_array, []
    monkeypatch.setattr(t, "grow_array", lambda rows, f: grown.append(len(rows)) or real(rows, f))
    monkeypatch.setattr(_rng, "BLOCK", 7)  # 40 pairs in 6 blocks
    for samples, seed in ((1, 0), (40, -3)):
        grown.clear()
        got = t.sampled_diameters(K, samples, seed, levels)
        assert len(grown) == (on_rows - fits - 1) * -(-samples // 7)
        assert got == t.sampled_diameters(K, samples, seed)  # grown from level 0
        assert got == [_sampled_diameter_per_point(builtin(spec), k, samples, seed) for k in range(K + 1)]


def test_exact_diameter_builds_its_tile_under_the_budget():
    with pytest.raises(ResourceExhausted, match="exceeds budget 10"):
        HeisTiling().tile_diameter(0, mode="exact", budget=10)
    assert HeisTiling().tile_diameter(0, mode="exact", budget=16).value == 8
    # the box tilings' closed form builds nothing
    assert ZnTiling(2).tile_diameter(4, mode="exact", budget=1).value == 2 * 31


# -- the exact diameter from each tiling's structure -----------------------

# the scalar quotient loop's values; heis's 73 at k = 3 is the value the
# all-pairs scan over T_3's int64 rows gave
_EXACT_DIAMETERS = {"heis": [8, 17, 35, 73], "ll:2": [4, 10, 22], "ll:3": [4, 10]}
_EXACT_CASES = [(spec, k, d) for spec, ds in _EXACT_DIAMETERS.items() for k, d in enumerate(ds)]


def _loop_diameter(spec, k):
    """Oracle: the scalar loop over every quotient of build_tiles's tile."""
    return TilingSequence._exact_diameter(builtin(spec), k, DEFAULT_TILE_BUDGET)


@pytest.mark.parametrize("spec,k,recorded", _EXACT_CASES, ids=[f"{s}-k{k}" for s, k, _ in _EXACT_CASES])
def test_exact_diameter_on_rows_matches_the_quotient_loop(monkeypatch, spec, k, recorded):
    t = builtin(spec)
    real = t.build_tiles
    # build_tiles makes only heis's T_0, for the live oracle; no diameter enumerates T_k
    monkeypatch.setattr(t, "build_tiles", lambda K, budget: real(K, budget) if K == 0 else pytest.fail("built T_k"))
    assert t.tile_diameter(k, mode="exact").value == recorded
    if t.tile_size(k) <= 400:  # the loop is quadratic: heis T_2 has 4,096 elements, ll:2 T_2 2,048
        assert _loop_diameter(spec, k) == recorded


def test_heis_column_ends_on_rows_match_the_quotient_loop(monkeypatch):
    t = HeisTiling()
    for k in range(4):
        L = 1 << (k + 1)
        floors = [(x, y, t._cross(x, y)) for x in range(L) for y in range(L)]
        tops = [(x, y, z + L * L - 1) for x, y, z in floors]
        assert t._column_end_diameter(k) == t._largest_quotient(floors, tops) == _EXACT_DIAMETERS["heis"][k], k
    # a level the gate refuses runs the scalar loop
    monkeypatch.setattr(t, "int64_bound", lambda gamma, k: INT64_SAFE)
    monkeypatch.setattr(t.group, "distance_array", lambda *a: pytest.fail("read rows past the gate"))
    assert t._column_end_diameter(2) == 35


def test_heis_exact_diameter_reuses_its_proof(monkeypatch):
    t = HeisTiling()
    proofs, builds = [], []
    real_arrays, real_build = t._tile_arrays, t.build_tiles
    monkeypatch.setattr(t, "_tile_arrays", lambda K: proofs.append(K) or real_arrays(K))
    monkeypatch.setattr(t, "build_tiles", lambda K, budget: builds.append(K) or real_build(K, budget))
    t.prove_disjoint(2)
    assert [t.tile_diameter(k, mode="exact").value for k in range(4)] == _EXACT_DIAMETERS["heis"]
    # T_0..T_2 were proved once, T_3 once more, and the live T_0 check built T_0 once
    assert proofs == [2, 3] and builds == [0]
    # a proved level still honours a smaller budget
    with pytest.raises(ResourceExhausted, match=r"\|T_2\| = 4096 exceeds budget 10"):
        t.tile_diameter(2, mode="exact", budget=10)
    with pytest.raises(UsageError):
        t.tile_diameter(-1, mode="exact")


def test_heisenberg_length_is_quasi_convex_in_z():
    # the premise of heis's column ends: along z, |(x, y, z)| falls, then rises
    length = HeisTiling().group.word_length
    for x in range(-9, 10):
        for y in range(-9, 10):
            lengths = [length((x, y, z)) for z in range(-300, 301)]
            rises = [b > a for a, b in zip(lengths, lengths[1:]) if b != a]
            assert rises == sorted(rises), (x, y)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_lamplighter_diameter_closed_form_matches_the_quotient_loop(m):
    t = LamplighterTiling(m)
    for k in itertools.takewhile(lambda k: t.tile_size(k) <= 5000, itertools.count()):
        assert t.tile_diameter(k, mode="exact").value == _loop_diameter(f"ll:{m}", k), k


def test_exact_diameter_on_rows_checks_t0_against_the_quotient_loop(monkeypatch):
    # a cross term a column height too high at (1, 1) breaks the column ends on T_0 itself
    t = HeisTiling()
    monkeypatch.setattr(t, "_cross", lambda x, y: 4 * x * y)
    with pytest.raises(RuntimeError, match="diameter 11 on T_0 where the quotient loop gives 8"):
        t.tile_diameter(1, mode="exact")


def test_exact_diameter_without_row_hooks_runs_the_quotient_loop(monkeypatch):
    t = builtin("cyclic:3")
    real, calls = t.build_tiles, []
    monkeypatch.setattr(t, "build_tiles", lambda K, budget: calls.append(K) or real(K, budget))
    assert t.tile_diameter(2, mode="exact").value == 1
    assert calls == [2]


class HeisRepeatsALetter(HeisTiling):
    """Letter 1 of F_1 is letter 0 again: T_1 = T_0 F_1 collides, as rows and as tuples."""

    def letter(self, k, idx):
        return super().letter(k, 0 if k == 1 and idx == 1 else idx)

    def letter_array(self, k, idx):
        return super().letter_array(k, np.where(idx == 1, 0, idx) if k == 1 else idx)


def test_exact_diameter_collision_raises_the_build_tiles_witness():
    t = HeisRepeatsALetter()
    assert t.tile_diameter(0, mode="exact").value == 8
    with pytest.raises(TilingViolation) as proof:
        t.prove_disjoint(1)
    with pytest.raises(TilingViolation) as diameter:
        t.tile_diameter(1, mode="exact")
    assert proof.value.k == 1
    assert (diameter.value.k, diameter.value.witness) == (proof.value.k, proof.value.witness)
