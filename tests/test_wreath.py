import random

import pytest

from oelab.coupling import IntegrabilityGauge, MatchedCoupling, mc_integrability
from oelab.errors import UsageError
from oelab.tilings import FiniteCyclicTiling, ZnGroupedTiling, ZnTiling
from oelab.wreath import WreathCoupling, WreathElement, check_move_identities


@pytest.fixture(scope="module")
def W():
    base = MatchedCoupling(ZnTiling(2), ZnGroupedTiling(1, 2), max_depth=26)
    lamp = MatchedCoupling(FiniteCyclicTiling(3), FiniteCyclicTiling(3), max_depth=4)
    return WreathCoupling(base, lamp)


def compose(W, side, wa, wb):
    # (f, g)(f', g') = (f * (g . f'), g g') with (g . f')(h) = f'(g^-1 h)
    bgroup = W.base_group(side)
    lgroup = W.lamp_group(side)
    acc = dict(wa.lamps)
    for h, lam in wb.lamps:
        key = bgroup.multiply(wa.gamma, h)
        acc[key] = lgroup.multiply(acc.get(key, lgroup.identity), lam)
    lamps = {k: v for k, v in acc.items() if v != lgroup.identity}
    return WreathElement.make(bgroup, lgroup, lamps, bgroup.multiply(wa.gamma, wb.gamma))


def rand_elt(W, side, rng):
    bgroup = W.base_group(side)
    lgroup = W.lamp_group(side)
    n = bgroup.n
    lamps = {
        tuple(rng.randrange(-2, 3) for _ in range(n)): rng.randrange(0, 3)
        for _ in range(rng.randrange(0, 3))
    }
    gamma = tuple(rng.randrange(-2, 3) for _ in range(n))
    return WreathElement.make(bgroup, lgroup, lamps, gamma)


def lamp_coords(W, st, top):
    return W.lamp.left.coordinates(st, top)


def test_identity_move_fixes_point(W):
    P = W.point(1)
    Q = W.act(1, WreathElement.pure_base(W.base_group(1).identity), P)
    assert Q.base == P.base and Q.lamps == P.lamps and Q.anchor == P.anchor


def test_pure_base_move_reindexes_without_touching_lamps(W):
    bg1 = W.base_group(1)
    P = W.point(2)
    for key in [bg1.identity, (2, -1), (0, 3)]:
        P.lamp_state(W, key)
    w = WreathElement.pure_base((1, 0))
    Q = W.act(1, w, P)
    ginv = bg1.inverse((1, 0))
    assert set(Q.lamps) == {bg1.multiply(k, ginv) for k in P.lamps}
    assert sorted(map(repr, Q.lamps.values())) == sorted(map(repr, P.lamps.values()))


def test_pure_lamp_move_touches_only_base_lamp(W):
    bg1 = W.base_group(1)
    P = W.point(3)
    before = P.lamp_state(W, bg1.identity)
    other = P.lamp_state(W, (1, 1))
    Q = W.act(1, WreathElement.pure_lamp(bg1, 2), P)
    assert Q.lamps[(1, 1)] == other
    assert Q.lamps[bg1.identity] != before


def test_action_law_both_sides(W):
    rng = random.Random(5)
    base = W.base
    for trial in range(1000):
        side = rng.choice([1, 2])
        wa, wb = rand_elt(W, side, rng), rand_elt(W, side, rng)
        P = W.point(900 + trial)
        Pab = W.act(side, wa, W.act(side, wb, P))
        Pc = W.act(side, compose(W, side, wa, wb), P)
        top = max(len(Pab.base.prefix), len(Pc.base.prefix), 1)
        assert base.left.coordinates(Pab.base, top) == base.left.coordinates(Pc.base, top)
        assert Pab.anchor == Pc.anchor
        for key in set(Pab.lamps) | set(Pc.lamps):
            a = Pab.lamps.get(key) or Pab.lamp_state(W, key)
            b = Pc.lamps.get(key) or Pc.lamp_state(W, key)
            t = max(len(a.prefix), len(b.prefix), 1)
            assert lamp_coords(W, a, t) == lamp_coords(W, b, t), (side, key)


def test_orbit_preservation_finite_support(W):
    rng = random.Random(6)
    for trial in range(50):
        side = rng.choice([1, 2])
        w = rand_elt(W, side, rng)
        P = W.point(500 + trial)
        realized_before = dict(P.lamps)
        Q = W.act(side, w, P)
        # finitely many realized lamps, and touched ones bounded by supp f
        changed = 0
        for key, st in Q.lamps.items():
            pre = realized_before.get(_prekey(W, key, P, Q))
            if pre is not None and pre != st:
                changed += 1
        assert changed <= len(w.lamps)
        assert len(Q.lamps) <= len(realized_before) + len(w.lamps)


def _prekey(W, newkey, P, Q):
    grp = W.base_group(1)
    # newkey * Q.anchor = prekey * P.anchor as orbit markers
    return grp.multiply(grp.multiply(newkey, Q.anchor), grp.inverse(P.anchor))


def test_move_identities_sampled(W):
    bg1, bg2 = W.base_group(1), W.base_group(2)
    for seed in range(40):
        P = W.point(100 + seed)
        for gen in [(1, 0), (0, 1), (-1, 0)]:
            rep = check_move_identities(W, 1, WreathElement.pure_base(gen), P)
            assert rep.matches and rep.kind == "pure-base"
        for lam in (1, 2):
            rep = check_move_identities(W, 1, WreathElement.pure_lamp(bg1, lam), P)
            assert rep.matches and rep.kind == "pure-lamp"
        Q = W.point(700 + seed)
        assert check_move_identities(W, 2, WreathElement.pure_base((4,)), Q).matches
        assert check_move_identities(W, 2, WreathElement.pure_lamp(bg2, 1), Q).matches
        assert check_move_identities(
            W, 1, WreathElement.pure_base(bg1.identity), P
        ).kind == "identity"
    with pytest.raises(UsageError):
        check_move_identities(
            W, 1, WreathElement.make(bg1, W.lamp_group(1), {(1, 0): 1}, (1, 0)), W.point(0)
        )


def test_pure_base_gauge_matches_base_coupling(W):
    # pure-base wreath moves cost exactly the base coupling distance, so any
    # gauge statistic of those moves equals the base coupling's
    gauge = IntegrabilityGauge.power(0.4)
    base_rep = mc_integrability(W.base, "left", (1, 0), gauge, 200, 11)
    total = 0.0
    for i in range(200):
        from oelab._rng import derive
        from oelab.coupling import CouplingPoint

        P = W.point(derive(11, i))
        P.base = CouplingPoint((), derive(11, i))
        moved = W.transferred_move(1, WreathElement.pure_base((1, 0)), P)
        assert not moved.lamps
        total += gauge(W.base_group(2).word_length(moved.gamma))
    assert total / 200 == pytest.approx(base_rep.estimate, abs=1e-12)


def test_wreath_word_lengths(W):
    bg2 = W.base_group(2)
    lg2 = W.lamp_group(2)
    assert W.wreath_word_length(2, WreathElement.pure_base((5,))) == 5
    assert W.wreath_word_length(2, WreathElement.pure_lamp(bg2, 1)) == 1
    w = WreathElement.make(bg2, lg2, {(3,): 1, (-1,): 2}, (2,))
    # switches 1 + 1, travel: sweep left to -1 then right to 3, end at 2
    assert W.wreath_word_length(2, w) == 8
    bg1 = W.base_group(1)
    bounds = W.wreath_word_length(1, WreathElement.make(bg1, W.lamp_group(1), {(1, 1): 1, (-1, 0): 1}, (0, 0)))
    assert isinstance(bounds, tuple) and bounds[0] <= bounds[1]
    # lamplighter ground truth: base Z with Z/2 lamps is the lamplighter group
    from oelab.groups import Lamplighter

    llw = WreathCoupling(
        MatchedCoupling(ZnTiling(1), ZnTiling(1), max_depth=10),
        MatchedCoupling(FiniteCyclicTiling(2), FiniteCyclicTiling(2), max_depth=4),
    )
    ll = Lamplighter(2)
    rng = random.Random(12)
    for _ in range(100):
        lamps = {
            (p,): 1 for p in rng.sample(range(-3, 4), rng.randrange(0, 4))
        }
        gamma = (rng.randrange(-3, 4),)
        w = WreathElement.make(llw.base_group(1), llw.lamp_group(1), lamps, gamma)
        expect = ll.word_length(ll.make({p[0]: v for p, v in lamps.items()}, gamma[0]))
        assert llw.wreath_word_length(1, w) == expect, (lamps, gamma)


@pytest.mark.parametrize("base", ["ll:2,zmatch:ll:2", "heis,zn:4", "cyclic:5,cyclic:5"])
def test_wreath_word_length_uses_the_base_metric(base):
    # off Z bases each leg of the lamp tour costs |a^-1 b| in the base group,
    # so a lamp lit at gamma itself costs its switch plus |gamma| exactly
    # (heis:0,0,1 has word length 4, not its coordinate sum 1)
    from oelab.tilings import builtin

    left, _, right = base.partition(",")
    W = WreathCoupling(
        MatchedCoupling(builtin(left), builtin(right)),
        MatchedCoupling(FiniteCyclicTiling(5), FiniteCyclicTiling(5)),
    )
    bg, lg = W.base_group(1), W.lamp_group(1)
    for g in bg.ball(2):
        for lam in lg.generators:
            w = WreathElement.make(bg, lg, {g: lam}, g)
            assert W.wreath_word_length(1, w) == lg.word_length(lam) + bg.word_length(g), (g, lam)
