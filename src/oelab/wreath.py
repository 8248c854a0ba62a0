"""Wreath products of couplings: lamps over a base orbit equivalence.

Given a base coupling (two groups sharing orbits on X) and a lamp coupling
(two groups sharing orbits on L), the wreath groups Lambda_i wr Gamma_i act
on points (x, (l_y)) where y ranges over the orbit of x and each l_y is a
lamp-coupling point.  Lamps are keyed by the side-1 base group through the
orbit cocycle: key g stands for the orbit point g . x relative to the
current base point, so a base move by gamma renames key g to g gamma^-1
(side 1) or by the transferred element (side 2), and

    (f, gamma) . (x, l):   base moves by gamma, lamp at key g is acted on
                           by f(g^-1) after renaming.

Only touched lamps are realized; a lamp's initial state is derived from
(lamp_seed, canonical key), so re-reading is stable and points stay finitely
representable.
"""

from __future__ import annotations

from dataclasses import dataclass
from ._rng import derive, mix64
from .coupling import CouplingPoint, MatchedCoupling
from .errors import UsageError
from .groups import ZN, line_tour


@dataclass(frozen=True)
class WreathElement:
    """(f, gamma) with f a finitely supported map base-element -> lamp-element."""

    lamps: tuple  # tuple of (base element, lamp element), canonically sorted
    gamma: object

    @classmethod
    def make(cls, base_group, lamp_group, lamps: dict, gamma) -> "WreathElement":
        clean = []
        for g, lam in lamps.items():
            base_group.check_element(g)
            lamp_group.check_element(lam)
            if lam != lamp_group.identity:
                clean.append((g, lam))
        return cls(tuple(sorted(clean, key=repr)), gamma)

    @classmethod
    def pure_base(cls, gamma) -> "WreathElement":
        return cls((), gamma)

    @classmethod
    def pure_lamp(cls, base_group, lam) -> "WreathElement":
        return cls(((base_group.identity, lam),), base_group.identity)


class WreathPoint:
    """Base coupling point plus lazily realized lamp states, keyed by side 1.

    Keys are relative to the current base point and get renamed by base
    moves; ``anchor`` accumulates the side-1 translates of those moves so a
    lamp's initial state depends only on the orbit point it sits at (key
    times anchor), never on the path of moves that reached it.
    """

    __slots__ = ("base", "lamps", "lamp_seed", "anchor")

    def __init__(self, base: CouplingPoint, lamp_seed: int, lamps: dict, anchor):
        self.base = base
        self.lamp_seed = lamp_seed
        self.lamps = lamps
        self.anchor = anchor

    def lamp_state(self, coupling: "WreathCoupling", key) -> CouplingPoint:
        st = self.lamps.get(key)
        if st is None:
            grp = coupling.base_group(1)
            tag = grp.format_element(grp.multiply(key, self.anchor))
            h = 0
            for ch in tag:
                h = mix64(h ^ ord(ch))
            st = CouplingPoint((), derive(self.lamp_seed, h))
            self.lamps[key] = st
        return st


class WreathCoupling:
    """Couples Lambda_1 wr Gamma_1 with Lambda_2 wr Gamma_2 over matched couplings."""

    def __init__(self, base: MatchedCoupling, lamp: MatchedCoupling):
        self.base = base
        self.lamp = lamp

    def base_group(self, side: int):
        return (self.base.left if side == 1 else self.base.right).group

    def lamp_group(self, side: int):
        return (self.lamp.left if side == 1 else self.lamp.right).group

    def _side_name(self, side: int) -> str:
        if side not in (1, 2):
            raise UsageError("side must be 1 or 2")
        return "left" if side == 1 else "right"

    def point(self, seed: int) -> WreathPoint:
        return WreathPoint(
            CouplingPoint((), derive(seed, 0)), derive(seed, 1), {}, self.base_group(1).identity
        )

    def act(self, side: int, w: WreathElement, P: WreathPoint) -> WreathPoint:
        """(f, gamma) . (x, l) with lamp re-indexing through the orbit cocycle."""
        sname = self._side_name(side)
        key_group = self.base_group(1)
        gamma = w.gamma
        # rename keys: y = g . x keeps its lamp, its key relative to the new
        # base point gamma.x becomes g * (side-1 translate of gamma)^-1
        anchor, newbase, renamed = P.anchor, P.base, dict(P.lamps)
        if gamma != self.base_group(side).identity:
            if side == 1:
                newbase, _ = self.base.act(sname, gamma, P.base)
                translate = gamma
            else:
                translate, newbase, _ = self.base.transfer_cocycle(sname, gamma, P.base)
            shift_inv = key_group.inverse(translate)
            anchor = key_group.multiply(translate, anchor)
            renamed = {key_group.multiply(key, shift_inv): st for key, st in P.lamps.items()}
        out = WreathPoint(newbase, P.lamp_seed, renamed, anchor)
        # lamp actions: value f(h) acts on the lamp whose key is h^-1
        for h, lam in w.lamps:
            if side == 1:
                key = key_group.inverse(h)
            else:
                # the side-2 point h . (gamma.x) has side-1 key = transfer at gamma.x
                hinv = self.base_group(2).inverse(h)
                key, _, _ = self.base.transfer_cocycle("right", hinv, newbase)
            st = out.lamp_state(self, key)
            newst, _ = self.lamp.act(sname, lam, st)
            out.lamps[key] = newst
        return out

    def transferred_move(self, side: int, w: WreathElement, P: WreathPoint) -> WreathElement:
        """The partner-side wreath element carrying P to (w . P).

        Reconstructed from realized differences: the base cocycle plus one
        lamp cocycle per touched lamp (keys with untouched states drop out).
        """
        sname = self._side_name(side)
        other = 2 if side == 1 else 1
        key_group = self.base_group(1)
        Q = self.act(side, w, P)
        if w.gamma == self.base_group(side).identity:
            gamma2 = self.base_group(other).identity
            translate = key_group.identity
        else:
            # the partner base element and the side-1 translate of the move
            gamma2, _, _ = self.base.transfer_cocycle(sname, w.gamma, P.base)
            translate = w.gamma if side == 1 else gamma2
        # act renamed every realized key g of P to g translate^-1 in Q
        lamp_moves = {}
        for newkey, after in Q.lamps.items():
            before = P.lamp_state(self, key_group.multiply(newkey, translate))
            if after != before:
                h = self._partner_address(other, newkey, Q)
                lamp_moves[h] = self._lamp_cocycle(side, before, after)
        return WreathElement.make(
            self.base_group(other), self.lamp_group(other), lamp_moves, gamma2
        )

    def _lamp_cocycle(self, side: int, before: CouplingPoint, after: CouplingPoint):
        """Partner lamp element carrying before to after (both realized)."""
        top = max(len(before.prefix), len(after.prefix), 1) - 1
        return self.lamp.partner(self._side_name(side)).carrier(before, after, top)

    def _partner_address(self, other: int, key, Q: WreathPoint):
        """Side-`other` element h with h . (base of Q) = key . (base of Q), inverted.

        The wreath element addresses the lamp at orbit point y via f(h) where
        h^-1 . base = y; with y = key . base (side-1 key), h is the inverse of
        the side-other translate of key at the base point.
        """
        if other == 1:
            return self.base_group(1).inverse(key)
        t, _, _ = self.base.transfer_cocycle("left", key, Q.base)
        return self.base_group(2).inverse(t)

    def wreath_word_length(self, side: int, w: WreathElement) -> int | tuple[int, int]:
        """Word length in S_Lambda u S_Gamma through the standard embeddings.

        Exact for pure-base and pure-lamp elements and for base = Z (the
        lamplighter traversal); otherwise returns (lower, upper) bounds on
        the tour from e through every lamp to gamma, since that travel
        subproblem is a TSP.  Each leg a -> b costs the base word length
        |a^-1 b|.
        """
        bgroup = self.base_group(side)
        lgroup = self.lamp_group(side)
        if not w.lamps:
            return bgroup.word_length(w.gamma)
        switch = sum(lgroup.word_length(lam) for _, lam in w.lamps)
        positions = [g for g, _ in w.lamps]
        if isinstance(bgroup, ZN) and bgroup.n == 1:
            return switch + line_tour((g[0] for g in positions), w.gamma[0])

        def dist(a, b):
            return bgroup.word_length(bgroup.multiply(bgroup.inverse(a), b))

        lower = switch + max(
            [dist(bgroup.identity, g) for g in positions]
            + [dist(g, w.gamma) for g in positions]
        )
        here = bgroup.identity
        upper = switch
        todo = list(positions)
        while todo:
            nxt = min(todo, key=lambda g: dist(here, g))
            upper += dist(here, nxt)
            todo.remove(nxt)
            here = nxt
        upper += dist(here, w.gamma)
        if lower == upper:
            return lower
        return (lower, upper)


@dataclass
class MoveDistanceReport:
    distance: int
    expected: int
    kind: str

    @property
    def matches(self) -> bool:
        return self.distance == self.expected


def check_move_identities(
    coupling: WreathCoupling, side: int, w: WreathElement, P: WreathPoint
) -> MoveDistanceReport:
    """Verify the two pure-move distance identities of the wreath coupling.

    Pure base move: the wreath distance of (e, gamma) equals the base
    coupling distance d(x, gamma.x).  Pure lamp move: the distance of
    (iota(lambda), e) equals the lamp coupling distance at the base point.
    """
    other = 2 if side == 1 else 1
    sname = "left" if side == 1 else "right"
    bgroup = coupling.base_group(side)
    moved = coupling.transferred_move(side, w, P)
    dist = coupling.wreath_word_length(other, moved)
    if isinstance(dist, tuple):
        raise UsageError("pure moves should have exact wreath lengths")
    if not w.lamps and w.gamma != bgroup.identity:
        gamma2, _, _ = coupling.base.transfer_cocycle(sname, w.gamma, P.base)
        expected = coupling.base_group(other).word_length(gamma2)
        kind = "pure-base"
    elif w.lamps and all(g == bgroup.identity for g, _ in w.lamps) and w.gamma == bgroup.identity:
        lam = w.lamps[0][1]
        st = P.lamp_state(coupling, coupling.base_group(1).identity)
        lam2, _, _ = coupling.lamp.transfer_cocycle(sname, lam, st)
        expected = coupling.lamp_group(other).word_length(lam2)
        kind = "pure-lamp"
    elif not w.lamps and w.gamma == bgroup.identity:
        expected = 0
        kind = "identity"
    else:
        raise UsageError("check_move_identities needs a pure base or pure lamp move")
    return MoveDistanceReport(distance=dist, expected=expected, kind=kind)
