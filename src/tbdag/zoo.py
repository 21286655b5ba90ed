"""Deterministic benchmark-game generators.

Families:

- ``kuhn``: n-player, r-rank Kuhn poker (ante 1, one bet of 1).
- ``leduc``: n-player Leduc hold'em with a raise cap per round, r ranks,
  s suits (raise of 2 pre-flop, 4 post-flop, ante 1).
- ``liars_dice``: n players, one d-sided die each.  Bids are
  (count, face) pairs ordered lexicographically; a bid must exceed the
  previous one and "liar" challenges it.  Faces are never wild; the
  challenged and challenging players exchange one unit.
- ``signaling_fig2``: the 23-node signaling gadget whose correlated team
  value is 0 (and whose uncorrelated value is -1/2).
- ``public_counterexample_fig8``: bottom-layer infosets chain six
  middle nodes into one public state even though only every other one
  is ever reachable together.
- ``inflation_counterexample_fig9``: the C-column guessing gadget where
  induced-component splitting stays polynomial but public-state
  splitting explodes, and no infoset is inflatable.
- ``worst_case``: the mini-game chain driving the belief-tree size
  lower bound (parameters k, b, d).

All generators are pure: the same spec yields the identical node
layout, so golden sizes and hashes are stable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from itertools import permutations, product
from typing import Iterable

from .game import (
    MAX,
    MIN,
    ExtensiveFormGame,
    GameValidationError,
    GameWriter,
    build_game,
)


@dataclass(frozen=True)
class ZooSpec:
    """Parameters selecting one benchmark instance.

    Only the fields meaningful for ``family`` are read; ``min_team``
    lists the player indices coordinated by the minimizing side.
    """

    family: str
    players: int = 0
    ranks: int = 0
    bets: int = 0
    suits: int = 0
    faces: int = 0
    k: int = 0
    branching: int = 0
    depth: int = 0
    columns: int = 0
    min_team: tuple[int, ...] = ()


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise GameValidationError(message)


def _teams(n: int, min_team: Iterable[int]) -> dict[str, list[int]]:
    min_team = tuple(min_team)
    _require(
        all(1 <= p <= n for p in min_team)
        and len(set(min_team)) == len(min_team),
        f"bad min team {min_team!r} for {n} players",
    )
    _require(
        0 < len(min_team) < n,
        "min team must be a nonempty proper subset of the players",
    )
    max_team = [p for p in range(1, n + 1) if p not in min_team]
    return {MAX: max_team, MIN: sorted(min_team)}


# ---------------------------------------------------------------------
# Poker-style betting games
# ---------------------------------------------------------------------


def _settle(
    contrib: tuple[float, ...],
    winners: tuple[int, ...],
    max_team: frozenset[int],
) -> float:
    """Net chips of the max side when ``winners`` split the pot."""
    pot = sum(contrib)
    payoff = [-c for c in contrib]
    for w in winners:
        payoff[w] += pot / len(winners)
    assert abs(sum(payoff)) < 1e-9, "pot settlement must be zero-sum"
    return sum(payoff[p - 1] for p in range(1, len(contrib) + 1) if p in max_team)


@dataclass(frozen=True)
class _BetState:
    """One betting round in progress (players are 0-based seats here)."""

    contrib: tuple[float, ...]
    active: frozenset[int]
    pending: tuple[int, ...]
    level: float
    raises_left: int
    raise_size: float

    def done(self) -> bool:
        return not self.pending or len(self.active) == 1


def _queue_after(seat: int, active: frozenset[int], n: int) -> tuple[int, ...]:
    order = [(seat + 1 + i) % n for i in range(n - 1)]
    return tuple(s for s in order if s in active)


def _bet_actions(st: _BetState) -> tuple[tuple[str, _BetState], ...]:
    seat = st.pending[0]
    rest = st.pending[1:]
    out: list[tuple[str, _BetState]] = []
    n = len(st.contrib)
    facing = st.contrib[seat] < st.level
    if not facing:
        out.append(
            ("check", _BetState(st.contrib, st.active, rest, st.level,
                                st.raises_left, st.raise_size))
        )
    else:
        contrib = list(st.contrib)
        contrib[seat] = st.level
        out.append(
            ("call", _BetState(tuple(contrib), st.active, rest, st.level,
                               st.raises_left, st.raise_size))
        )
    if st.raises_left > 0:
        label = "raise" if facing else "bet"
        contrib = list(st.contrib)
        level = st.level + st.raise_size
        contrib[seat] = level
        out.append(
            (label, _BetState(tuple(contrib), st.active,
                              _queue_after(seat, st.active, n), level,
                              st.raises_left - 1, st.raise_size))
        )
    if facing:
        active = st.active - {seat}
        out.append(
            ("fold", _BetState(st.contrib, active,
                               tuple(s for s in rest if s in active),
                               st.level, st.raises_left, st.raise_size))
        )
    return tuple(out)


def _gen_kuhn(spec: ZooSpec) -> ExtensiveFormGame:
    n, r = spec.players, spec.ranks
    _require(n >= 2, "kuhn needs at least 2 players")
    _require(r >= n, "kuhn needs at least as many ranks as players")
    teams = _teams(n, spec.min_team)
    max_team = frozenset(teams[MAX])
    w = GameWriter()

    def showdown(deal, st: _BetState) -> float:
        if len(st.active) == 1:
            winners = tuple(st.active)
        else:
            best = max(deal[s] for s in st.active)
            winners = tuple(s for s in sorted(st.active) if deal[s] == best)
        return _settle(st.contrib, winners, max_team)

    def betting(deal, history: tuple[str, ...], st: _BetState) -> int:
        if st.done():
            return w.add_terminal(showdown(deal, st))
        seat = st.pending[0]
        node, actions = w.add_player(seat + 1, (seat, deal[seat], history))
        for label, nxt in _bet_actions(st):
            child = betting(deal, history + (label,), nxt)
            actions.append((label, child))
        return node

    root, outcomes = w.add_chance()
    assert root == 0
    deals = sorted(permutations(range(r), n))
    start = _BetState(
        contrib=(1.0,) * n,
        active=frozenset(range(n)),
        pending=tuple(range(n)),
        level=1.0,
        raises_left=1,
        raise_size=1.0,
    )
    for deal in deals:
        child = betting(deal, (), start)
        outcomes.append(
            ("".join(str(c) for c in deal), child, 1 / len(deals))
        )
    return build_game(
        ["chance"] + [f"p{i}" for i in range(1, n + 1)], teams, 0, w
    )


def _gen_leduc(spec: ZooSpec) -> ExtensiveFormGame:
    n, cap, r, s = spec.players, spec.bets, spec.ranks, spec.suits
    _require(n >= 2, "leduc needs at least 2 players")
    _require(cap >= 1, "leduc needs a positive raise cap")
    _require(r >= 2 and s >= 1, "leduc needs r >= 2 ranks and s >= 1 suits")
    _require(r * s > n, "leduc deck too small for the players plus board")
    teams = _teams(n, spec.min_team)
    max_team = frozenset(teams[MAX])
    w = GameWriter()
    deck = [(rank, suit) for rank in range(r) for suit in range(s)]
    bet_actions = cache(_bet_actions)  # the same under every deal

    def card_label(card: tuple[int, int]) -> str:
        return f"{card[0]}.{card[1]}"

    @cache  # many deals share their ranks
    def showdown(score, st: _BetState) -> float:
        """``score[seat]``: (pairs the board, rank) of the seat's hand."""
        if len(st.active) == 1:
            winners = tuple(st.active)
        else:
            best = max(score[s_] for s_ in st.active)
            winners = tuple(
                s_ for s_ in sorted(st.active) if score[s_] == best
            )
        return _settle(st.contrib, winners, max_team)

    def round2(deal, score, history, st: _BetState) -> int:
        if st.done():
            return w.add_terminal(showdown(score, st))
        seat = st.pending[0]
        node, actions = w.add_player(seat + 1, (seat, deal[seat], history))
        for label, nxt in bet_actions(st):
            child = round2(deal, score, history + (label,), nxt)
            actions.append((label, child))
        return node

    def reveal_board(deal, history, st: _BetState) -> int:
        node, outcomes = w.add_chance()
        remaining = sorted(set(deck) - set(deal))
        for board in remaining:
            nxt = _BetState(
                contrib=st.contrib,
                active=st.active,
                pending=tuple(s_ for s_ in range(n) if s_ in st.active),
                level=st.level,
                raises_left=cap,
                raise_size=4.0,
            )
            score = tuple((int(c[0] == board[0]), c[0]) for c in deal)
            child = round2(
                deal, score, history + (card_label(board),), nxt
            )
            outcomes.append(
                (card_label(board), child, 1 / len(remaining))
            )
        return node

    def round1(deal, history, st: _BetState) -> int:
        if st.done():
            if len(st.active) == 1:
                return w.add_terminal(showdown(None, st))
            return reveal_board(deal, history, st)
        seat = st.pending[0]
        node, actions = w.add_player(seat + 1, (seat, deal[seat], history))
        for label, nxt in bet_actions(st):
            child = round1(deal, history + (label,), nxt)
            actions.append((label, child))
        return node

    root, outcomes = w.add_chance()
    assert root == 0
    deals = sorted(permutations(deck, n))
    start = _BetState(
        contrib=(1.0,) * n,
        active=frozenset(range(n)),
        pending=tuple(range(n)),
        level=1.0,
        raises_left=cap,
        raise_size=2.0,
    )
    for deal in deals:
        child = round1(deal, (), start)
        outcomes.append(
            ("|".join(card_label(c) for c in deal), child, 1 / len(deals))
        )
    return build_game(
        ["chance"] + [f"p{i}" for i in range(1, n + 1)], teams, 0, w
    )


def _gen_liars_dice(spec: ZooSpec) -> ExtensiveFormGame:
    n, d = spec.players, spec.faces
    _require(n >= 2, "liars dice needs at least 2 players")
    _require(d >= 2, "liars dice needs at least 2 faces")
    teams = _teams(n, spec.min_team)
    w = GameWriter()
    bids = [
        (count, face)
        for count in range(1, n + 1)
        for face in range(1, d + 1)
    ]

    def bid_label(b: tuple[int, int]) -> str:
        return f"{b[0]}x{b[1]}"

    def challenge(rolls, last_bid: int, challenger: int) -> float:
        count, face = bids[last_bid]
        bidder = (challenger - 1) % n
        actual = sum(1 for f in rolls if f == face)
        winner, loser = (
            (bidder, challenger) if actual >= count else (challenger, bidder)
        )
        payoff = [0.0] * n
        payoff[winner] = 1.0
        payoff[loser] = -1.0
        return sum(payoff[p - 1] for p in teams[MAX])

    def turn(rolls, history: tuple[int, ...], seat: int) -> int:
        node, actions = w.add_player(seat + 1, (seat, rolls[seat], history))
        last = history[-1] if history else -1
        for b in range(last + 1, len(bids)):
            child = turn(rolls, history + (b,), (seat + 1) % n)
            actions.append((bid_label(bids[b]), child))
        if history:
            z = w.add_terminal(challenge(rolls, last, seat))
            actions.append(("liar", z))
        return node

    root, outcomes = w.add_chance()
    assert root == 0
    all_rolls = sorted(product(range(1, d + 1), repeat=n))
    for rolls in all_rolls:
        child = turn(rolls, (), 0)
        outcomes.append(
            ("".join(str(f) for f in rolls), child, 1 / len(all_rolls))
        )
    return build_game(
        ["chance"] + [f"p{i}" for i in range(1, n + 1)], teams, 0, w
    )


# ---------------------------------------------------------------------
# Gadget games
# ---------------------------------------------------------------------


def _gen_fig2(spec: ZooSpec) -> ExtensiveFormGame:
    """Signaling gadget: chance picks a state; two maximizing players
    must correlate a message and its interpretation to keep the guessing
    minimizer exactly indifferent (team value 0)."""
    w = GameWriter()

    def guess(iset: str, win_first: bool) -> int:
        node, actions = w.add_player(3, iset)
        u = 1.0 if win_first else -1.0
        actions.append(("0", w.add_terminal(u)))
        actions.append(("1", w.add_terminal(-u)))
        return node

    root, outcomes = w.add_chance()
    assert root == 0

    # State x: signaler node b; state y: signaler node c.
    b, b_actions = w.add_player(1, "sig_x")
    c, c_actions = w.add_player(1, "sig_y")
    outcomes.append(("x", b, 0.5))
    outcomes.append(("y", c, 0.5))

    d, d_actions = w.add_player(2, "relay_l")
    f, f_actions = w.add_player(2, "relay_r")
    b_actions.append(("l", d))
    b_actions.append(("r", f))

    e, e_actions = w.add_player(2, "relay_l")
    g, g_actions = w.add_player(2, "relay_r")
    c_actions.append(("l", e))
    c_actions.append(("r", g))

    d_actions.append(("0", guess("guess_l", True)))
    d_actions.append(("1", w.add_terminal(-1.0)))
    e_actions.append(("0", w.add_terminal(-1.0)))
    e_actions.append(("1", guess("guess_l", False)))

    f_actions.append(("0", guess("guess_r", True)))
    f_actions.append(("1", w.add_terminal(-1.0)))
    g_actions.append(("0", w.add_terminal(-1.0)))
    g_actions.append(("1", guess("guess_r", False)))

    return build_game(
        ["chance", "sender", "relay", "guesser"],
        {MAX: [1, 2], MIN: [3]},
        0,
        w,
    )


def _gen_fig8(spec: ZooSpec) -> ExtensiveFormGame:
    """Public-state gadget: six middle nodes C..H chained into one
    public state by overlapping bottom infosets, though only the odd or
    even triple is ever live at once."""
    w = GameWriter()
    root, root_actions = w.add_player(1, "top")
    assert root == 0

    # Bottom infosets overlap adjacent middle nodes, (C,2)+(D,1) and so
    # on, so that the middle layer chains C-D-E-F-G-H.
    chain: dict[tuple[str, str], tuple[str, str]] = {}
    for x, y in zip("CDEFGH", "DEFGH"):
        chain[(x, "2")] = chain[(y, "1")] = ("chain", x + y)

    def bottom(name: str, j: str) -> int:
        iset = chain.get((name, j), ("bot", name, j))
        node, actions = w.add_player(1, iset)
        actions.append(("0", w.add_terminal(0.0)))
        actions.append(("1", w.add_terminal(0.0)))
        return node

    middles = {}
    for name in "CDEFGH":
        node, actions = w.add_player(1, f"mid_{name}")
        for j in ("1", "2"):
            actions.append((j, bottom(name, j)))
        middles[name] = node

    for label, names in (("l", "CEG"), ("r", "DFH")):
        spread, spread_actions = w.add_chance()
        for name in names:
            spread_actions.append((name, middles[name], 1 / 3))
        root_actions.append((label, spread))
    return build_game(
        ["chance", "team", "dummy"], {MAX: [1], MIN: [2]}, 0, w
    )


def _gen_fig9(spec: ZooSpec) -> ExtensiveFormGame:
    """C-column guessing gadget (columns tracked by one team player).

    Chance picks a column c in 1..C.  At layers t = 1..C-2 the team —
    unable to tell c = t from c = t+2 — plays 0 or 2 and survives only
    if c = t + a.  At layer C-1 the team member who knows c picks an
    action numbered c or c+1; at layer C a teammate who sees only the
    number picks one of two options.  All payoffs are 0.
    """
    C = spec.columns
    _require(C >= 2, "fig9 needs at least 2 columns")
    w = GameWriter()
    root, outcomes = w.add_chance()
    assert root == 0

    def final_two(c: int) -> int:
        node, actions = w.add_player(1, ("know", c))
        for number in (c, c + 1):
            seen, seen_actions = w.add_player(1, ("number", number))
            for opt in ("0", "1"):
                seen_actions.append((opt, w.add_terminal(0.0)))
            actions.append((str(number), seen))
        return node

    def column(c: int, t: int) -> int:
        if t == C - 1:
            return final_two(c)
        active = c == t or c == t + 2
        if not active:
            node, actions = w.add_chance()
            actions.append(("pass", column(c, t + 1), 1.0))
            return node
        # The layer-t infoset joins the columns t and t+2 nodes.
        node, actions = w.add_player(1, ("layer", t))
        for a in ("0", "2"):
            survives = c == t + int(a)
            child = column(c, t + 1) if survives else w.add_terminal(0.0)
            actions.append((a, child))
        return node

    for c in range(1, C + 1):
        child = column(c, 1)
        outcomes.append((f"c{c}", child, 1 / C))
    return build_game(
        ["chance", "team", "dummy"], {MAX: [1], MIN: [2]}, 0, w
    )


def _gen_worst_case(spec: ZooSpec) -> ExtensiveFormGame:
    """Chained mini-games realizing the belief-tree blowup: at every
    level each side has one public state holding k fresh singleton
    infosets, so prescription counts multiply by b^k per side per
    level."""
    k, b, d = spec.k, spec.branching, spec.depth
    _require(k >= 1, "worst_case needs k >= 1")
    _require(b >= 2, "worst_case needs b >= 2")
    _require(d >= 4, "worst_case needs depth >= 4")
    w = GameWriter()
    n_minis = d - 3

    def subgame(side_player: int, m: int, j: int) -> int:
        node, actions = w.add_player(side_player, ("root", side_player, m, j))
        for c in range(b - 1):
            mid, mid_actions = w.add_player(
                side_player, ("wide", side_player, m + 2)
            )
            mid_actions.append(("t", w.add_terminal(0.0)))
            actions.append((f"a{c}", mid))
        q, q_actions = w.add_chance()
        deep, deep_actions = w.add_player(
            side_player, ("wide", side_player, m + 3)
        )
        deep_actions.append(("t", w.add_terminal(0.0)))
        q_actions.append(("n", deep, 1.0))
        actions.append((f"a{b - 1}", q))
        return node

    def mini(m: int) -> int:
        node, actions = w.add_chance()
        kids = []
        for side_player in (1, 2):
            for j in range(k):
                kids.append(
                    (f"s{side_player}j{j}", subgame(side_player, m, j))
                )
        if m + 1 < n_minis:
            kids.append(("next", mini(m + 1)))
        for label, child in kids:
            actions.append((label, child, 1 / len(kids)))
        return node

    root = mini(0)
    assert root == 0
    return build_game(
        ["chance", "p1", "p2"], {MAX: [1], MIN: [2]}, 0, w
    )


# ---------------------------------------------------------------------
# Dispatch and presets
# ---------------------------------------------------------------------

_GENERATORS = {
    "kuhn": _gen_kuhn,
    "leduc": _gen_leduc,
    "liars_dice": _gen_liars_dice,
    "signaling_fig2": _gen_fig2,
    "public_counterexample_fig8": _gen_fig8,
    "inflation_counterexample_fig9": _gen_fig9,
    "worst_case": _gen_worst_case,
}


def generate(spec: ZooSpec) -> ExtensiveFormGame:
    """Build the benchmark instance selected by ``spec`` (validated)."""
    if spec.family not in _GENERATORS:
        raise GameValidationError(f"unknown family {spec.family!r}")
    return _GENERATORS[spec.family](spec)


def _poker_presets() -> dict[str, ZooSpec]:
    out: dict[str, ZooSpec] = {}
    bases: list[tuple[str, ZooSpec]] = [
        ("3K3", ZooSpec("kuhn", players=3, ranks=3)),
        ("3K4", ZooSpec("kuhn", players=3, ranks=4)),
        ("3L122", ZooSpec("leduc", players=3, bets=1, ranks=2, suits=2)),
        ("3L133", ZooSpec("leduc", players=3, bets=1, ranks=3, suits=3)),
        ("3D2", ZooSpec("liars_dice", players=3, faces=2)),
    ]
    splits = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]
    for name, base in bases:
        for split in splits:
            label = f"{name}[{','.join(str(p) for p in split)}]"
            out[label] = replace(base, min_team=split)
    return out


def list_presets() -> dict[str, ZooSpec]:
    """Named catalog of desk-scale instances."""
    presets: dict[str, ZooSpec] = {
        "fig2": ZooSpec("signaling_fig2"),
        "fig8": ZooSpec("public_counterexample_fig8"),
        "fig9-C4": ZooSpec("inflation_counterexample_fig9", columns=4),
        "fig9-C6": ZooSpec("inflation_counterexample_fig9", columns=6),
        "fig9-C8": ZooSpec("inflation_counterexample_fig9", columns=8),
        "fig9-C16": ZooSpec("inflation_counterexample_fig9", columns=16),
        "2K3": ZooSpec("kuhn", players=2, ranks=3, min_team=(2,)),
        "worst-k1b2d5": ZooSpec("worst_case", k=1, branching=2, depth=5),
        "worst-k2b2d6": ZooSpec("worst_case", k=2, branching=2, depth=6),
    }
    presets.update(_poker_presets())
    return presets
