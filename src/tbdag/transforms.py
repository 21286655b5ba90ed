"""Strategy-preserving game rewrites: action binarization and inflation.

``binarize_actions`` lowers the per-node branching factor to at most 2
by spelling each action as a fixed-width bitstring and letting the
acting player reveal it bit by bit.  It requires both merged
coordinators to have action recall; under that condition the rewrite
provably preserves the information complexity of the game.

``inflate`` splits infosets whose member nodes can never be reached by
one pure strategy of the side's coordinator simultaneously.  Splitting
such an infoset adds no strategic freedom (no strategy could ever
correlate play across the parts) and is idempotent after one pass.
"""

from __future__ import annotations

from math import ceil, log2

from .analysis import _label, _recall, _union, coordinator_view
from .game import (
    MAX,
    MIN,
    PLAYER,
    TERMINAL,
    ExtensiveFormGame,
    GameValidationError,
    GameWriter,
    build_game,
)


def _bits_needed(m: int) -> int:
    return ceil(log2(m)) if m > 1 else 0


def binarize_actions(g: ExtensiveFormGame) -> ExtensiveFormGame:
    """Rewrite the game so no node has more than two children.

    Every internal node at depth ``t`` becomes a binary tree of uniform
    height ``W_t + 1``, where ``W_t`` is the largest bit-width needed by
    any depth-``t`` node.  Action codes are assigned by label-sorted
    rank, padded with a run of trailing zeros (so every code ends in 0
    and all codes at one depth share one length, which keeps the game
    timeable).  Chance nodes split their outcome mass into conditional
    bit probabilities; player nodes reveal their choice bit by bit, with
    each partial choice forming its own infoset copy.
    """
    for side in (MAX, MIN):
        if not g.side_players(side):
            continue
        _, action_recall = _recall(g, coordinator_view(g, side))
        if not action_recall:
            raise GameValidationError(
                f"side {side!r} lacks action recall; cannot binarize"
            )

    width = [0] * (g.max_depth + 1)
    for h in range(g.num_nodes):
        if g.kind[h] != TERMINAL:
            width[g.depth[h]] = max(
                width[g.depth[h]], _bits_needed(g.num_actions(h))
            )

    w = GameWriter()
    # Preorder ids put children after parents, so walking the ids from
    # last to first finds every child's rewrite written.  Each node's
    # bit trie is written from its longest prefixes up to its root.
    rewritten = [0] * g.num_nodes
    for h in range(g.num_nodes - 1, -1, -1):
        if g.kind[h] == TERMINAL:
            rewritten[h] = w.add_terminal(g.utility[h])
            continue
        # Bit code per action: its label rank, zero-padded to W_t + 1.
        m, probs, total = g.num_actions(h), g.probs[h], width[g.depth[h]] + 1
        codes = [""] * m
        for r, a in enumerate(sorted(range(m), key=g.labels[h].__getitem__)):
            codes[a] = format(r, f"0{_bits_needed(m)}b").ljust(total, "0")
        below = {c: rewritten[kid] for c, kid in zip(codes, g.children(h))}
        for depth_in in range(total - 1, -1, -1):
            level = {}
            for prefix in dict.fromkeys(c[:depth_in] for c in codes):
                present = [bit for bit in "01" if prefix + bit in below]
                if g.kind[h] == PLAYER:
                    level[prefix] = w.add_player(
                        g.player[h], (g.infoset[h], prefix),
                        [(bit, below[prefix + bit]) for bit in present],
                    )
                    continue
                consistent = [
                    a for a, c in enumerate(codes) if c.startswith(prefix)
                ]
                mass_all = sum(probs[a] for a in consistent)
                level[prefix] = w.add_chance([(
                    bit, below[prefix + bit],
                    sum(probs[a] for a in consistent
                        if codes[a][depth_in] == bit) / mass_all
                    if mass_all > 0 else 1 / len(present),
                ) for bit in present])
            below = level
        rewritten[h] = below[""]

    return build_game(
        g.players,
        {MAX: g.side_players(MAX), MIN: g.side_players(MIN)},
        rewritten[0],
        w,
    )


def _compatible(a: dict[int, int], b: dict[int, int]) -> bool:
    """True when one pure strategy can play toward both nodes: their
    on-path action choices agree at every infoset both paths visit."""
    if len(b) < len(a):
        a, b = b, a
    return all(b.get(i, act) == act for i, act in a.items())


def inflate(g: ExtensiveFormGame, side: str) -> ExtensiveFormGame:
    """Fully inflate one side: split every infoset of the side into the
    connected components of its member co-playability graph.

    Two members are co-playable when some single pure strategy of the
    side's coordinator reaches toward both.  Nodes in different
    components can never require correlated play, so the split preserves
    the strategy space exactly; one pass reaches the fixpoint because
    splitting can only remove shared-infoset constraints above.
    """
    group_of: dict[int, tuple] = {}
    if g.side_infosets(side):
        view = coordinator_view(g, side)
    for i in g.side_infosets(side):
        members = g.infosets[i].members
        maps = [dict(view.sequences[view.seq_of[h]]) for h in members]
        # Union-find over member indices by pairwise compatibility.
        parent = list(range(len(members)))
        for x in range(len(members)):
            for y in range(x + 1, len(members)):
                if _compatible(maps[x], maps[y]):
                    _union(parent, x, y)
        for h, c in zip(members, _label(parent)):
            group_of[h] = (i, c)

    # The same nodes, with the side's infosets keyed by component.
    w = GameWriter()
    for h in range(g.num_nodes):
        extra = () if g.probs[h] is None else (g.probs[h],)
        w.add(
            g.kind[h],
            g.player[h],
            group_of.get(h, ("keep", g.infoset[h])),
            zip(g.labels[h], g.children(h), *extra),
            g.utility[h],
        )
    return build_game(
        g.players,
        {MAX: g.side_players(MAX), MIN: g.side_players(MIN)},
        0,
        w,
    )
