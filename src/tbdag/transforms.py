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

from .analysis import _recall, coordinator_view
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
        _, _, action_recall = _recall(g, coordinator_view(g, side))
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

    def node_codes(h: int) -> list[str]:
        """Bit code per original action index, all of length W_t+1."""
        m = g.num_actions(h)
        w = _bits_needed(m)
        total = width[g.depth[h]] + 1
        rank = {
            a: r
            for r, a in enumerate(
                sorted(range(m), key=lambda a: g.labels[h][a])
            )
        }
        codes = []
        for a in range(m):
            code = format(rank[a], f"0{w}b") if w else ""
            codes.append(code + "0" * (total - len(code)))
        return codes

    def build(h: int) -> int:
        if g.kind[h] == TERMINAL:
            return w.add_terminal(g.utility[h])
        codes = node_codes(h)
        return build_prefix(h, codes, "")

    def build_prefix(h: int, codes: list[str], prefix: str) -> int:
        depth_in = len(prefix)
        consistent = [
            a for a in range(len(codes)) if codes[a].startswith(prefix)
        ]
        if depth_in == len(codes[0]):
            return build(g.children(h)[consistent[0]])
        present = [
            bit
            for bit in ("0", "1")
            if any(codes[a][depth_in] == bit for a in consistent)
        ]
        if g.kind[h] == PLAYER:
            return w.add_player(g.player[h], (g.infoset[h], prefix), [
                (bit, build_prefix(h, codes, prefix + bit)) for bit in present
            ])
        probs = g.probs[h]
        mass_all = sum(probs[a] for a in consistent)
        actions = []
        for bit in present:
            child = build_prefix(h, codes, prefix + bit)
            mass = sum(
                probs[a] for a in consistent if codes[a][depth_in] == bit
            )
            prob = mass / mass_all if mass_all > 0 else 1 / len(present)
            actions.append((bit, child, prob))
        return w.add_chance(actions)

    return build_game(
        g.players,
        {MAX: g.side_players(MAX), MIN: g.side_players(MIN)},
        build(0),
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

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for x in range(len(members)):
            for y in range(x + 1, len(members)):
                if _compatible(maps[x], maps[y]):
                    rx, ry = find(x), find(y)
                    if rx != ry:
                        parent[max(rx, ry)] = min(rx, ry)
        for x, h in enumerate(members):
            group_of[h] = (i, members[find(x)])

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
