"""Explicit belief-game materialization and its pure-strategy map.

The belief game replays the original game through one perfect-recall
proxy player per side.  Each original step becomes three: the max proxy
commits a prescription (one action for every own information set meeting
its current belief), the min proxy does the same, and a chance node
resolves the true move — the acting side's prescribed action, or the
original chance draw.  Each proxy then refines its candidate set (the
prescribed children of own nodes plus all children of everyone else's)
to the component containing the true child, which becomes its next
belief.  Proxy information sets are labeled by the full own history of
(belief, prescription) pairs, interned to small ids, which makes both
proxies perfect-recall by construction.

This module exists for desk-scale validation: the construction is
worst-case exponential and gated by a hard node budget.  It expands no
belief itself: every belief's infosets, prescriptions and next beliefs
are read off its side's raw observation-split TB-DAG from
:func:`tbdag.build.build_tbdag`, whose decision points are exactly the
beliefs a proxy can hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple

# ``split_observation`` is not called here; it stays bound because the
# traced benchmark run wraps ``tbdag.belief.split_observation`` by name.
from .analysis import (
    analyze,
    coordinator_view,
    imperfect_recall_at,
    split_observation,  # noqa: F401
)
from .build import build_tbdag
from .game import (
    BudgetExceededError,
    CHANCE,
    ExtensiveFormGame,
    GameValidationError,
    MAX,
    MIN,
    PLAYER,
    TERMINAL,
    GameWriter,
    bad_action,
    build_game,
    serialize_game,
)

@dataclass(frozen=True)
class BeliefGame:
    """A materialized belief game tied back to its source.

    ``annotations[n]`` is the ``(h, B_max, B_min)`` triple of node ``n``
    (source node, both current beliefs, ``h`` a member of both) and
    ``roles[n]`` names the slot the node occupies; terminals sit in the
    resolution slot of their final step.  ``iset_beliefs`` and
    ``iset_infosets`` give each proxy information set its belief and the
    source infosets it prescribes for; ``successors`` maps an (infoset,
    action) pair of a proxy to the own infosets reachable right after,
    and ``root_iset`` holds each proxy's first infoset.  The last three
    are empty on compacted games.
    """

    game: ExtensiveFormGame
    source: ExtensiveFormGame
    compact: bool
    annotations: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]
    roles: tuple[str, ...]
    iset_beliefs: dict[int, tuple[int, ...]]
    iset_infosets: dict[int, tuple[int, ...]]
    root_iset: dict[str, int]
    successors: dict[tuple[int, int], tuple[int, ...]]


def _unique_labels(labels: list[str]) -> list[str]:
    seen: dict[str, int] = {}
    out = []
    for lab in labels:
        n = seen.get(lab, 0)
        seen[lab] = n + 1
        out.append(lab if n == 0 else f"{lab}#{n + 1}")
    return out


class _Moves(NamedTuple):
    isets: tuple[int, ...]
    prescriptions: tuple[tuple[int, ...], ...]
    labels: list[str]
    next: list[dict[int, tuple[int, ...]]]


def _moves(g: ExtensiveFormGame, side: str) -> dict[tuple, _Moves]:
    """Each belief's moves, read off the side's raw observation-split DAG.

    A belief's prescriptions are its decision point's action slots, in
    ``itertools.product`` order; ``next[a][c]`` is the belief that
    follows prescription ``a`` when the true move reaches candidate
    ``c``: the block of ``a``'s observation point holding ``c``, a child
    decision point or a singleton terminal of the payload.  A terminal
    belief ``(z,)`` is not a decision point; it keeps the one empty
    prescription.
    """
    moves = {(z,): _Moves((), ((),), ["-"], []) for z in g.terminals}
    if g.kind[g.root] == TERMINAL:  # a lone terminal has no DAG
        return moves
    dag = build_tbdag(g, side, reduce=False, analysis=analyze(g, side))
    p = dag.problem
    aoff, child_obs = p.dec_aoff.tolist(), p.act_child_obs.tolist()
    coff, kids = p.obs_coff.tolist(), p.obs_children.tolist()
    poff, payload = p.obs_poff.tolist(), p.payload.tolist()
    for d, belief in enumerate(dag.beliefs):
        isets = dag.dec_infosets[d]
        prescrs = dag.prescriptions[aoff[d]: aoff[d + 1]]
        labels = _unique_labels([
            ",".join(g.infosets[i].actions[a] for i, a in zip(isets, pr))
            or "-"
            for pr in prescrs
        ])
        nexts = []
        for o in child_obs[aoff[d]: aoff[d + 1]]:
            blocks = [dag.beliefs[c] for c in kids[coff[o]: coff[o + 1]]]
            blocks += map(dag.slot_groups.__getitem__,
                          payload[poff[o]: poff[o + 1]])
            nexts.append({h: blk for blk in blocks for h in blk})
        moves[belief] = _Moves(isets, prescrs, labels, nexts)
    return moves


_SIDES = (MAX, MIN)
_ROLES = ("max-prescribes", "min-prescribes")


class _Builder:
    def __init__(self, g, node_budget):
        self.g = g
        self.node_budget = node_budget
        self.moves = tuple(_moves(g, side) for side in _SIDES)
        # A proxy node's infoset key is its (side, state) pair.
        self.w = GameWriter()
        self.ann: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []
        self.roles: list[str] = []
        # Interned (own history, belief) states and own-play transitions.
        self.states: dict[str, dict[tuple, int]] = {MAX: {}, MIN: {}}
        self.trans: dict[str, dict[tuple[int, int], set[int]]] = {
            MAX: {},
            MIN: {},
        }

    def emit(self, annotation, role, kind, player=-1, infoset=None,
             utility=0.0):
        """Append one node; returns its id and its action list."""
        if len(self.w.kind) >= self.node_budget:
            raise BudgetExceededError(
                f"belief game exceeds node budget {self.node_budget}"
            )
        self.ann.append(annotation)
        self.roles.append(role)
        actions: list[tuple] = []
        return self.w.add(kind, player, infoset, actions, utility), actions

    def intern(self, side, prev, belief) -> int:
        """State id of (own history extended by ``prev``, ``belief``)."""
        key = (prev, belief)
        table = self.states[side]
        s = table.get(key)
        if s is None:
            s = table[key] = len(table)
        if prev is not None:
            self.trans[side].setdefault(prev, set()).add(s)
        return s

    # -- the three slots of one original step --------------------------

    def prescribe(self, i, h, beliefs, edges):
        """Slot of proxy ``i``, player ``i + 1``: max first, then min.

        ``edges[j]`` is proxy ``j``'s last (state, prescription) pair,
        already this step's for a proxy that has moved.
        """
        side = _SIDES[i]
        s = self.intern(side, edges[i], beliefs[i])
        me, actions = self.emit(
            (h, *beliefs), _ROLES[i], PLAYER, i + 1, (side, s)
        )
        for ai, label in enumerate(self.moves[i][beliefs[i]].labels):
            if i == 0:
                child = self.prescribe(1, h, beliefs, ((s, ai), edges[1]))
            else:
                child = self.resolve(h, beliefs, (edges[0], (s, ai)))
            actions.append((label, child))
        return me

    def resolve(self, h, beliefs, edges):
        g = self.g
        if g.kind[h] == TERMINAL:
            assert beliefs == ((h,), (h,))
            return self.emit(
                (h, *beliefs), "chance-resolves",
                TERMINAL, utility=g.utility[h],
            )[0]
        moves = [m[b] for m, b in zip(self.moves, beliefs)]
        if g.kind[h] == CHANCE:
            acts = zip(g.children[h], g.labels[h], g.probs[h])
        else:
            i = _SIDES.index(g.node_side(h))
            m = moves[i]
            a = m.prescriptions[edges[i][1]][m.isets.index(g.infoset[h])]
            acts = [(g.children[h][a], g.labels[h][a], 1.0)]
        me, actions = self.emit((h, *beliefs), "chance-resolves", CHANCE)
        nexts = [m.next[e[1]] for m, e in zip(moves, edges)]
        for child, label, prob in acts:
            sub = self.prescribe(
                0, child, (nexts[0][child], nexts[1][child]), edges
            )
            actions.append((label, sub, prob))
        return me


def _compacted(b: _Builder):
    """Splice out single-action internal nodes for size reporting."""
    w = b.w
    keep = [
        k == TERMINAL or len(acts) > 1 for k, acts in zip(w.kind, w.actions)
    ]

    def resolve(n: int) -> int:
        while not keep[n]:
            n = w.actions[n][0][1]
        return n

    order = [n for n in range(len(w.kind)) if keep[n]]
    new_id = {n: i for i, n in enumerate(order)}
    out = GameWriter()
    for n in order:
        out.add(
            w.kind[n],
            w.player[n],
            w.infoset[n],
            [
                (act[0], new_id[resolve(act[1])], *act[2:])
                for act in w.actions[n]
            ],
            w.utility[n],
        )
    root = new_id[resolve(0)]
    return out, root, [b.ann[n] for n in order], [b.roles[n] for n in order]


def make_belief_game(
    g: ExtensiveFormGame,
    *,
    compact: bool = False,
    node_budget: int = 10**7,
) -> BeliefGame:
    """Run the recursive three-slot construction over the whole game.

    Each proxy's moves are read off its side's raw observation-split
    TB-DAG.  ``compact=True`` removes single-action chains, giving node
    counts comparable to a drawn belief game; the result keeps
    annotations but drops the strategy-map tables (and may be rejected
    as untimeable, since splicing can put surviving infoset members at
    mixed depths).
    """
    b = _Builder(g, node_budget)
    b.prescribe(0, g.root, ((g.root,), (g.root,)), (None, None))

    players = ("chance", "max-coordinator", "min-coordinator")
    teams = {MAX: [1], MIN: [2]}
    if compact:
        columns, root, ann, roles = _compacted(b)
        game = build_game(players, teams, root, columns)
        return BeliefGame(
            game=game,
            source=g,
            compact=True,
            annotations=tuple(ann),
            roles=tuple(roles),
            iset_beliefs={},
            iset_infosets={},
            root_iset={},
            successors={},
        )

    game = build_game(players, teams, 0, b.w)
    for side in (MAX, MIN):
        view = coordinator_view(game, side)
        if imperfect_recall_at(game, view) is not None:
            raise GameValidationError(
                f"belief game lost perfect recall on side {side!r}"
            )
    for n, (h, _, _) in enumerate(b.ann):
        if game.kind[n] == TERMINAL:
            assert game.depth[n] == 3 * g.depth[h] + 2

    state_iset: dict[str, dict[int, int]] = {MAX: {}, MIN: {}}
    iset_beliefs: dict[int, tuple[int, ...]] = {}
    iset_infosets: dict[int, tuple[int, ...]] = {}
    for n, slot in enumerate(b.w.infoset):
        if slot is None:
            continue
        side, st = slot
        assert game.kind[n] == PLAYER  # emission order is preorder
        i_bg = game.infoset[n]
        state_iset[side][st] = i_bg
        i = _SIDES.index(side)
        iset_beliefs[i_bg] = belief = b.ann[n][1 + i]
        iset_infosets[i_bg] = b.moves[i][belief].isets
    successors = {
        (state_iset[side][st], ai): tuple(
            sorted(state_iset[side][s2] for s2 in nxt)
        )
        for side in (MAX, MIN)
        for (st, ai), nxt in b.trans[side].items()
    }
    return BeliefGame(
        game=game,
        source=g,
        compact=False,
        annotations=tuple(b.ann),
        roles=tuple(b.roles),
        iset_beliefs=iset_beliefs,
        iset_infosets=iset_infosets,
        # Each proxy's root state is the first one interned.
        root_iset={side: state_iset[side][0] for side in (MAX, MIN)},
        successors=successors,
    )


def map_pure_strategy(
    bg: BeliefGame, side: str, pi: Mapping[int, int]
) -> dict[int, int]:
    """Proxy-player image of a source pure strategy.

    At every own-play-reachable proxy infoset the returned strategy
    prescribes ``pi``'s action for each source infoset meeting the
    belief (mixed-radix index, infosets ascending); unreachable proxy
    infosets canonically take their first action.  Every action of
    ``pi`` must be an int index into its infoset's actions.
    """
    if side not in (MAX, MIN):
        raise GameValidationError(f"unknown side {side!r}")
    if bg.compact:
        raise GameValidationError(
            "strategy mapping needs a full belief game, not a compact one"
        )
    g = bg.source
    missing = [i for i in g.side_infosets(side) if i not in pi]
    if missing:
        raise GameValidationError(
            f"strategy leaves {len(missing)} infosets unassigned"
        )
    for i in g.side_infosets(side):
        a, n = pi[i], g.infosets[i].num_actions
        if isinstance(a, bool) or not (isinstance(a, int) and 0 <= a < n):
            raise GameValidationError(bad_action(i, a, n))
    out = {i: 0 for i in bg.game.side_infosets(side)}
    queue = [bg.root_iset[side]]
    visited = set(queue)
    while queue:
        i_bg = queue.pop()
        idx = 0
        for i in bg.iset_infosets[i_bg]:
            idx = idx * g.infosets[i].num_actions + pi[i]
        out[i_bg] = idx
        for nxt in bg.successors.get((i_bg, idx), ()):
            if nxt not in visited:
                visited.add(nxt)
                queue.append(nxt)
    return out


def belief_game_to_doc(bg: BeliefGame) -> dict[str, Any]:
    """JSON document: the game plus per-node annotation records."""
    doc = serialize_game(bg.game)
    doc["annotations"] = [
        {
            "state": h,
            "belief_max": list(bm),
            "belief_min": list(bn),
            "role": role,
        }
        for (h, bm, bn), role in zip(bg.annotations, bg.roles)
    ]
    return doc
