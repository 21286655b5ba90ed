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
worst-case exponential and gated by a hard node budget.  The DAG
builder in :mod:`tbdag.build` reaches the same strategy spaces without
ever materializing this tree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Mapping

from .analysis import (
    GameAnalysis,
    analyze,
    coordinator_view,
    imperfect_recall_at,
    split_observation,
)
from .game import (
    BudgetExceededError,
    CHANCE,
    ExtensiveFormGame,
    GameValidationError,
    MAX,
    MIN,
    PLAYER,
    TERMINAL,
    build_game,
    serialize_game,
)

ROLES = ("max-prescribes", "min-prescribes", "chance-resolves")

_SIDE_PLAYER = {MAX: 1, MIN: 2}


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


class _Builder:
    def __init__(self, g, analyses, node_budget):
        self.g = g
        self.analyses = analyses
        self.node_budget = node_budget
        self.records: list[dict[str, Any]] = []
        self.ann: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []
        self.roles: list[str] = []
        self.slot_state: list[tuple[str, int] | None] = []
        # Interned (own history, belief) states and own-play transitions.
        self.states: dict[str, dict[tuple, int]] = {MAX: {}, MIN: {}}
        self.trans: dict[str, dict[tuple[int, int], set[int]]] = {
            MAX: {},
            MIN: {},
        }
        self.root_state: dict[str, int] = {}
        self._space: dict[tuple[str, tuple[int, ...]], tuple] = {}
        self._blocks: dict[tuple, dict[int, tuple[int, ...]]] = {}

    def emit(self, record, annotation, role, state=None) -> int:
        if len(self.records) >= self.node_budget:
            raise BudgetExceededError(
                f"belief game exceeds node budget {self.node_budget}"
            )
        self.records.append(record)
        self.ann.append(annotation)
        self.roles.append(role)
        self.slot_state.append(state)
        return len(self.records) - 1

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

    def space(self, side, belief):
        """Infosets meeting the belief and the prescription list."""
        key = (side, belief)
        got = self._space.get(key)
        if got is None:
            g = self.g
            isets = sorted(
                {
                    g.infoset[h]
                    for h in belief
                    if g.node_side(h) == side
                }
            )
            counts = [g.infosets[i].num_actions for i in isets]
            prescrs = list(
                itertools.product(*(range(c) for c in counts))
            )
            labels = _unique_labels(
                [
                    ",".join(
                        g.infosets[i].actions[a]
                        for i, a in zip(isets, prescr)
                    )
                    or "-"
                    for prescr in prescrs
                ]
            )
            got = self._space[key] = (tuple(isets), prescrs, labels)
        return got

    def block_of(self, side, belief, isets, prescr, child):
        """Next belief: the candidate component containing ``child``."""
        key = (side, belief, prescr)
        mapping = self._blocks.get(key)
        if mapping is None:
            g = self.g
            chosen = dict(zip(isets, prescr))
            cands = []
            for h in belief:
                if g.node_side(h) == side:
                    cands.append(g.children[h][chosen[g.infoset[h]]])
                else:
                    cands.extend(g.children[h])
            mapping = self._blocks[key] = {
                h: blk
                for blk in split_observation(self.analyses[side], cands)
                for h in blk
            }
        return mapping[child]

    # -- the three slots of one original step --------------------------

    def rec_max(self, h, b_max, b_min, prev_max, prev_min):
        s_max = self.intern(MAX, prev_max, b_max)
        isets, prescrs, labels = self.space(MAX, b_max)
        record = {
            "kind": PLAYER,
            "player": _SIDE_PLAYER[MAX],
            "infoset": (MAX, s_max),
            "actions": [],
        }
        me = self.emit(
            record, (h, b_max, b_min), "max-prescribes", (MAX, s_max)
        )
        for ai, prescr in enumerate(prescrs):
            child = self.rec_min(
                h, b_max, b_min, (s_max, ai), prev_min, (isets, prescr)
            )
            record["actions"].append(
                {"label": labels[ai], "child": child}
            )
        return me

    def rec_min(self, h, b_max, b_min, edge_max, prev_min, pre_max):
        s_min = self.intern(MIN, prev_min, b_min)
        isets, prescrs, labels = self.space(MIN, b_min)
        record = {
            "kind": PLAYER,
            "player": _SIDE_PLAYER[MIN],
            "infoset": (MIN, s_min),
            "actions": [],
        }
        me = self.emit(
            record, (h, b_max, b_min), "min-prescribes", (MIN, s_min)
        )
        for ai, prescr in enumerate(prescrs):
            child = self.rec_0(
                h, b_max, b_min, edge_max, (s_min, ai),
                pre_max, (isets, prescr),
            )
            record["actions"].append(
                {"label": labels[ai], "child": child}
            )
        return me

    def rec_0(self, h, b_max, b_min, edge_max, edge_min, pre_max, pre_min):
        g = self.g
        if g.kind[h] == TERMINAL:
            assert b_max == (h,) and b_min == (h,)
            return self.emit(
                {"kind": TERMINAL, "utility": g.utility[h]},
                (h, b_max, b_min),
                "chance-resolves",
            )
        if g.kind[h] == CHANCE:
            moves = [
                (a, g.labels[h][a], g.probs[h][a])
                for a in range(len(g.children[h]))
            ]
        else:
            side = g.node_side(h)
            isets, prescr = pre_max if side == MAX else pre_min
            a = prescr[isets.index(g.infoset[h])]
            moves = [(a, g.labels[h][a], 1.0)]
        record: dict[str, Any] = {"kind": CHANCE, "actions": []}
        me = self.emit(record, (h, b_max, b_min), "chance-resolves")
        for a, label, prob in moves:
            child = g.children[h][a]
            nb_max = self.block_of(MAX, b_max, *pre_max, child)
            nb_min = self.block_of(MIN, b_min, *pre_min, child)
            sub = self.rec_max(child, nb_max, nb_min, edge_max, edge_min)
            record["actions"].append(
                {"label": label, "child": sub, "prob": prob}
            )
        return me

    def run(self):
        g = self.g
        root_belief = (g.root,)
        top = self.rec_max(root_belief[0], root_belief, root_belief,
                           None, None)
        assert top == 0
        self.root_state = {
            MAX: self.states[MAX][(None, root_belief)],
            MIN: self.states[MIN][(None, root_belief)],
        }


def _compacted(b: _Builder):
    """Splice out single-action internal nodes for size reporting."""
    records, ann, roles = b.records, b.ann, b.roles
    keep = [
        rec["kind"] == TERMINAL or len(rec["actions"]) > 1
        for rec in records
    ]

    def resolve(n: int) -> int:
        while not keep[n]:
            n = records[n]["actions"][0]["child"]
        return n

    new_id: dict[int, int] = {}
    order: list[int] = []
    for n in range(len(records)):
        if keep[n]:
            new_id[n] = len(order)
            order.append(n)
    out: list[dict[str, Any]] = []
    for n in order:
        rec = dict(records[n])
        if rec["kind"] != TERMINAL:
            rec["actions"] = [
                {**act, "child": new_id[resolve(act["child"])]}
                for act in rec["actions"]
            ]
        out.append(rec)
    root = new_id[resolve(0)]
    return out, root, [ann[n] for n in order], [roles[n] for n in order]


def make_belief_game(
    g: ExtensiveFormGame,
    analyses: Mapping[str, GameAnalysis] | None = None,
    *,
    compact: bool = False,
    node_budget: int = 10**7,
) -> BeliefGame:
    """Run the recursive three-slot construction over the whole game.

    ``compact=True`` removes single-action chains, giving node counts
    comparable to a drawn belief game; the result keeps annotations but
    drops the strategy-map tables (and may be rejected as untimeable,
    since splicing can put surviving infoset members at mixed depths).
    """
    if analyses is None:
        analyses = {MAX: analyze(g, MAX), MIN: analyze(g, MIN)}
    for side in (MAX, MIN):
        if analyses[side].side != side:
            raise GameValidationError(
                f"analyses[{side!r}] is for side {analyses[side].side!r}"
            )
    b = _Builder(g, analyses, node_budget)
    b.run()

    players = ("chance", "max-coordinator", "min-coordinator")
    teams = {MAX: [1], MIN: [2]}
    if compact:
        records, root, ann, roles = _compacted(b)
        game = build_game(players, teams, root, records)
        bg = BeliefGame(
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
        return bg

    game = build_game(players, teams, 0, b.records)
    for side in (MAX, MIN):
        view = coordinator_view(game, side)
        if imperfect_recall_at(game, view) is not None:
            raise GameValidationError(
                f"belief game lost perfect recall on side {side!r}"
            )
    for n, (h, bm, bn) in enumerate(b.ann):
        if game.kind[n] == TERMINAL:
            assert game.depth[n] == 3 * g.depth[h] + 2
            assert bm == (h,) and bn == (h,)

    state_iset: dict[str, dict[int, int]] = {MAX: {}, MIN: {}}
    iset_beliefs: dict[int, tuple[int, ...]] = {}
    iset_infosets: dict[int, tuple[int, ...]] = {}
    for n in range(game.num_nodes):
        slot = b.slot_state[n]
        if slot is None:
            continue
        side, st = slot
        assert game.kind[n] == PLAYER  # emission order is preorder
        i_bg = game.infoset[n]
        state_iset[side][st] = i_bg
        belief = b.ann[n][1] if side == MAX else b.ann[n][2]
        iset_beliefs[i_bg] = belief
        iset_infosets[i_bg] = b.space(side, belief)[0]
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
        root_iset={
            side: state_iset[side][b.root_state[side]]
            for side in (MAX, MIN)
        },
        successors=successors,
    )


def map_pure_strategy(
    bg: BeliefGame, side: str, pi: Mapping[int, int]
) -> dict[int, int]:
    """Proxy-player image of a source pure strategy.

    At every own-play-reachable proxy infoset the returned strategy
    prescribes ``pi``'s action for each source infoset meeting the
    belief (mixed-radix index, infosets ascending); unreachable proxy
    infosets canonically take their first action.
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
