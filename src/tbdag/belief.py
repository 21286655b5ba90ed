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

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping, NamedTuple

# ``split_observation`` is not called here; it stays bound because the
# traced benchmark run wraps ``tbdag.belief.split_observation`` by name.
from .analysis import (
    analyze,
    coordinator_view,
    imperfect_recall_at,
    split_observation,  # noqa: F401
)
from .build import build_tbdag, phase_clock
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
    _is_id,
    bad_action,
    build_game,
    check_budget,
    check_side,
    serialize_game,
)

_ROLE_OF_PLAYER = {1: "max-prescribes", 2: "min-prescribes"}

# The phases of make_belief_game, as keys of ``BeliefGame.phase_ms``.
PHASES = ("moves", "emit", "assemble", "recall")


@dataclass(frozen=True)
class BeliefGame:
    """A materialized belief game tied back to its source.

    Node ``n`` replays source node ``node_state[n]`` while proxy ``i``
    (0 for max, 1 for min) holds belief ``beliefs[i][node_beliefs[i][n]]``;
    ``annotations[n]`` is that ``(h, B_max, B_min)`` triple, built on
    first read.  ``roles[n]`` names the slot the node occupies, read off
    its player: the max proxy (player 1) prescribes, the min proxy
    (player 2) prescribes, and every chance node and terminal resolves;
    terminals sit in the resolution slot of their final step.

    A proxy infoset is one (own history, belief) state, and its id is
    the order in which the construction first met that state, counting
    both proxies together; so ``root_iset`` is always ``{max: 0,
    min: 1}``.  ``iset_beliefs`` and ``iset_infosets`` give each proxy
    infoset its belief and the source infosets it prescribes for, and
    ``successors`` maps an (infoset, action) pair of a proxy to the own
    infosets reachable right after.  These four tables are empty on
    compacted games.  ``phase_ms`` holds the milliseconds of each of
    :data:`PHASES` (``recall`` is 0 on compacted games, which are not
    checked).
    """

    game: ExtensiveFormGame
    source: ExtensiveFormGame
    compact: bool
    node_state: tuple[int, ...]
    node_beliefs: tuple[tuple[int, ...], tuple[int, ...]]
    beliefs: tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]
    iset_beliefs: dict[int, tuple[int, ...]]
    iset_infosets: dict[int, tuple[int, ...]]
    root_iset: dict[str, int]
    successors: dict[tuple[int, int], tuple[int, ...]]
    phase_ms: dict[str, float] = field(compare=False, repr=False)

    @cached_property
    def annotations(
        self,
    ) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
        (b_max, b_min), (i_max, i_min) = self.beliefs, self.node_beliefs
        return tuple(zip(
            self.node_state,
            map(b_max.__getitem__, i_max),
            map(b_min.__getitem__, i_min),
        ))

    @property
    def roles(self) -> tuple[str, ...]:
        get = _ROLE_OF_PLAYER.get
        return tuple(get(p, "chance-resolves") for p in self.game.player)

    @cached_property
    def _unplayed(self) -> dict[str, dict[int, int]]:
        """Per side, the strategy playing action 0 at every proxy infoset."""
        return {
            side: dict.fromkeys(self.game.side_infosets(side), 0)
            for side in _SIDES
        }


def _unique_labels(labels: list[str]) -> list[str]:
    """``labels`` with each repeat renamed ``lab#n``, at the first free
    ``n`` from 2 on (a label may itself read ``lab#n``)."""
    last: dict[str, int] = {}
    taken: set[str] = set()
    out = []
    for lab in labels:
        n, new = last.get(lab, 1), lab
        while new in taken:
            n += 1
            new = f"{lab}#{n}"
        last[lab] = n
        taken.add(new)
        out.append(new)
    return out


class _Moves(NamedTuple):
    isets: tuple[int, ...]
    prescriptions: tuple[tuple[int, ...], ...]
    labels: list[str]
    next: list[dict[int, int]]


# A terminal belief keeps the one empty prescription.
_AT_TERMINAL = _Moves((), ((),), ["-"], [])


class _Side(NamedTuple):
    beliefs: tuple[tuple[int, ...], ...]
    moves: list[_Moves]
    root: int


def _moves(g: ExtensiveFormGame, side: str) -> _Side:
    """Each belief's moves, read off the side's raw observation-split DAG.

    Beliefs are numbered: decision point ``d`` is belief ``d`` and
    payload slot ``s`` (one terminal, as the build is raw) is belief
    ``n_dec + s``.  A belief's prescriptions are its decision point's
    action slots, in ``itertools.product`` order; ``next[a][c]`` is the
    belief that follows prescription ``a`` when the true move reaches
    candidate ``c``: the block of ``a``'s observation point holding
    ``c``, a child decision point or a terminal of the payload.
    """
    if g.kind[g.root] == TERMINAL:  # a lone terminal has no DAG
        return _Side(((g.root,),), [_AT_TERMINAL], 0)
    dag = build_tbdag(g, side, reduce=False, analysis=analyze(g, side))
    p = dag.problem
    n_dec = len(dag.beliefs)
    beliefs = dag.beliefs + dag.slot_groups
    aoff = p.dec_aoff.tolist()
    coff, kids = p.obs_coff.tolist(), p.obs_children.tolist()
    poff, payload = p.obs_poff.tolist(), p.payload.tolist()
    moves = [_AT_TERMINAL] * len(beliefs)
    for d in range(n_dec):
        isets = dag.dec_infosets[d]
        prescrs = dag.prescriptions[aoff[d]: aoff[d + 1]]
        labels = _unique_labels([
            ",".join(g.infosets[i].actions[a] for i, a in zip(isets, pr))
            or "-"
            for pr in prescrs
        ])
        nexts = []
        for o in range(aoff[d] + 1, aoff[d + 1] + 1):
            blocks = kids[coff[o]: coff[o + 1]]
            blocks += [n_dec + s for s in payload[poff[o]: poff[o + 1]]]
            nexts.append({h: b for b in blocks for h in beliefs[b]})
        moves[d] = _Moves(isets, prescrs, labels, nexts)
    # The artificial root observation point holds the root belief.
    return _Side(beliefs, moves, kids[coff[0]])


_SIDES = (MAX, MIN)


class _Builder:
    """The belief game's node columns, emitted in preorder.

    Each node also records its source node and each proxy's belief id
    (``state`` and ``belief_ids``).  Proxy infosets: one id per (proxy,
    last own (infoset, action), belief) state, from one counter in
    order of first interning.  A state is interned just before the
    first node using it, and nodes are emitted in preorder, so in the
    full game the id is also build_game's first-appearance infoset id.
    """

    def __init__(self, g, sides, node_budget):
        self.g = g
        self.sides = sides
        self.node_budget = node_budget
        self.state: list[int] = []
        self.belief_ids: tuple[list[int], list[int]] = ([], [])
        self.iset_beliefs: dict[int, tuple[int, ...]] = {}
        self.iset_infosets: dict[int, tuple[int, ...]] = {}
        self.successors: dict[tuple[int, int], list[int]] = {}

    def run(self, compact: bool) -> GameWriter:
        """Emit the whole game from an explicit stack of node tasks.

        Each original step takes three slots: the max proxy (slot 0)
        commits a prescription, the min proxy (slot 1) does the same,
        and a chance node (slot 2) resolves the true move.  A task is
        ``(slot, h, b0, b1, e0, e1, up)``: source node ``h`` with
        beliefs ``b0``/``b1``, each proxy's last own (infoset,
        prescription) edge ``e0``/``e1``, and the writer's action ``up``
        that leads to the node.  A node's actions are written with it,
        their children left unset until each child is emitted.
        Children are pushed last to first, so they are emitted in
        action order.  With ``compact``, a step with one action is not
        written: its child takes its task's ``up``, and the budget still
        counts the step.
        """
        g, w = self.g, GameWriter()
        kinds, players, keys = w.kind, w.player, w.infoset
        utility, offsets = w.utility, w.action_offset
        label, child, prob = w.label, w.child, w.prob
        state, (bel0, bel1) = self.state, self.belief_ids
        (beliefs0, moves0, root0), (beliefs1, moves1, root1) = self.sides
        moves = (moves0, moves1)
        isets: dict[tuple, int] = {}  # (slot, prev, belief) -> proxy infoset
        budget = self.node_budget  # less the steps spliced out so far
        src_kind, src_labels, src_probs = g.kind, g.labels, g.probs
        src_off, src_child = g.action_offset, g.action_child
        own0 = g.own_infoset(MAX)
        stack = [(0, g.root, root0, root1, None, None, -1)]
        pop, push = stack.pop, stack.append
        while stack:
            slot, h, b0, b1, e0, e1, up = pop()
            if slot < 2:
                belief, prev = (b0, e0) if slot == 0 else (b1, e1)
                key = (slot, prev, belief)
                m = moves[slot][belief]
                iset = isets.get(key)
                if iset is None:
                    iset = isets[key] = len(isets)
                    self.iset_beliefs[iset] = self.sides[slot].beliefs[belief]
                    self.iset_infosets[iset] = m.isets
                    if prev is not None:
                        self.successors.setdefault(prev, []).append(iset)
                labels = m.labels
                k = len(labels)
            elif src_kind[h] == TERMINAL:
                k = 0
            else:
                s0 = src_off[h]
                if src_kind[h] == CHANCE:
                    k = src_off[h + 1] - s0
                else:  # the acting proxy's prescription fixes the move
                    m, e = (moves0[b0], e0) if own0[h] >= 0 else (moves1[b1], e1)
                    a = m.prescriptions[e[1]][m.isets.index(g.infoset[h])]
                    s0 += a
                    k = 1
            n = len(kinds)
            if n >= budget:
                raise BudgetExceededError(
                    f"belief game exceeds node budget {self.node_budget} "
                    f"(emitting a node of source depth {g.depth[h]}; "
                    f"{len(isets)} proxy infosets so far)"
                )
            if compact and k == 1:  # the only child takes this step's place
                budget -= 1
                a0 = up
            else:
                if up >= 0:
                    child[up] = n
                state.append(h)
                bel0.append(b0)
                bel1.append(b1)
                a0 = len(child)
                child += [-1] * k
                offsets.append(a0 + k)
                if slot < 2:
                    kinds.append(PLAYER)
                    players.append(slot + 1)
                    keys.append(iset)
                    utility.append(0.0)
                    label.extend(labels)
                    prob += [None] * k
                else:
                    players.append(-1)
                    keys.append(None)
                    if k == 0:
                        assert beliefs0[b0] == beliefs1[b1] == (h,)
                        kinds.append(TERMINAL)
                        utility.append(g.utility[h])
                    else:
                        kinds.append(CHANCE)
                        utility.append(0.0)
                        if src_kind[h] == CHANCE:
                            label.extend(src_labels[h])
                            prob.extend(src_probs[h])
                        else:
                            label.append(src_labels[h][a])
                            prob.append(1.0)
            if slot == 0:
                for a in range(k - 1, -1, -1):
                    push((1, h, b0, b1, (iset, a), e1, a0 + a))
            elif slot == 1:
                for a in range(k - 1, -1, -1):
                    push((2, h, b0, b1, e0, (iset, a), a0 + a))
            elif k:
                next0, next1 = moves0[b0].next[e0[1]], moves1[b1].next[e1[1]]
                for j in range(k - 1, -1, -1):  # j: the node's action
                    c = src_child[s0 + j]
                    push((0, c, next0[c], next1[c], e0, e1, a0 + j))
        # As int arrays, no int object per node stays alive into build_game.
        w.child, w.action_offset = array("q", child), array("q", offsets)
        return w


def make_belief_game(
    g: ExtensiveFormGame,
    *,
    compact: bool = False,
    node_budget: int = 10**7,
) -> BeliefGame:
    """Run the three-slot construction over the whole game.

    Each proxy's moves are read off its side's raw observation-split
    TB-DAG.  ``compact=True`` leaves out single-action steps as they are
    emitted, giving node counts comparable to a drawn belief game; the
    result keeps annotations but drops the strategy-map tables (and may
    be rejected as untimeable, since splicing can put surviving infoset
    members at mixed depths).  ``node_budget`` counts the nodes of the
    full construction in both modes, so a compact build stops where the
    full one would.
    """
    check_budget("node budget", node_budget)
    phase_ms, lap = phase_clock(PHASES)
    sides = tuple(_moves(g, side) for side in _SIDES)
    lap("moves")
    b = _Builder(g, sides, node_budget)
    columns = b.run(compact)
    lap("emit")
    players = ("chance", "max-coordinator", "min-coordinator")
    teams = {MAX: [1], MIN: [2]}
    game = build_game(players, teams, 0, columns)
    del columns  # free the node columns before the recall check
    lap("assemble")
    if not compact:
        for side in (MAX, MIN):
            view = coordinator_view(game, side)
            if imperfect_recall_at(game, view) is not None:
                raise GameValidationError(
                    f"belief game lost perfect recall on side {side!r}"
                )
        game._own_infoset.clear()  # the check's columns would outlive it
        lap("recall")
        assert all(
            game.depth[z] == 3 * g.depth[b.state[z]] + 2 for z in game.terminals
        )
    # A compact game keeps annotations but no strategy-map tables.
    return BeliefGame(
        game=game,
        source=g,
        compact=compact,
        node_state=tuple(b.state),
        node_beliefs=tuple(map(tuple, b.belief_ids)),
        beliefs=tuple(side.beliefs for side in sides),
        iset_beliefs={} if compact else b.iset_beliefs,
        iset_infosets={} if compact else b.iset_infosets,
        # The max proxy moves at the root, the min proxy right below it.
        root_iset={} if compact else {MAX: 0, MIN: 1},
        # Ids only grow, so each successor list is already sorted.
        successors={} if compact else {k: tuple(v) for k, v in b.successors.items()},
        phase_ms=phase_ms,
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
    check_side(side)
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
        if not (_is_id(a) and 0 <= a < n):
            raise GameValidationError(bad_action(i, a, n))
    out = bg._unplayed[side].copy()
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
