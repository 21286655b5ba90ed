"""Arena-indexed extensive-form game trees.

A game is stored as parallel tuples indexed by dense node id, with ids
assigned in preorder (every parent id is smaller than its children's).
All structures are immutable after construction, so games can be shared
freely between analyses and builders.

The JSON wire format accepted by :func:`parse_game`:

``{"players": [...], "teams": {"max": [...], "min": [...]}, "root": n,
"nodes": [...]}`` where player index 0 is reserved for chance, every
other player index appears in exactly one team list, and each node is
one of::

    {"kind": "chance",   "actions": [{"label": str, "child": int, "prob": number|"num/den"}, ...]}
    {"kind": "player",   "player": int, "infoset": int,
                         "actions": [{"label": str, "child": int}, ...]}
    {"kind": "terminal", "utility": number}

Utilities are from the max side's point of view; the min side receives
their negation.  Infosets are implicit: player nodes sharing an
``infoset`` integer are mutually indistinguishable to their owner.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import fsum, inf, isfinite
from typing import Any

MAX = "max"
MIN = "min"

CHANCE = "chance"
PLAYER = "player"
TERMINAL = "terminal"

# Probabilities at a chance node must sum to 1 within this tolerance.
_PROB_TOL = 1e-12


class GameValidationError(ValueError):
    """Raised when a game document violates the structural contract."""


class BudgetExceededError(RuntimeError):
    """Raised when a construction would exceed its node or edge budget."""


@dataclass(frozen=True)
class Infoset:
    """One information set: owner, member node ids, shared action labels."""

    player: int
    members: tuple[int, ...]
    actions: tuple[str, ...]

    @property
    def num_actions(self) -> int:
        return len(self.actions)


class ExtensiveFormGame:
    """Immutable timeable game tree in struct-of-arrays form.

    Per-node fields (all tuples of length ``num_nodes``):

    - ``kind``: one of ``"chance"``, ``"player"``, ``"terminal"``.
    - ``parent`` / ``parent_action``: id and action index of the edge
      entering the node (``-1`` at the root).
    - ``depth``: edge distance from the root.
    - ``player``: acting player (``0`` for chance, ``-1`` at terminals).
    - ``infoset``: infoset id for player nodes, else ``-1``.
    - ``children`` / ``labels``: ordered child ids and action labels.
    - ``probs``: chance outcome probabilities (``None`` off chance nodes).
    - ``utility``: max-side payoff (``0.0`` off terminals).
    - ``chance_reach``: product of chance probabilities along the path
      from the root.
    """

    __slots__ = (
        "players",
        "team_of",
        "kind",
        "parent",
        "parent_action",
        "depth",
        "player",
        "infoset",
        "children",
        "labels",
        "probs",
        "utility",
        "chance_reach",
        "infosets",
        "terminals",
        "max_depth",
        "branching_factor",
        "utility_scale",
        "_side_players",
        "_side_infosets",
    )

    def __init__(
        self,
        players: tuple[str, ...],
        team_of: tuple[str | None, ...],
        kind: tuple[str, ...],
        parent: tuple[int, ...],
        parent_action: tuple[int, ...],
        depth: tuple[int, ...],
        player: tuple[int, ...],
        infoset: tuple[int, ...],
        children: tuple[tuple[int, ...], ...],
        labels: tuple[tuple[str, ...], ...],
        probs: tuple[tuple[float, ...] | None, ...],
        utility: tuple[float, ...],
        infosets: tuple[Infoset, ...],
    ):
        self.players = players
        self.team_of = team_of
        self.kind = kind
        self.parent = parent
        self.parent_action = parent_action
        self.depth = depth
        self.player = player
        self.infoset = infoset
        self.children = children
        self.labels = labels
        self.probs = probs
        self.utility = utility
        self.infosets = infosets

        n = len(kind)
        reach = [1.0] * n
        for h in range(n):
            p = parent[h]
            if p < 0:
                continue
            reach[h] = reach[p]
            if kind[p] == CHANCE:
                reach[h] = reach[p] * probs[p][parent_action[h]]
        self.chance_reach = tuple(reach)
        self.terminals = tuple(h for h in range(n) if kind[h] == TERMINAL)
        self.max_depth = max(depth) if n else 0
        self.branching_factor = max(
            (len(children[h]) for h in range(n) if kind[h] != TERMINAL),
            default=0,
        )
        self.utility_scale = max(
            (abs(utility[z]) for z in self.terminals), default=0.0
        )
        self._side_players = {
            side: tuple(p for p in range(len(players)) if team_of[p] == side)
            for side in (MAX, MIN)
        }
        self._side_infosets = {
            side: tuple(
                i
                for i, iset in enumerate(infosets)
                if team_of[iset.player] == side
            )
            for side in (MAX, MIN)
        }

    # -- basic accessors -------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.kind)

    @property
    def num_players(self) -> int:
        return len(self.players)

    @property
    def root(self) -> int:
        return 0

    def side_players(self, side: str) -> tuple[int, ...]:
        """Player indices belonging to one team (``"max"`` or ``"min"``)."""
        return self._side_players[side]

    def side_infosets(self, side: str) -> tuple[int, ...]:
        """Infoset ids owned by any player of the given team."""
        return self._side_infosets[side]

    def node_side(self, h: int) -> str | None:
        """Team acting at node ``h``, or None for chance/terminal nodes."""
        if self.kind[h] != PLAYER:
            return None
        return self.team_of[self.player[h]]

    def is_internal(self, h: int) -> bool:
        return self.kind[h] != TERMINAL

    def num_actions(self, h: int) -> int:
        return len(self.children[h])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtensiveFormGame):
            return NotImplemented
        return (
            self.players == other.players
            and self.team_of == other.team_of
            and self.kind == other.kind
            and self.parent == other.parent
            and self.children == other.children
            and self.labels == other.labels
            and self.probs == other.probs
            and self.utility == other.utility
            and self.infoset == other.infoset
            and self.infosets == other.infosets
        )

    def __hash__(self):  # pragma: no cover - identity hashing is fine
        return id(self)

    def __repr__(self) -> str:
        return (
            f"ExtensiveFormGame({self.num_nodes} nodes, "
            f"{len(self.terminals)} terminals, "
            f"{len(self.infosets)} infosets)"
        )


# -- parsing -------------------------------------------------------------


def _float(value: int | float | Fraction) -> float:
    """``value`` as a float; a float overflow becomes infinity."""
    try:
        return float(value)
    except OverflowError:
        return inf


def _parse_prob(value: Any, node: int) -> float:
    number = value
    if isinstance(value, str):
        try:
            number = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise GameValidationError(
                f"node {node}: bad probability {value!r}"
            ) from exc
    elif not isinstance(value, (int, float)) or isinstance(value, bool):
        raise GameValidationError(f"node {node}: bad probability {value!r}")
    x = _float(number)
    if not isfinite(x):
        raise GameValidationError(
            f"node {node}: non-finite probability {value!r}"
        )
    return x


def build_game(
    players: Sequence[str],
    teams: Mapping[str, Iterable[int]],
    root: int,
    nodes: Sequence[Mapping[str, Any]],
) -> ExtensiveFormGame:
    """Validate raw node records and assemble a game.

    Node ids are renumbered to preorder (following action order) and
    infoset ids are renumbered densely in order of first appearance, so
    two structurally identical inputs produce identical games no matter
    how their ids were assigned.
    """
    players = tuple(str(p) for p in players)
    if not players:
        raise GameValidationError("players list is empty")
    if players[0] != CHANCE:
        raise GameValidationError('players[0] must be "chance"')

    team_of: list[str | None] = [None] * len(players)
    if set(teams.keys()) != {MAX, MIN}:
        raise GameValidationError(
            'teams must have exactly the keys "max" and "min"'
        )
    for side in (MAX, MIN):
        for p in teams[side]:
            if not (isinstance(p, int) and 0 < p < len(players)):
                raise GameValidationError(
                    f"team {side!r}: bad player index {p!r}"
                )
            if team_of[p] is not None:
                raise GameValidationError(f"player {p} listed in two teams")
            team_of[p] = side
    for p in range(1, len(players)):
        if team_of[p] is None:
            raise GameValidationError(f"player {p} belongs to no team")

    if not (isinstance(root, int) and 0 <= root < len(nodes)):
        raise GameValidationError(f"bad root id {root!r}")
    if len(nodes) == 0:
        raise GameValidationError("nodes array is empty")

    # Preorder walk: renumber nodes, detect sharing/cycles, reject
    # unreachable nodes (the array must be exactly the tree).
    n = len(nodes)
    new_id = [-1] * n
    order: list[int] = []
    stack = [root]
    while stack:
        old = stack.pop()
        if new_id[old] >= 0:
            raise GameValidationError(
                f"node {old}: reached twice (not a tree)"
            )
        new_id[old] = len(order)
        order.append(old)
        raw = nodes[old]
        if not isinstance(raw, Mapping):
            raise GameValidationError(f"node {old}: not an object")
        actions = raw.get("actions", ())
        kids = []
        for j, act in enumerate(actions):
            if not isinstance(act, Mapping) or "child" not in act:
                raise GameValidationError(
                    f"node {old}: action {j} missing child"
                )
            child = act["child"]
            if not (isinstance(child, int) and 0 <= child < n):
                raise GameValidationError(
                    f"node {old}: dangling child reference {child!r}"
                )
            kids.append(child)
        stack.extend(reversed(kids))
    for old in range(n):
        if new_id[old] < 0:
            raise GameValidationError(f"node {old}: unreachable from root")

    kind: list[str] = [""] * n
    parent = [-1] * n
    parent_action = [-1] * n
    depth = [0] * n
    player = [-1] * n
    infoset = [-1] * n
    children: list[tuple[int, ...]] = [()] * n
    labels: list[tuple[str, ...]] = [()] * n
    probs: list[tuple[float, ...] | None] = [None] * n
    utility = [0.0] * n

    infoset_ids: dict[Any, int] = {}
    infoset_members: list[list[int]] = []

    for old in order:
        h = new_id[old]
        raw = nodes[old]
        k = raw.get("kind")
        if k not in (CHANCE, PLAYER, TERMINAL):
            raise GameValidationError(f"node {old}: bad kind {k!r}")
        kind[h] = k
        actions = raw.get("actions", ())

        if k == TERMINAL:
            if actions:
                raise GameValidationError(
                    f"node {old}: terminal node with actions"
                )
            u = raw.get("utility")
            if not (isinstance(u, (int, float)) and not isinstance(u, bool)):
                raise GameValidationError(
                    f"node {old}: terminal needs a numeric utility"
                )
            utility[h] = _float(u)
            if not isfinite(utility[h]):
                raise GameValidationError(
                    f"node {old}: terminal utility {u!r} is not finite"
                )
            continue

        if "utility" in raw:
            raise GameValidationError(
                f"node {old}: utility on a non-terminal node"
            )
        if len(actions) == 0:
            raise GameValidationError(f"node {old}: node with zero actions")
        kid_ids = []
        kid_labels = []
        for j, act in enumerate(actions):
            label = act.get("label")
            if not isinstance(label, str):
                raise GameValidationError(
                    f"node {old}: action {j} missing label"
                )
            kid_labels.append(label)
            c = new_id[act["child"]]
            kid_ids.append(c)
            parent[c] = h
            parent_action[c] = j
            depth[c] = depth[h] + 1
        if len(set(kid_labels)) != len(kid_labels):
            raise GameValidationError(f"node {old}: duplicate action labels")
        children[h] = tuple(kid_ids)
        labels[h] = tuple(kid_labels)

        if k == CHANCE:
            if not all("prob" in act for act in actions):
                raise GameValidationError(
                    f"node {old}: chance action missing prob"
                )
            ps = tuple(
                _parse_prob(act["prob"], old) for act in actions
            )
            if not all(p >= 0.0 for p in ps):
                raise GameValidationError(f"node {old}: negative probability")
            if not (abs(sum(ps) - 1.0) <= _PROB_TOL):
                raise GameValidationError(
                    f"node {old}: probabilities sum to {sum(ps)!r}, not 1"
                )
            probs[h] = ps
        else:  # player node
            if any("prob" in act for act in actions):
                raise GameValidationError(
                    f"node {old}: probability on a player action"
                )
            p = raw.get("player")
            if not (isinstance(p, int) and 0 < p < len(players)):
                raise GameValidationError(
                    f"node {old}: bad acting player {p!r}"
                )
            player[h] = p
            raw_iset = raw.get("infoset")
            if raw_iset is None:
                raise GameValidationError(
                    f"node {old}: player node missing infoset"
                )
            if raw_iset not in infoset_ids:
                infoset_ids[raw_iset] = len(infoset_members)
                infoset_members.append([])
            i = infoset_ids[raw_iset]
            infoset[h] = i
            infoset_members[i].append(h)

    # Infoset consistency: one owner, identical action labels, one depth.
    infosets = []
    for i, members in enumerate(infoset_members):
        first = members[0]
        for h in members[1:]:
            if player[h] != player[first]:
                raise GameValidationError(
                    f"infoset {i}: members owned by different players"
                )
            if labels[h] != labels[first]:
                raise GameValidationError(
                    f"infoset {i}: action-label mismatch between members"
                )
            if depth[h] != depth[first]:
                raise GameValidationError(
                    f"infoset {i}: members at different depths (not timeable)"
                )
        infosets.append(
            Infoset(
                player=player[first],
                members=tuple(sorted(members)),
                actions=labels[first],
            )
        )

    return ExtensiveFormGame(
        players=players,
        team_of=tuple(team_of),
        kind=tuple(kind),
        parent=tuple(parent),
        parent_action=tuple(parent_action),
        depth=tuple(depth),
        player=tuple(player),
        infoset=tuple(infoset),
        children=tuple(children),
        labels=tuple(labels),
        probs=tuple(probs),
        utility=tuple(utility),
        infosets=tuple(infosets),
    )


def pure_strategy_value(
    g: ExtensiveFormGame, choice: Mapping[int, int]
) -> float:
    """Expected max-side utility when every infoset plays one fixed action.

    ``choice`` maps infoset id to action index for all players' infosets.
    Contributions are combined with an exactly-rounded sum, so the result
    does not depend on traversal order.
    """
    parts: list[float] = []
    stack: list[tuple[int, float]] = [(g.root, 1.0)]
    while stack:
        h, p = stack.pop()
        k = g.kind[h]
        if k == TERMINAL:
            parts.append(p * g.utility[h])
        elif k == CHANCE:
            for c, pr in zip(g.children[h], g.probs[h]):
                if pr:
                    stack.append((c, p * pr))
        else:
            stack.append((g.children[h][choice[g.infoset[h]]], p))
    return fsum(parts)


def parse_game(doc: Mapping[str, Any]) -> ExtensiveFormGame:
    """Parse and validate a JSON game document (already json.load-ed)."""
    if not isinstance(doc, Mapping):
        raise GameValidationError("game document must be an object")
    for field in ("players", "teams", "root", "nodes"):
        if field not in doc:
            raise GameValidationError(f"missing top-level field {field!r}")
    teams = doc["teams"]
    if not isinstance(teams, Mapping):
        raise GameValidationError('"teams" must be an object')
    return build_game(doc["players"], teams, doc["root"], doc["nodes"])


def serialize_game(g: ExtensiveFormGame) -> dict[str, Any]:
    """Inverse of :func:`parse_game` (up to id renumbering, exactly)."""
    nodes: list[dict[str, Any]] = []
    for h in range(g.num_nodes):
        k = g.kind[h]
        if k == TERMINAL:
            nodes.append({"kind": TERMINAL, "utility": g.utility[h]})
            continue
        actions: list[dict[str, Any]] = []
        for j, c in enumerate(g.children[h]):
            act: dict[str, Any] = {"label": g.labels[h][j], "child": c}
            if k == CHANCE:
                act["prob"] = g.probs[h][j]
            actions.append(act)
        node: dict[str, Any] = {"kind": k, "actions": actions}
        if k == PLAYER:
            node["player"] = g.player[h]
            node["infoset"] = g.infoset[h]
        nodes.append(node)
    return {
        "players": list(g.players),
        "teams": {
            MAX: list(g.side_players(MAX)),
            MIN: list(g.side_players(MIN)),
        },
        "root": 0,
        "nodes": nodes,
    }
