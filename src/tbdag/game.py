"""Arena-indexed extensive-form game trees.

A game is stored as parallel tuples indexed by dense node id, with ids
assigned in preorder (every parent id is smaller than its children's).
All structures are immutable after construction, so games can be shared
freely between analyses and builders.

Every game is assembled by :func:`build_game` from node columns held by
a :class:`GameWriter`.  In-process producers (the zoo generators, the
belief game, binarization and inflation) append to a writer directly.
Dict node records are the JSON wire format only: :func:`parse_game`
reads them and :func:`serialize_game` writes them.

The JSON wire format is
``{"players": [...], "teams": {"max": [...], "min": [...]}, "root": n,
"nodes": [...]}`` where player index 0 is reserved for chance, every
other player index appears in exactly one team list, and each node is
one of::

    {"kind": "chance",   "actions": [{"label": str, "child": int, "prob": number|"num/den"}, ...]}
    {"kind": "player",   "player": int, "infoset": int|str,
                         "actions": [{"label": str, "child": int}, ...]}
    {"kind": "terminal", "utility": number}

Utilities are from the max side's point of view; the min side receives
their negation.  Infosets are implicit: player nodes sharing an
``infoset`` key are mutually indistinguishable to their owner.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import fsum, inf, isfinite, isnan
from numbers import Real
from operator import attrgetter
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


@dataclass(frozen=True, slots=True)
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
    - ``player``: acting player (``-1`` off player nodes).
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
        chance_reach: tuple[float, ...],
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
        self.chance_reach = chance_reach
        self.terminals = tuple(
            compress(range(len(kind)), map(TERMINAL.__eq__, kind))
        )
        self.max_depth = max(depth, default=0)
        # Only internal nodes have children, and each has at least one.
        self.branching_factor = max(map(len, children), default=0)
        self.utility_scale = max(
            map(abs, map(utility.__getitem__, self.terminals)), default=0.0
        )
        self._side_players = {
            side: tuple(p for p in range(len(players)) if team_of[p] == side)
            for side in (MAX, MIN)
        }
        iset_side = list(map(
            team_of.__getitem__, map(attrgetter("player"), infosets)
        ))
        self._side_infosets = {
            side: tuple(compress(range(len(infosets)),
                                 map(side.__eq__, iset_side)))
            for side in (MAX, MIN)
        }

    # -- basic accessors -------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.kind)

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


# -- assembly ------------------------------------------------------------


class GameWriter:
    """Node columns for :func:`build_game`, appended one node at a time.

    ``kind``, ``player`` (``-1`` off player nodes), ``infoset`` (any
    hashable key; ``None`` off player nodes), ``actions`` and ``utility``
    (``0.0`` off terminals) are parallel lists indexed by node id.  An
    action is a ``(label, child)`` tuple, or ``(label, child, prob)`` at a
    chance node; probabilities and utilities are floats.  Nodes may be
    written in any order: ``build_game`` renumbers them to preorder.
    """

    __slots__ = ("kind", "player", "infoset", "actions", "utility")

    def __init__(self):
        self.kind: list[str] = []
        self.player: list[Any] = []
        self.infoset: list[Hashable] = []
        self.actions: list[Sequence[tuple]] = []
        self.utility: list[float] = []

    def add(self, kind, player, infoset, actions, utility=0.0):
        """Append one node; returns its id."""
        self.kind.append(kind)
        self.player.append(player)
        self.infoset.append(infoset)
        self.actions.append(actions)
        self.utility.append(utility)
        return len(self.kind) - 1

    def add_chance(self) -> tuple[int, list[tuple]]:
        """A chance node and its action list, to be filled by the caller."""
        actions: list[tuple] = []
        return self.add(CHANCE, -1, None, actions), actions

    def add_player(self, player: int, infoset: Hashable):
        """A player node and its action list, to be filled by the caller."""
        actions: list[tuple] = []
        return self.add(PLAYER, player, infoset, actions), actions

    def add_terminal(self, utility: float) -> int:
        return self.add(TERMINAL, -1, None, (), utility)


def _is_id(value: Any) -> bool:
    """Whether ``value`` can be a node or player id (an int, not a bool)."""
    return isinstance(value, int) and value is not True and value is not False


def _action_error(
    old: int, kind: str, acts: Sequence[tuple], n: int
) -> GameValidationError:
    """The error for a node whose actions fail the walk's checks."""
    for act in acts:
        if not 0 <= act[1] < n:
            return GameValidationError(
                f"node {old}: dangling child reference {act[1]!r}"
            )
    if kind == CHANCE:
        return GameValidationError(f"node {old}: chance action missing prob")
    return GameValidationError(f"node {old}: probability on a player action")


def build_game(
    players: Sequence[str],
    teams: Mapping[str, Iterable[int]],
    root: int,
    columns: GameWriter,
) -> ExtensiveFormGame:
    """Validate node columns and assemble a game.

    One walk from ``root`` in preorder (following action order) checks
    the tree and every node.  Node ids are renumbered to that preorder
    and infoset keys to dense ids in order of first appearance, so two
    structurally identical inputs produce identical games no matter how
    their ids were assigned.
    """
    players = tuple(str(p) for p in players)
    if not players:
        raise GameValidationError("players list is empty")
    if players[0] != CHANCE:
        raise GameValidationError('players[0] must be "chance"')
    n_players = len(players)

    team_of: list[str | None] = [None] * n_players
    if set(teams.keys()) != {MAX, MIN}:
        raise GameValidationError(
            'teams must have exactly the keys "max" and "min"'
        )
    for side in (MAX, MIN):
        for p in teams[side]:
            if not (_is_id(p) and 0 < p < n_players):
                raise GameValidationError(
                    f"team {side!r}: bad player index {p!r}"
                )
            if team_of[p] is not None:
                raise GameValidationError(f"player {p} listed in two teams")
            team_of[p] = side
    for p in range(1, n_players):
        if team_of[p] is None:
            raise GameValidationError(f"player {p} belongs to no team")

    kinds, owners, keys = columns.kind, columns.player, columns.infoset
    actions, utils = columns.actions, columns.utility
    n = len(kinds)
    if n == 0:
        raise GameValidationError("nodes array is empty")
    if not (_is_id(root) and 0 <= root < n):
        raise GameValidationError(f"bad root id {root!r}")

    kind: list[str] = [TERMINAL] * n
    parent = [-1] * n
    parent_action = [-1] * n
    depth = [0] * n
    player = [-1] * n
    infoset = [-1] * n
    children: list[tuple[int, ...]] = [()] * n
    labels: list[tuple[str, ...]] = [()] * n
    probs: list[tuple[float, ...] | None] = [None] * n
    utility = [0.0] * n
    reach = [1.0] * n
    infoset_ids: dict[Hashable, int] = {}
    infoset_members: list[list[int]] = []

    # One preorder walk: renumber nodes, detect sharing and cycles, check
    # each node and multiply chance reach down the tree.  ``up`` and
    # ``up_action`` hold the new parent id and the entering action by
    # input id; ``children`` holds input ids until the end.
    new_id = [-1] * n
    up = [-1] * n
    up_action = [-1] * n
    stack = [root]
    h = -1
    while stack:
        old = stack.pop()
        if new_id[old] >= 0:
            raise GameValidationError(
                f"node {old}: reached twice (not a tree)"
            )
        h += 1
        new_id[old] = h
        p = up[old]
        if p >= 0:
            parent[h] = p
            a = parent_action[h] = up_action[old]
            depth[h] = depth[p] + 1
            edge = probs[p]  # None below a player node
            reach[h] = reach[p] if edge is None else reach[p] * edge[a]
        k = kinds[old]
        acts = actions[old]

        if k == TERMINAL:
            if acts:
                raise GameValidationError(
                    f"node {old}: terminal node with actions"
                )
            u = utility[h] = utils[old]
            if not isfinite(u):
                raise GameValidationError(
                    f"node {old}: terminal utility {u!r} is not finite"
                )
            continue
        if k == PLAYER:
            width = 2
        elif k == CHANCE:
            width = 3
        else:
            raise GameValidationError(f"node {old}: bad kind {k!r}")
        if not acts:
            raise GameValidationError(f"node {old}: node with zero actions")
        kind[h] = k
        j = len(acts)
        while j:  # push last to first, so children pop in action order
            j -= 1
            act = acts[j]
            c = act[1]
            if len(act) != width or not 0 <= c < n:
                raise _action_error(old, k, acts, n)
            up[c] = h
            up_action[c] = j
            stack.append(c)
        labs, kids, *ps = zip(*acts)
        if len(labs) > 1 and len(set(labs)) != len(labs):
            raise GameValidationError(f"node {old}: duplicate action labels")

        if k == CHANCE:
            ps = ps[0]
            if not all(map(isfinite, ps)):
                bad = next(x for x in ps if not isfinite(x))
                raise GameValidationError(
                    f"node {old}: non-finite probability {bad!r}"
                )
            if min(ps) < 0.0:
                raise GameValidationError(f"node {old}: negative probability")
            if not (abs(sum(ps) - 1.0) <= _PROB_TOL):
                raise GameValidationError(
                    f"node {old}: probabilities sum to {sum(ps)!r}, not 1"
                )
            probs[h] = ps
        else:  # player node
            pl = owners[old]
            if not (
                isinstance(pl, int) and pl is not True and 0 < pl < n_players
            ):
                raise GameValidationError(
                    f"node {old}: bad acting player {pl!r}"
                )
            player[h] = pl
            key = keys[old]
            if key is None:
                raise GameValidationError(
                    f"node {old}: player node missing infoset"
                )
            i = infoset_ids.get(key)
            if i is None:
                i = infoset_ids[key] = len(infoset_members)
                infoset_members.append([h])
            else:
                infoset_members[i].append(h)
            infoset[h] = i
        labels[h] = labs
        children[h] = kids
    if h + 1 < n:
        raise GameValidationError(
            f"node {new_id.index(-1)}: unreachable from root"
        )
    if new_id != list(range(n)):
        children = [tuple(map(new_id.__getitem__, c)) for c in children]

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
                members=tuple(members),
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
        chance_reach=tuple(reach),
    )


def pure_strategy_value(
    g: ExtensiveFormGame, choice: Mapping[int, int]
) -> float:
    """Expected max-side utility when every infoset plays one fixed action.

    ``choice`` maps infoset id to action index for all players' infosets;
    an index out of range is an error at the first node that plays it.
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
            kids, i = g.children[h], g.infoset[h]
            a = choice[i]
            if not 0 <= a < len(kids):
                raise GameValidationError(bad_action(i, a, len(kids)))
            stack.append((kids[a], p))
    return fsum(parts)


def bad_action(infoset: int, action: Any, n_actions: int) -> str:
    """The error message for a pure strategy's out-of-range action."""
    return (
        f"strategy plays action {action!r} at infoset {infoset}, "
        f"which has {n_actions} actions"
    )


def check_budget(what: str, budget: Any) -> None:
    """Reject a budget that is not a number of at least 1 (NaN and bools
    included); ``inf`` means no limit."""
    if (
        isinstance(budget, bool)
        or not isinstance(budget, Real)
        or isnan(budget)
        or budget < 1
    ):
        raise GameValidationError(
            f"{what} must be a number of at least 1, not {budget!r}"
        )


# -- the JSON wire format -------------------------------------------------


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
    return _float(number)


def parse_game(doc: Mapping[str, Any]) -> ExtensiveFormGame:
    """Parse and validate a JSON game document (already json.load-ed).

    This is the one reader of dict node records: it checks the JSON type
    of every field and hands the nodes to :func:`build_game` as columns.
    An infoset key is a JSON number or string.  Equal numbers (``1`` and
    ``1.0``) name one infoset, a number and a string (``7`` and ``"7"``)
    name two, and ``true``/``false`` are rejected rather than read as
    ``1``/``0``.
    """
    if not isinstance(doc, Mapping):
        raise GameValidationError("game document must be an object")
    for field in ("players", "teams", "root", "nodes"):
        if field not in doc:
            raise GameValidationError(f"missing top-level field {field!r}")
    players, teams, nodes = doc["players"], doc["teams"], doc["nodes"]
    if not isinstance(players, list):
        raise GameValidationError('"players" must be a list')
    if not isinstance(teams, Mapping):
        raise GameValidationError('"teams" must be an object')
    for side, members in teams.items():
        if not isinstance(members, list):
            raise GameValidationError(f"team {side!r} must be a list")
    if not isinstance(nodes, list):
        raise GameValidationError('"nodes" must be a list')

    w = GameWriter()
    for old, raw in enumerate(nodes):
        if not (type(raw) is dict or isinstance(raw, Mapping)):
            raise GameValidationError(f"node {old}: not an object")
        k = raw.get("kind")
        acts = raw.get("actions", [])
        if not isinstance(acts, list):
            raise GameValidationError(f"node {old}: actions must be a list")
        row = []
        for j, act in enumerate(acts):
            if not (type(act) is dict or isinstance(act, Mapping)) or (
                "child" not in act
            ):
                raise GameValidationError(
                    f"node {old}: action {j} missing child"
                )
            child = act["child"]
            if not _is_id(child):
                raise GameValidationError(
                    f"node {old}: dangling child reference {child!r}"
                )
            label = act.get("label")
            if not isinstance(label, str):
                raise GameValidationError(
                    f"node {old}: action {j} missing label"
                )
            if "prob" not in act:
                row.append((label, child))
            elif k == CHANCE:
                row.append((label, child, _parse_prob(act["prob"], old)))
            else:
                row.append((label, child, act["prob"]))
        if k == TERMINAL:
            u = raw.get("utility")
            if not (isinstance(u, (int, float)) and not isinstance(u, bool)):
                raise GameValidationError(
                    f"node {old}: terminal needs a numeric utility"
                )
            w.add(k, -1, None, row, _float(u))
            continue
        if "utility" in raw:
            raise GameValidationError(
                f"node {old}: utility on a non-terminal node"
            )
        key = raw.get("infoset")
        if k == PLAYER and isinstance(key, (list, dict, bool)):
            raise GameValidationError(
                f"node {old}: infoset must be a number or a string, "
                f"not {key!r}"
            )
        w.add(k, raw.get("player"), key, row)
    return build_game(players, teams, doc["root"], w)


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
