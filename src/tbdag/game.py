"""Arena-indexed extensive-form game trees.

A game is stored as flat columns indexed by dense node id, with ids
assigned in preorder (every parent id is smaller than its children's).
Children are kept in CSR form: one offset per node into one child
column.  Action labels are held once per infoset (shared by its member
nodes) and once per chance node, probabilities only at chance nodes.
The columns are read-only after construction, so games can be shared
freely between analyses and builders.

Every game is assembled by :func:`build_game` from the node and action
columns of a :class:`GameWriter`.  In-process producers (the zoo
generators, the belief game, binarization and inflation) append to a
writer directly.  Dict node records are the JSON wire format only:
:func:`parse_game` reads them and :func:`serialize_game` writes them.

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
from itertools import compress, islice
from math import fsum, inf, isfinite, isnan, nan
from numbers import Real
from operator import attrgetter, sub
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
    """Timeable game tree in struct-of-arrays form; treat it as read-only.

    Per-node columns (lists of length ``num_nodes``):

    - ``kind``: one of ``"chance"``, ``"player"``, ``"terminal"``.
    - ``parent`` / ``parent_action``: id and action index of the edge
      entering the node (``-1`` at the root).
    - ``depth``: edge distance from the root.
    - ``player``: acting player (``-1`` off player nodes).
    - ``infoset``: infoset id for player nodes, else ``-1``.
    - ``labels``: action labels.  A player node holds its infoset's
      ``actions`` tuple (the one copy), a chance node a tuple shared by
      every chance node with equal labels, a terminal ``()``.
    - ``probs``: chance outcome probabilities, a tuple at chance nodes
      (shared like their labels) and ``None`` elsewhere.
    - ``utility``: max-side payoff (``0.0`` off terminals).
    - ``chance_reach``: product of chance probabilities along the path
      from the root.

    Children are in CSR form: node ``h``'s actions are entries
    ``action_offset[h]`` up to ``action_offset[h + 1]`` (``num_nodes +
    1`` offsets) of ``action_child``, which holds one child id per edge
    of the tree.  ``children(h)`` is that slice.
    """

    __slots__ = (
        "players", "team_of", "kind", "parent", "parent_action", "depth",
        "player", "infoset", "action_offset", "action_child", "labels",
        "probs", "utility", "chance_reach", "infosets", "terminals",
        "max_depth", "branching_factor", "utility_scale", "_side_players",
        "_side_infosets", "_own_infoset",
    )

    def __init__(
        self, players, team_of, kind, parent, parent_action, depth, player,
        infoset, action_offset, action_child, labels, probs, utility,
        infosets, chance_reach,
    ):
        self.players, self.team_of, self.infosets = players, team_of, infosets
        self.kind, self.parent, self.depth = kind, parent, depth
        self.parent_action, self.player = parent_action, player
        self.infoset, self.utility = infoset, utility
        self.action_offset, self.action_child = action_offset, action_child
        self.labels, self.probs = labels, probs
        self.chance_reach = chance_reach
        self.terminals = tuple(
            compress(range(len(kind)), map(TERMINAL.__eq__, kind))
        )
        self.max_depth = max(depth, default=0)
        # Only internal nodes have children, and each has at least one.
        widths = map(sub, islice(action_offset, 1, None), action_offset)
        self.branching_factor = max(widths, default=0)
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
        self._own_infoset: dict[str, list[int]] = {}

    # -- basic accessors -------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.kind)

    @property
    def root(self) -> int:
        return 0

    def side_players(self, side: str) -> tuple[int, ...]:
        """Player indices belonging to one team (``"max"`` or ``"min"``)."""
        check_side(side)
        return self._side_players[side]

    def side_infosets(self, side: str) -> tuple[int, ...]:
        """Infoset ids owned by any player of the given team."""
        check_side(side)
        return self._side_infosets[side]

    def own_infoset(self, side: str) -> list[int]:
        """Per node, its infoset id where a player of ``side`` acts and
        ``-1`` elsewhere; built on first use."""
        col = self._own_infoset.get(side)
        if col is None:
            check_side(side)
            # Indexed by player; the extra last entry serves player -1.
            mine = [t == side for t in self.team_of] + [False]
            col = self._own_infoset[side] = [
                i if mine[p] else -1 for i, p in zip(self.infoset, self.player)
            ]
        return col

    def children(self, h: int) -> list[int]:
        """Child ids of node ``h`` in action order."""
        off = self.action_offset
        return self.action_child[off[h]: off[h + 1]]

    def num_actions(self, h: int) -> int:
        return self.action_offset[h + 1] - self.action_offset[h]

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, ExtensiveFormGame):
            return NotImplemented
        return (
            self.players == other.players
            and self.team_of == other.team_of
            and self.kind == other.kind
            and self.parent == other.parent
            and self.action_offset == other.action_offset
            and self.action_child == other.action_child
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
    """Node and action columns for :func:`build_game`.

    Per node: ``kind``, ``player`` (``-1`` off player nodes), ``infoset``
    (any hashable key; ``None`` off player nodes) and ``utility``
    (``0.0`` off terminals).  Per action: ``label``, ``child`` and
    ``prob`` (a float at chance actions, ``None`` elsewhere).  Node
    ``n`` owns actions ``action_offset[n]`` up to ``action_offset[n +
    1]``: the actions appended after node ``n - 1`` and up to node ``n``
    itself, so each node's actions are contiguous.  A producer that
    numbers a child after its parent appends the action with child
    ``-1`` and sets ``child`` once the child exists.  A large producer
    may make ``child`` and ``action_offset`` int arrays, so that no int
    object per action stays alive.  Nodes may be written in any order:
    ``build_game`` renumbers them to preorder.
    """

    __slots__ = (
        "kind", "player", "infoset", "utility", "action_offset",
        "label", "child", "prob",
    )

    def __init__(self):
        self.kind: list[str] = []
        self.player: list[Any] = []
        self.infoset: list[Hashable] = []
        self.utility: list[float] = []
        self.action_offset: list[int] = [0]
        self.label: list[str] = []
        self.child: list[int] = []
        self.prob: list[float | None] = []

    def add(self, kind, player, infoset, actions=(), utility=0.0) -> int:
        """Append one node with its actions, ``(label, child)`` tuples or
        ``(label, child, prob)`` at a chance node; returns its id."""
        label, child, prob = self.label, self.child, self.prob
        for act in actions:
            label.append(act[0])
            child.append(act[1])
            prob.append(act[2] if len(act) > 2 else None)
        self.kind.append(kind)
        self.player.append(player)
        self.infoset.append(infoset)
        self.utility.append(utility)
        self.action_offset.append(len(child))
        return len(self.kind) - 1

    def add_chance(self, actions: Iterable[tuple]) -> int:
        return self.add(CHANCE, -1, None, actions)

    def add_player(self, player: int, infoset: Hashable, actions) -> int:
        return self.add(PLAYER, player, infoset, actions)

    def add_terminal(self, utility: float) -> int:
        return self.add(TERMINAL, -1, None, (), utility)


def _is_id(value: Any) -> bool:
    """Whether ``value`` can be a node or player id (an int, not a bool)."""
    return isinstance(value, int) and value is not True and value is not False


def _action_error(old: int, kind: str, kids, n: int) -> GameValidationError:
    """The error for a node whose actions fail the walk's checks."""
    for c in kids:
        if not 0 <= c < n:
            return GameValidationError(
                f"node {old}: dangling child reference {c!r}"
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
    """Validate writer columns and assemble a game.

    One walk from ``root`` in preorder (following action order) checks
    the tree and every node, and writes each finished column once, in
    the new ids: node ids are renumbered to that preorder and infoset
    keys to dense ids in order of first appearance, so two structurally
    identical inputs produce identical games no matter how their ids
    were assigned.  The CSR child column is filled as each child gets
    its id.  A player node keeps its infoset's label tuple rather than a
    copy, and equal chance label and probability tuples are shared.
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
    utils, first = columns.utility, columns.action_offset
    label, child, prob = columns.label, columns.child, columns.prob
    n = len(kinds)
    if n == 0:
        raise GameValidationError("nodes array is empty")
    if not (_is_id(root) and 0 <= root < n):
        raise GameValidationError(f"bad root id {root!r}")

    kind: list[str] = [TERMINAL] * n
    parent, parent_action, player, infoset = ([-1] * n for _ in range(4))
    depth, offset, kids = [0] * n, [0] * (n + 1), [-1] * len(child)
    labels: list[tuple[str, ...]] = [()] * n
    probs: list[tuple[float, ...] | None] = [None] * n
    utility, reach = [0.0] * n, [1.0] * n
    infoset_ids: dict[Hashable, int] = {}
    infoset_members: list[list[int]] = []
    infoset_labels: list[tuple[str, ...]] = []
    mislabeled: set[int] = set()
    shared: dict[tuple, tuple] = {}

    # One preorder walk: renumber nodes, detect sharing and cycles, check
    # each node, multiply chance reach down the tree and fill the CSR
    # columns.  ``walked`` marks the input ids already met; ``up`` and
    # ``up_action`` hold the new parent id and the entering action by
    # input id.
    walked = bytearray(n)
    up, up_action = [-1] * n, [-1] * n
    stack = [root]
    push = stack.append
    h = -1
    pos = 0  # CSR offset of the next node's first action
    while stack:
        old = stack.pop()
        if walked[old]:
            raise GameValidationError(
                f"node {old}: reached twice (not a tree)"
            )
        walked[old] = 1
        h += 1
        offset[h] = pos
        p = up[old]
        if p >= 0:
            parent[h] = p
            a = parent_action[h] = up_action[old]
            kids[offset[p] + a] = h
            depth[h] = depth[p] + 1
            edge = probs[p]  # None below a player node; x * 1.0 is x
            reach[h] = (reach[p] if edge is None or edge[a] == 1.0
                        else reach[p] * edge[a])
        k = kinds[old]
        a0, a1 = first[old], first[old + 1]

        if k == TERMINAL:
            if a1 > a0:
                raise GameValidationError(
                    f"node {old}: terminal node with actions"
                )
            u = utility[h] = utils[old]
            if not isfinite(u):
                raise GameValidationError(
                    f"node {old}: terminal utility {u!r} is not finite"
                )
            continue
        if k != PLAYER and k != CHANCE:
            raise GameValidationError(f"node {old}: bad kind {k!r}")
        if a1 == a0:
            raise GameValidationError(f"node {old}: node with zero actions")
        kind[h] = k
        cs, ps = child[a0:a1], prob[a0:a1]
        j = a1 - a0
        # A chance node needs every probability, a player node none.
        if ps.count(None) != (0 if k == CHANCE else j):
            raise _action_error(old, k, cs, n)
        while j:  # push last to first, so children pop in action order
            j -= 1
            c = cs[j]
            if not 0 <= c < n:
                raise _action_error(old, k, cs, n)
            up[c] = h
            up_action[c] = j
            push(c)
        pos += a1 - a0
        # Labels seen before passed the duplicate check then: a chance
        # node's in ``shared``, a player node's as its infoset's labels.
        labs = tuple(label[a0:a1])
        if k == CHANCE:
            seen = shared.get(labs)
        else:
            key = keys[old]
            i = None if key is None else infoset_ids.get(key)
            seen = None if i is None else infoset_labels[i]
        if labs != seen and len(labs) > 1 and len(set(labs)) != len(labs):
            raise GameValidationError(f"node {old}: duplicate action labels")

        if k == CHANCE:
            labels[h] = seen or shared.setdefault(labs, labs)
            ps = tuple(ps)
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
            # 0.0 == -0.0, so a tuple holding a zero keeps its own signs.
            probs[h] = ps if 0.0 in ps else shared.setdefault(ps, ps)
            continue
        pl = owners[old]
        if not (_is_id(pl) and 0 < pl < n_players):
            raise GameValidationError(f"node {old}: bad acting player {pl!r}")
        player[h] = pl
        if key is None:
            raise GameValidationError(f"node {old}: player node missing infoset")
        if i is None:
            i = infoset_ids[key] = len(infoset_members)
            infoset_members.append([h])
            infoset_labels.append(shared.setdefault(labs, labs))
        else:
            infoset_members[i].append(h)
            if labs != seen:
                mislabeled.add(h)
        infoset[h] = i
        labels[h] = infoset_labels[i]
    if h + 1 < n:
        raise GameValidationError(
            f"node {walked.index(0)}: unreachable from root"
        )
    offset[n] = pos
    del walked, up, up_action, shared, infoset_ids

    # Infoset consistency: one owner, identical action labels, one depth.
    infosets = []
    for i, members in enumerate(infoset_members):
        first_member = members[0]
        for h in members[1:]:
            if player[h] != player[first_member]:
                raise GameValidationError(
                    f"infoset {i}: members owned by different players"
                )
            if h in mislabeled:
                raise GameValidationError(
                    f"infoset {i}: action-label mismatch between members"
                )
            if depth[h] != depth[first_member]:
                raise GameValidationError(
                    f"infoset {i}: members at different depths (not timeable)"
                )
        infosets.append(Infoset(
            player[first_member], tuple(members), infoset_labels[i]
        ))

    return ExtensiveFormGame(
        players, tuple(team_of), kind, parent, parent_action, depth, player,
        infoset, offset, kids, labels, probs, utility, tuple(infosets), reach,
    )


def pure_strategy_value(
    g: ExtensiveFormGame, choice: Mapping[int, int]
) -> float:
    """Expected max-side utility when every infoset plays one fixed action.

    ``choice`` maps infoset id to action index for all players' infosets.
    Each player node the walk reaches checks its infoset's entry the way
    :func:`tbdag.belief.map_pure_strategy` does: a missing entry, or one
    that is not an int index into the actions (a bool included), is an
    error there; entries the walk never reaches are ignored.
    Contributions are combined with an exactly-rounded sum, so the result
    does not depend on traversal order.
    """
    kind, infoset, utility, probs = g.kind, g.infoset, g.utility, g.probs
    reach, off, kids = g.chance_reach, g.action_offset, g.action_child
    parts: list[float] = []
    stack = [g.root]
    pop, push = stack.pop, stack.append
    while stack:
        h = pop()
        k = kind[h]
        if k == TERMINAL:
            parts.append(utility[h] * reach[h])
        elif k == CHANCE:
            for j, pr in enumerate(probs[h], off[h]):  # j: the action's slot
                if pr:
                    push(kids[j])
        else:
            i, a0 = infoset[h], off[h]
            try:
                a = choice[i]
            except KeyError:
                raise GameValidationError(
                    f"strategy has no action at infoset {i}"
                ) from None
            width = off[h + 1] - a0
            if not (_is_id(a) and 0 <= a < width):
                raise GameValidationError(bad_action(i, a, width))
            push(kids[a0 + a])
    return fsum(parts)


def bad_action(infoset: int, action: Any, n_actions: int) -> str:
    """The error message for a pure strategy's out-of-range action."""
    return (
        f"strategy plays action {action!r} at infoset {infoset}, "
        f"which has {n_actions} actions"
    )


def check_side(side: Any) -> None:
    """Reject a side that is neither ``"max"`` nor ``"min"``."""
    if side not in (MAX, MIN):
        raise GameValidationError(f"unknown side {side!r}")


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
    label, child_of, prob = w.label, w.child, w.prob
    for old, raw in enumerate(nodes):
        if not (type(raw) is dict or isinstance(raw, Mapping)):
            raise GameValidationError(f"node {old}: not an object")
        k = raw.get("kind")
        acts = raw.get("actions", [])
        if not isinstance(acts, list):
            raise GameValidationError(f"node {old}: actions must be a list")
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
            lab = act.get("label")
            if not isinstance(lab, str):
                raise GameValidationError(
                    f"node {old}: action {j} missing label"
                )
            label.append(lab)
            child_of.append(child)
            if "prob" not in act:
                prob.append(None)
            elif k == CHANCE:
                prob.append(_parse_prob(act["prob"], old))
            else:
                # An error off a chance node, a JSON null one included.
                prob.append(nan if act["prob"] is None else act["prob"])
        if k == TERMINAL:  # the node owns the actions just appended
            u = raw.get("utility")
            if not (isinstance(u, (int, float)) and not isinstance(u, bool)):
                raise GameValidationError(
                    f"node {old}: terminal needs a numeric utility"
                )
            w.add(k, -1, None, (), _float(u))
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
        w.add(k, raw.get("player"), key)
    return build_game(players, teams, doc["root"], w)


def serialize_game(g: ExtensiveFormGame) -> dict[str, Any]:
    """Inverse of :func:`parse_game` (up to id renumbering, exactly)."""
    # Actions are in node order, so each node takes the next ones from
    # one iterator; zip reads its labels first and stops on them.
    child_of = iter(g.action_child)
    nodes: list[dict[str, Any]] = []
    for h in range(g.num_nodes):
        k = g.kind[h]
        if k == TERMINAL:
            nodes.append({"kind": TERMINAL, "utility": g.utility[h]})
            continue
        actions: list[dict[str, Any]] = []
        if k == CHANCE:
            for lab, c, p in zip(g.labels[h], child_of, g.probs[h]):
                actions.append({"label": lab, "child": c, "prob": p})
            nodes.append({"kind": k, "actions": actions})
            continue
        for lab, c in zip(g.labels[h], child_of):
            actions.append({"label": lab, "child": c})
        nodes.append({"kind": k, "actions": actions, "player": g.player[h],
                      "infoset": g.infoset[h]})
    return {
        "players": list(g.players),
        "teams": {
            MAX: list(g.side_players(MAX)),
            MIN: list(g.side_players(MIN)),
        },
        "root": 0,
        "nodes": nodes,
    }
