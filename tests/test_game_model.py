"""Game container, parser, serializer, and validation errors."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbdag import (
    CHANCE,
    MAX,
    MIN,
    ExtensiveFormGame,
    GameValidationError,
    PLAYER,
    TERMINAL,
    analyze,
    build_tbdag,
    coordinator_view,
    count_tbdag,
    enumeration_oracle,
    generate,
    list_presets,
    make_belief_game,
    map_pure_strategy,
    parse_game,
    sequence_form,
    serialize_game,
)
from tbdag.game import GameWriter, build_game
from tbdag.transforms import binarize_actions, inflate

from test_acceptance import SMALL_ZOO


def tiny_doc():
    """Chance flips a coin; player 1 matches; player 2 is a bystander."""
    return {
        "players": ["chance", "alice", "bob"],
        "teams": {"max": [1], "min": [2]},
        "root": 0,
        "nodes": [
            {
                "kind": "chance",
                "actions": [
                    {"label": "h", "child": 1, "prob": "1/2"},
                    {"label": "t", "child": 4, "prob": 0.5},
                ],
            },
            {
                "kind": "player",
                "player": 1,
                "infoset": 7,
                "actions": [
                    {"label": "h", "child": 2},
                    {"label": "t", "child": 3},
                ],
            },
            {"kind": "terminal", "utility": 1.0},
            {"kind": "terminal", "utility": -1.0},
            {
                "kind": "player",
                "player": 1,
                "infoset": 7,
                "actions": [
                    {"label": "h", "child": 5},
                    {"label": "t", "child": 6},
                ],
            },
            {"kind": "terminal", "utility": -1.0},
            {"kind": "terminal", "utility": 1.0},
        ],
    }


class TestParsing:
    def test_round_trip(self):
        g = parse_game(tiny_doc())
        doc = serialize_game(g)
        g2 = parse_game(doc)
        assert g == g2
        assert doc["root"] == 0
        assert [n["kind"] for n in doc["nodes"]][:2] == [CHANCE, PLAYER]

    def test_depth_and_reach(self):
        g = parse_game(tiny_doc())
        assert g.max_depth == 2
        assert all(g.depth[z] == 2 for z in g.terminals)
        assert all(math.isclose(g.chance_reach[z], 0.5) for z in g.terminals)

    def test_infosets_dense_by_first_touch(self):
        g = parse_game(tiny_doc())
        infosets = [g.infosets[i] for i in g.side_infosets(MAX)]
        assert len(infosets) == 1
        assert infosets[0].members == (1, 4)
        assert infosets[0].actions == ("h", "t")

    def test_fraction_probabilities_exact(self):
        g = parse_game(tiny_doc())
        assert g.probs[0] == (0.5, 0.5)

    def test_preorder_ids(self):
        for name in ("fig2", "2K3"):
            g = generate(list_presets()[name])
            seen = [False] * g.num_nodes
            seen[0] = True
            for h in range(g.num_nodes):
                for c in g.children(h):
                    assert c > h, "children must come after parents"
                    seen[c] = True
            assert all(seen)

    def test_structural_equality_ignores_doc_ordering(self):
        doc = tiny_doc()
        g = parse_game(doc)
        # Renaming the raw infoset key cannot change the dense result.
        doc["nodes"][1]["infoset"] = "left-or-right"
        doc["nodes"][4]["infoset"] = "left-or-right"
        assert parse_game(doc) == g


class TestValidation:
    def test_team_partition_required(self):
        doc = tiny_doc()
        doc["teams"] = {"max": [1, 2], "min": [2]}
        with pytest.raises(GameValidationError):
            parse_game(doc)

    def test_dangling_child(self):
        doc = tiny_doc()
        doc["nodes"][1]["actions"][0]["child"] = 99
        with pytest.raises(GameValidationError):
            parse_game(doc)

    def test_node_reached_twice(self):
        doc = tiny_doc()
        doc["nodes"][1]["actions"][1]["child"] = 2
        with pytest.raises(GameValidationError):
            parse_game(doc)

    def test_action_label_mismatch_in_infoset(self):
        doc = tiny_doc()
        doc["nodes"][4]["actions"][0]["label"] = "x"
        with pytest.raises(GameValidationError, match="label"):
            parse_game(doc)

    def test_non_timeable_infoset(self):
        doc = tiny_doc()
        # Hang node 4's twin one level deeper: same infoset, new depth.
        doc["nodes"][2] = {
            "kind": "player",
            "player": 1,
            "infoset": 7,
            "actions": [
                {"label": "h", "child": 7},
                {"label": "t", "child": 8},
            ],
        }
        doc["nodes"].append({"kind": "terminal", "utility": 0.0})
        doc["nodes"].append({"kind": "terminal", "utility": 0.0})
        with pytest.raises(GameValidationError, match="timeable"):
            parse_game(doc)

    def test_probabilities_must_sum_to_one(self):
        doc = tiny_doc()
        doc["nodes"][0]["actions"][0]["prob"] = 0.4
        with pytest.raises(GameValidationError, match="sum"):
            parse_game(doc)

    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf, 10**400])
    def test_non_finite_utility_rejected(self, u):
        doc = tiny_doc()
        doc["nodes"][2]["utility"] = u
        with pytest.raises(GameValidationError, match="not finite"):
            parse_game(doc)

    @pytest.mark.parametrize("p", [math.nan, math.inf, "1e400"])
    def test_non_finite_probability_rejected(self, p):
        doc = tiny_doc()
        doc["nodes"][0]["actions"][0]["prob"] = p
        with pytest.raises(GameValidationError, match="non-finite"):
            parse_game(doc)

    def test_passing_checks_format_no_message(self):
        # Every id and number below refuses to be printed, so a check
        # that formats its message before it fails would raise here.
        class Mute(int):
            def __repr__(self):
                raise AssertionError("formatted a message for a passing check")

            __str__ = __repr__

            def __format__(self, spec):
                return repr(self)

        class MuteFloat(float):
            def __repr__(self):
                raise AssertionError("formatted a message for a passing check")

        doc = tiny_doc()
        doc["root"] = Mute(0)
        doc["teams"] = {"max": [Mute(1)], "min": [Mute(2)]}
        for raw in doc["nodes"]:
            for act in raw.get("actions", ()):
                act["child"] = Mute(act["child"])
                if isinstance(act.get("prob"), float):
                    act["prob"] = MuteFloat(act["prob"])
            if "player" in raw:
                raw["player"] = Mute(raw["player"])
            if "utility" in raw:
                raw["utility"] = MuteFloat(raw["utility"])
        assert parse_game(doc) == parse_game(tiny_doc())

    def test_zero_action_node_rejected(self):
        doc = tiny_doc()
        doc["nodes"][1]["actions"] = []
        with pytest.raises(GameValidationError):
            parse_game(doc)

    def test_terminal_with_actions_rejected(self):
        doc = tiny_doc()
        doc["nodes"][2] = {
            "kind": "terminal",
            "utility": 1.0,
            "actions": [{"label": "x", "child": 3}],
        }
        with pytest.raises(GameValidationError):
            parse_game(doc)

    def test_chance_prob_missing(self):
        doc = tiny_doc()
        del doc["nodes"][0]["actions"][0]["prob"]
        with pytest.raises(GameValidationError):
            parse_game(doc)

    def test_duplicate_labels_rejected(self):
        doc = tiny_doc()
        doc["nodes"][1]["actions"][1]["label"] = "h"
        with pytest.raises(GameValidationError):
            parse_game(doc)


def _set_players(doc, v):
    doc["players"] = v


def _set_nodes(doc, v):
    doc["nodes"] = v


def _set_team(doc, v):
    doc["teams"]["max"] = v


def _set_actions(doc, v):
    doc["nodes"][1]["actions"] = v


def _set_infoset(doc, v):
    doc["nodes"][1]["infoset"] = v


def _set_child(doc, v):
    doc["nodes"][0]["actions"][0]["child"] = v


def _set_player(doc, v):
    doc["nodes"][1]["player"] = v


def _set_team_member(doc, v):
    doc["teams"]["max"] = [v]


def _set_root(doc, v):
    doc["root"] = v


class TestMalformedShapes:
    """JSON of the wrong shape is a validation error naming the field,
    never a TypeError or KeyError from deep inside the reader."""

    @pytest.mark.parametrize(
        "mutate,value,message",
        [
            (_set_players, "chance", '"players" must be a list'),
            (_set_nodes, {"0": {"kind": "terminal", "utility": 0}},
             '"nodes" must be a list'),
            (_set_team, 1, "team 'max' must be a list"),
            (_set_actions, {"label": "h", "child": 2},
             "node 1: actions must be a list"),
            (_set_actions, None, "node 1: actions must be a list"),
            (_set_infoset, [7], "node 1: infoset must be a number or a string"),
            (_set_infoset, {"id": 7},
             "node 1: infoset must be a number or a string"),
            (_set_infoset, True,
             "node 1: infoset must be a number or a string"),
            (_set_infoset, False,
             "node 1: infoset must be a number or a string"),
            (_set_child, True, "node 0: dangling child reference True"),
            (_set_player, True, "node 1: bad acting player True"),
            (_set_team_member, True, "team 'max': bad player index True"),
            (_set_root, True, "bad root id True"),
            (_set_root, False, "bad root id False"),
        ],
    )
    def test_rejected_with_the_field_named(self, mutate, value, message):
        doc = tiny_doc()
        mutate(doc, value)
        with pytest.raises(GameValidationError) as exc:
            parse_game(doc)
        assert str(exc.value).startswith(message)

    def test_integer_ids_still_accepted(self):
        doc = tiny_doc()
        doc["nodes"][1]["player"] = 1
        assert parse_game(doc) == parse_game(tiny_doc())

    def test_infoset_keys_merge_only_equal_numbers(self):
        # Nodes 1 and 4 share the key 7 in the tiny document.
        doc = tiny_doc()
        doc["nodes"][4]["infoset"] = 7.0
        assert parse_game(doc) == parse_game(tiny_doc())
        doc["nodes"][4]["infoset"] = "7"
        assert len(parse_game(doc).infosets) == 2
        # ``true`` would otherwise merge with ``1``.
        doc["nodes"][1]["infoset"] = True
        doc["nodes"][4]["infoset"] = 1
        with pytest.raises(GameValidationError, match="node 1: infoset"):
            parse_game(doc)

    def test_empty_nodes_rejected(self):
        doc = tiny_doc()
        doc["nodes"] = []
        with pytest.raises(GameValidationError, match="nodes array is empty"):
            parse_game(doc)



# The coin-matching game as writer rows ``(kind, player, infoset,
# actions, utility)``, not in preorder.  Input ids: 2 is the root chance
# node, 1 and 4 are alice's two nodes in infoset ``"k"``, and 0, 3, 5, 6
# are terminals; preorder is 2, 1, 0, 3, 4, 5, 6.
_TINY_ROWS = (
    (TERMINAL, -1, None, (), 1.0),
    (PLAYER, 1, "k", [("h", 0), ("t", 3)], 0.0),
    (CHANCE, -1, None, [("h", 1, 0.5), ("t", 4, 0.5)], 0.0),
    (TERMINAL, -1, None, (), -1.0),
    (PLAYER, 1, "k", [("h", 5), ("t", 6)], 0.0),
    (TERMINAL, -1, None, (), -1.0),
    (TERMINAL, -1, None, (), 1.0),
)


_PLAYERS = ("chance", "alice", "bob")
_TEAMS = {MAX: [1], MIN: [2]}


def _fault(players=_PLAYERS, teams=_TEAMS, root=2, **edits):
    """Build arguments for the tiny game with single-node edits.

    Each edit ``node<i>=(kind, player, infoset, actions, utility)``
    replaces input node ``i`` (appending it if ``i`` is new); a value of
    None empties the writer.
    """
    rows = list(_TINY_ROWS)
    for key, row in edits.items():
        if row is None:
            rows = []
            continue
        i = int(key[4:])
        if i == len(rows):
            rows.append(row)
        else:
            rows[i] = row
    w = GameWriter()
    for row in rows:
        w.add(*row)
    return players, teams, root, w


_NAN, _INF = float("nan"), float("inf")
_BUILD_GAME_FAULTS = {
    "players empty": (_fault(players=()), "players list is empty"),
    "players[0]": (
        _fault(players=("nature", "alice", "bob")),
        'players[0] must be "chance"',
    ),
    "team keys": (
        _fault(teams={MAX: [1]}),
        'teams must have exactly the keys "max" and "min"',
    ),
    "team index": (
        _fault(teams={MAX: [1], MIN: [3]}), "team 'min': bad player index 3"
    ),
    "team chance": (
        _fault(teams={MAX: [0, 1], MIN: [2]}),
        "team 'max': bad player index 0",
    ),
    "two teams": (
        _fault(teams={MAX: [1, 2], MIN: [2]}), "player 2 listed in two teams"
    ),
    "no team": (
        _fault(teams={MAX: [1], MIN: []}), "player 2 belongs to no team"
    ),
    "empty nodes": (_fault(node0=None), "nodes array is empty"),
    "root out of range": (_fault(root=7), "bad root id 7"),
    "root negative": (_fault(root=-1), "bad root id -1"),
    "root bool": (_fault(root=False), "bad root id False"),
    "shared child": (
        _fault(node4=(PLAYER, 1, "k", [("h", 5), ("t", 3)], 0.0)),
        "node 3: reached twice (not a tree)",
    ),
    "cycle": (
        _fault(node1=(PLAYER, 1, "k", [("h", 2), ("t", 3)], 0.0)),
        "node 2: reached twice (not a tree)",
    ),
    "dangling child": (
        _fault(node1=(PLAYER, 1, "k", [("h", 0), ("t", 99)], 0.0)),
        "node 1: dangling child reference 99",
    ),
    "negative child": (
        _fault(node1=(PLAYER, 1, "k", [("h", 0), ("t", -3)], 0.0)),
        "node 1: dangling child reference -3",
    ),
    "missing prob": (
        _fault(node2=(CHANCE, -1, None, [("h", 1), ("t", 4, 0.5)], 0.0)),
        "node 2: chance action missing prob",
    ),
    "prob on player action": (
        _fault(node4=(PLAYER, 1, "k", [("h", 5), ("t", 6, 0.5)], 0.0)),
        "node 4: probability on a player action",
    ),
    "bad kind": (
        _fault(node1=("decision", 1, "k", [("h", 0), ("t", 3)], 0.0)),
        "node 1: bad kind 'decision'",
    ),
    "unhashable kind": (
        _fault(node1=(["player"], 1, "k", [("h", 0), ("t", 3)], 0.0)),
        "node 1: bad kind ['player']",
    ),
    "zero actions": (
        _fault(node1=(PLAYER, 1, "k", [], 0.0)),
        "node 1: node with zero actions",
    ),
    "terminal with actions": (
        _fault(node0=(TERMINAL, -1, None, [("x", 5)], 1.0)),
        "node 0: terminal node with actions",
    ),
    "nan utility": (
        _fault(node3=(TERMINAL, -1, None, (), _NAN)),
        "node 3: terminal utility nan is not finite",
    ),
    "infinite utility": (
        _fault(node6=(TERMINAL, -1, None, (), -_INF)),
        "node 6: terminal utility -inf is not finite",
    ),
    "duplicate labels": (
        _fault(node2=(CHANCE, -1, None, [("h", 1, 0.5), ("h", 4, 0.5)], 0.0)),
        "node 2: duplicate action labels",
    ),
    "nan probability": (
        _fault(node2=(CHANCE, -1, None, [("h", 1, 0.5), ("t", 4, _NAN)], 0.0)),
        "node 2: non-finite probability nan",
    ),
    "infinite probability": (
        _fault(node2=(CHANCE, -1, None, [("h", 1, _INF), ("t", 4, 0.5)], 0.0)),
        "node 2: non-finite probability inf",
    ),
    "negative probability": (
        _fault(node2=(CHANCE, -1, None, [("h", 1, -0.5), ("t", 4, 1.5)], 0.0)),
        "node 2: negative probability",
    ),
    "probabilities sum": (
        _fault(node2=(CHANCE, -1, None, [("h", 1, 0.4), ("t", 4, 0.5)], 0.0)),
        "node 2: probabilities sum to 0.9, not 1",
    ),
    "chance player out of range": (
        _fault(node4=(PLAYER, 3, "k", [("h", 5), ("t", 6)], 0.0)),
        "node 4: bad acting player 3",
    ),
    "chance as acting player": (
        _fault(node1=(PLAYER, 0, "k", [("h", 0), ("t", 3)], 0.0)),
        "node 1: bad acting player 0",
    ),
    "acting player bool": (
        _fault(node1=(PLAYER, True, "k", [("h", 0), ("t", 3)], 0.0)),
        "node 1: bad acting player True",
    ),
    "acting player str": (
        _fault(node1=(PLAYER, "1", "k", [("h", 0), ("t", 3)], 0.0)),
        "node 1: bad acting player '1'",
    ),
    "missing infoset": (
        _fault(node4=(PLAYER, 1, None, [("h", 5), ("t", 6)], 0.0)),
        "node 4: player node missing infoset",
    ),
    "unreachable node": (
        _fault(node7=(TERMINAL, -1, None, (), 0.0)),
        "node 7: unreachable from root",
    ),
    "infoset player mismatch": (
        _fault(node4=(PLAYER, 2, "k", [("h", 5), ("t", 6)], 0.0)),
        "infoset 0: members owned by different players",
    ),
    "infoset label mismatch": (
        _fault(node4=(PLAYER, 1, "k", [("h", 5), ("x", 6)], 0.0)),
        "infoset 0: action-label mismatch between members",
    ),
    "infoset depth mismatch": (
        _fault(
            node3=(PLAYER, 1, "k", [("h", 7), ("t", 8)], 0.0),
            node7=(TERMINAL, -1, None, (), 0.0),
            node8=(TERMINAL, -1, None, (), 0.0),
        ),
        "infoset 0: members at different depths (not timeable)",
    ),
    "second infoset mismatch": (
        _fault(
            node1=(PLAYER, 1, "j", [("h", 0), ("t", 3)], 0.0),
            node3=(PLAYER, 2, "m", [("a", 7)], 0.0),
            node5=(PLAYER, 1, "m", [("a", 8)], 0.0),
            node7=(TERMINAL, -1, None, (), 0.0),
            node8=(TERMINAL, -1, None, (), 0.0),
        ),
        "infoset 1: members owned by different players",
    ),
}


class TestBuildGameMessages:
    """Each single fault of writer columns gets its exact message."""

    def test_tiny_writer_builds(self):
        g = build_game(*_fault())
        assert g == parse_game(tiny_doc())

    @pytest.mark.parametrize(
        "args,message",
        list(_BUILD_GAME_FAULTS.values()),
        ids=list(_BUILD_GAME_FAULTS),
    )
    def test_exact_message(self, args, message):
        with pytest.raises(GameValidationError) as exc:
            build_game(*args)
        assert str(exc.value) == message


class TestBuildGameWalk:
    def test_shared_chain_is_caught_without_walking_every_path(self):
        # Every node's two actions lead to the same next node: 2**60
        # paths, so a walk that followed each one would never end.  The
        # preorder walk goes down the first actions to the last node and
        # meets it again through the second action of node 59.
        w = GameWriter()
        for i in range(60):
            w.add(PLAYER, 1, ("d", i), [("a", i + 1), ("b", i + 1)])
        w.add(TERMINAL, -1, None, (), 0.0)
        with pytest.raises(GameValidationError) as exc:
            build_game(_PLAYERS, _TEAMS, 0, w)
        assert str(exc.value) == "node 60: reached twice (not a tree)"

    @pytest.mark.parametrize("node,action,child,drop_prob", [
        (1, 1, 10**30, False),
        # The action's width is wrong and its last entry is no
        # probability; it is reported by its child, never converted.
        (0, 1, 10**309, True),
    ], ids=["10**30", "10**309 without prob"])
    def test_huge_child_id_is_dangling(self, node, action, child, drop_prob):
        doc = tiny_doc()
        act = doc["nodes"][node]["actions"][action]
        act["child"] = child
        if drop_prob:
            del act["prob"]
        with pytest.raises(GameValidationError) as exc:
            parse_game(doc)
        assert str(exc.value) == f"node {node}: dangling child reference {child}"

    def test_ids_need_not_be_preorder(self):
        # The same tree written leaves first builds the same game.
        doc = tiny_doc()
        order = [6, 5, 3, 2, 4, 1, 0]  # new position of each old node
        nodes = [None] * len(order)
        for old, node in enumerate(doc["nodes"]):
            for act in node.get("actions", ()):
                act["child"] = order[act["child"]]
            nodes[order[old]] = node
        doc["nodes"], doc["root"] = nodes, order[0]
        assert parse_game(doc) == parse_game(tiny_doc())


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_tree_round_trip(data):
    """parse(serialize(g)) is the identical structure for random trees."""
    nodes = []

    def grow(depth):
        idx = len(nodes)
        nodes.append(None)
        if depth >= 3 or (idx > 0 and data.draw(st.booleans())):
            nodes[idx] = {
                "kind": "terminal",
                "utility": data.draw(
                    st.integers(min_value=-3, max_value=3)
                ),
            }
            return idx
        width = data.draw(st.integers(min_value=1, max_value=3))
        kids = [grow(depth + 1) for _ in range(width)]
        if data.draw(st.booleans()):
            nodes[idx] = {
                "kind": "chance",
                "actions": [
                    {
                        "label": f"c{i}",
                        "child": c,
                        "prob": f"1/{width}",
                    }
                    for i, c in enumerate(kids)
                ],
            }
        else:
            nodes[idx] = {
                "kind": "player",
                "player": data.draw(st.sampled_from([1, 2])),
                "infoset": ("solo", idx),
                "actions": [
                    {"label": f"a{i}", "child": c}
                    for i, c in enumerate(kids)
                ],
            }
        return idx

    grow(0)
    doc = {
        "players": ["chance", "p1", "p2"],
        "teams": {"max": [1], "min": [2]},
        "root": 0,
        "nodes": nodes,
    }
    g = parse_game(doc)
    assert parse_game(serialize_game(g)) == g
    assert g.num_nodes == len(nodes)


def _flat_format_holds(g):
    """The node format's invariants: CSR children that agree with the
    parent columns, labels held once per infoset, probabilities only at
    chance nodes, and an exact JSON round trip."""
    n, off, kids = g.num_nodes, g.action_offset, g.action_child
    assert len(off) == n + 1 and off[0] == 0 and off[n] == len(kids)
    assert sorted(kids) == list(range(1, n))  # every non-root node once
    for h in range(n):
        cs = kids[off[h]: off[h + 1]]
        assert cs == g.children(h)
        assert [g.parent[c] for c in cs] == [h] * len(cs)
        assert [g.parent_action[c] for c in cs] == list(range(len(cs)))
        k = g.kind[h]
        assert (k == TERMINAL) == (not cs)
        assert len(g.labels[h]) == len(cs)
        if k == PLAYER:
            assert g.labels[h] is g.infosets[g.infoset[h]].actions
        if k == CHANCE:
            assert len(g.probs[h]) == len(cs)
        else:
            assert g.probs[h] is None
    assert parse_game(serialize_game(g)) == g


def _rewrites(g):
    """``g``, its inflation on each side that has players, and its
    binarization where both sides have action recall."""
    out = [g]
    out += [inflate(g, side) for side in (MAX, MIN) if g.side_players(side)]
    try:
        out.append(binarize_actions(g))
    except GameValidationError as exc:
        assert "lacks action recall" in str(exc)
    return out


# SMALL_ZOO presets whose belief games stay under 10,000 nodes.  The
# others (44,000 to 187,000 nodes, and 1.5 million for fig9-C16) take
# seconds per rewrite.
_SMALL_BELIEF = tuple(
    n for n in SMALL_ZOO
    if not n.startswith(("3D2", "3K4"))
    and n not in ("fig9-C16", "worst-k2b2d6")
)


class TestFlatFormat:
    @pytest.mark.parametrize("name", SMALL_ZOO)
    def test_invariants_hold(self, name):
        for g in _rewrites(generate(list_presets()[name])):
            _flat_format_holds(g)

    @pytest.mark.parametrize("name", _SMALL_BELIEF)
    def test_invariants_hold_on_belief_games(self, name):
        g = generate(list_presets()[name])
        for compact in (False, True):
            try:
                bg = make_belief_game(g, compact=compact).game
            except GameValidationError as exc:
                assert compact and "not timeable" in str(exc)
                continue
            for rewritten in _rewrites(bg):
                _flat_format_holds(rewritten)

    def test_chance_tuples_are_shared_but_keep_signed_zeros(self):
        def coin(first, second, p):
            return {"kind": "chance", "actions": [
                {"label": "x", "child": first, "prob": p},
                {"label": "y", "child": second, "prob": 1.0},
            ]}

        g = parse_game({
            "players": ["chance", "alice", "bob"],
            "teams": {"max": [1], "min": [2]},
            "root": 0,
            "nodes": [
                {"kind": "chance", "actions": [
                    {"label": "a", "child": 1, "prob": 0.5},
                    {"label": "b", "child": 4, "prob": 0.5},
                ]},
                coin(2, 3, 0.0),
                {"kind": "terminal", "utility": 1.0},
                {"kind": "terminal", "utility": -1.0},
                coin(5, 6, -0.0),
                {"kind": "terminal", "utility": 1.0},
                {"kind": "terminal", "utility": -1.0},
            ],
        })
        assert g.labels[1] is g.labels[4]
        signs = [math.copysign(1.0, g.probs[h][0]) for h in (1, 4)]
        assert signs == [1.0, -1.0]
        doc = serialize_game(g)
        assert doc["nodes"][4]["actions"][0]["prob"] == 0.0
        assert math.copysign(1.0, doc["nodes"][4]["actions"][0]["prob"]) == -1


# Every entry point that takes a side, called on fig2 with side "banana".
SIDE_ENTRIES = {
    "own_infoset": lambda g, side: g.own_infoset(side),
    "analyze": analyze,
    "coordinator_view": coordinator_view,
    "build_tbdag": build_tbdag,
    "count_tbdag": count_tbdag,
    "sequence_form": sequence_form,
    "inflate": inflate,
    "enumeration_oracle": lambda g, side: enumeration_oracle(g, side, {}),
    "map_pure_strategy": (
        lambda g, side: map_pure_strategy(make_belief_game(g), side, {})
    ),
}


@pytest.mark.parametrize("entry", SIDE_ENTRIES.values(), ids=SIDE_ENTRIES)
def test_unknown_side_rejected(entry):
    g = generate(list_presets()["fig2"])
    with pytest.raises(GameValidationError) as err:
        entry(g, "banana")
    assert str(err.value) == "unknown side 'banana'"
    # Nothing is memoized for the bad side.
    assert set(g._own_infoset) <= {MAX, MIN}
