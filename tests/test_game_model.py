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
    generate,
    list_presets,
    parse_game,
    serialize_game,
)


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
                for c in g.children[h]:
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

    def test_empty_nodes_rejected(self):
        doc = tiny_doc()
        doc["nodes"] = []
        with pytest.raises(GameValidationError, match="nodes array is empty"):
            parse_game(doc)


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
