"""Benchmark generators: golden sizes, invariants, determinism."""

import gc
import hashlib
import json
import math

import pytest

from tbdag import (
    GameValidationError,
    MAX,
    MIN,
    ZooSpec,
    analyze,
    generate,
    list_presets,
    serialize_game,
)
from tbdag.game import GameWriter

# Golden sizes frozen from the first verified generation.
GOLDEN = {
    "fig2": (23, 12),
    "fig8": (45, 24),
    "fig9-C4": (41, 20),
    "fig9-C6": (75, 32),
    "fig9-C8": (117, 44),
    "fig9-C16": (365, 92),
    "2K3": (55, 30),
    "worst-k1b2d5": (26, 8),
    "worst-k2b2d6": (75, 24),
    "3K3[1]": (151, 78),
    "3K4[1]": (601, 312),
    "3L122[1]": (4297, 2040),
    "3D2[1]": (1017, 504),
}


@pytest.fixture(scope="module")
def presets():
    return list_presets()


def test_required_presets_present(presets):
    for name in ("3K3[1,3]", "fig2", "fig9-C16"):
        assert name in presets


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_sizes(presets, name):
    g = generate(presets[name])
    terminals = len(g.terminals)
    assert (g.num_nodes, terminals) == GOLDEN[name]


def test_deterministic_regeneration(presets):
    for name in ("fig2", "3K3[2]", "3D2[1,3]"):
        a = generate(presets[name])
        b = generate(presets[name])
        assert a == b
        assert serialize_game(a) == serialize_game(b)


def live_writers():
    return sum(isinstance(o, GameWriter) for o in gc.get_objects())


@pytest.mark.parametrize(
    "name", ["3K3[1]", "3L122[3]", "3D2[1]", "fig9-C8", "worst-k1b2d5"]
)
def test_generate_frees_its_writer(presets, name):
    # With the cycle collector off, only reference counting can free
    # the writer, so a reference cycle would keep it alive.
    gc.collect()
    gc.disable()
    try:
        before = live_writers()
        generate(presets[name])
        after = live_writers()
    finally:
        gc.enable()
    assert after == before


# SHA-256 of ``serialize_game`` for specs on paths no preset takes: a
# raise after a bet (Leduc, cap 2) and four-seat turn order (Kuhn).
OFF_PRESET = [
    (ZooSpec("leduc", players=2, bets=2, ranks=3, suits=2, min_team=(2,)),
     9451,
     "55c2f0a45159512cee57a8d3643841900ab3c85809e0f62c5345fad3801f3596"),
    (ZooSpec("kuhn", players=4, ranks=5, min_team=(2, 4)),
     7801,
     "9ec209bb73605fb414e11dc56afa1d4e3bc8d2e0904872cbf80d682f4e7f1dfb"),
]


@pytest.mark.parametrize("spec,nodes,digest", OFF_PRESET,
                         ids=["2L232", "4K5[2,4]"])
def test_off_preset_games_pinned(spec, nodes, digest):
    g = generate(spec)
    text = json.dumps(serialize_game(g), sort_keys=True)
    assert g.num_nodes == nodes
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "name", ["2K3", "3K3[1]", "3K3[1,3]", "3L122[2]", "3D2[3]"]
)
def test_chance_probabilities_exact(presets, name):
    g = generate(presets[name])
    for h in range(g.num_nodes):
        if g.kind[h] == "chance":
            assert math.isclose(sum(g.probs[h]), 1.0, abs_tol=1e-12)


class TestKuhn:
    def test_two_player_shape(self, presets):
        g = generate(presets["2K3"])
        # Six deals, nine nodes per deal, one root.
        assert g.num_nodes == 1 + 6 * 9
        assert len(g.side_infosets(MAX)) == 6
        assert len(g.side_infosets(MIN)) == 6

    def test_team_complement(self, presets):
        g = generate(presets["3K3[1,3]"])
        assert g.side_players(MAX) == (2,)
        assert g.side_players(MIN) == (1, 3)

    def test_bad_params(self):
        with pytest.raises(GameValidationError):
            generate(ZooSpec("kuhn", players=3, ranks=2, min_team=(1,)))
        with pytest.raises(GameValidationError):
            generate(ZooSpec("kuhn", players=2, ranks=3, min_team=(1, 2)))

    def test_action_order(self, presets):
        g = generate(presets["2K3"])
        for i in g.side_infosets(MAX):
            assert list(g.infosets[i].actions) in (
                ["check", "bet"],
                ["call", "fold"],
            )


class TestLeduc:
    def test_board_follows_first_round(self, presets):
        g = generate(presets["3L122[1]"])
        # Chance nodes: the deal plus one board reveal per live line.
        boards = [
            h
            for h in range(1, g.num_nodes)
            if g.kind[h] == "chance"
        ]
        assert boards
        deck = 4
        for h in boards:
            assert g.num_actions(h) == deck - 3

    def test_pair_beats_high_card(self):
        spec = ZooSpec(
            "leduc", players=2, bets=1, ranks=2, suits=2, min_team=(2,)
        )
        g = generate(spec)
        a = analyze(g, MAX)
        assert a.perfect_recall


class TestLiarsDice:
    def test_bid_grammar(self, presets):
        g = generate(presets["3D2[1]"])
        root_child = g.children(0)[0]
        labels = list(g.labels[root_child])
        assert labels == ["1x1", "1x2", "2x1", "2x2", "3x1", "3x2"]
        follow = g.children(root_child)[0]
        assert list(g.labels[follow]) == [
            "1x2",
            "2x1",
            "2x2",
            "3x1",
            "3x2",
            "liar",
        ]

    def test_payoffs_unit_zero_sum(self, presets):
        g = generate(presets["3D2[2]"])
        assert {g.utility[z] for z in g.terminals} <= {-1.0, 0.0, 1.0}


class TestGadgets:
    def test_fig2_counts(self, presets):
        g = generate(presets["fig2"])
        assert len(g.side_infosets(MAX)) == 4
        assert len(g.side_infosets(MIN)) == 2
        nontrivial = [
            i
            for i in g.side_infosets(MAX) + g.side_infosets(MIN)
            if len(g.infosets[i].members) > 1
        ]
        assert len(nontrivial) == 4

    def test_fig9_layers(self, presets):
        g = generate(presets["fig9-C6"])
        C = 6
        assert g.max_depth == C + 1
        layer = [
            i
            for i in g.side_infosets(MAX)
            if len(g.infosets[i].members) == 2
            and g.infosets[i].actions == ("0", "2")
        ]
        assert len(layer) == C - 2

    def test_worst_case_depth(self):
        for k, b, d in ((1, 2, 5), (2, 2, 6), (1, 3, 4), (2, 3, 7)):
            g = generate(ZooSpec("worst_case", k=k, branching=b, depth=d))
            assert g.max_depth == d
            kmax = analyze(g, MAX).k
            assert kmax >= k

    def test_worst_case_small_b_allowed(self):
        g = generate(ZooSpec("worst_case", k=2, branching=2, depth=6))
        assert g.num_nodes == 75

    def test_unknown_family(self):
        with pytest.raises(GameValidationError):
            generate(ZooSpec("nonexistent"))


def test_all_presets_zero_sum_scale(presets):
    """Terminal utilities stay desk-scale for every preset."""
    for name, spec in presets.items():
        if name == "3L133[1]":
            continue  # other splits share the generator path
        if spec.family == "leduc" and spec.ranks == 3:
            continue  # half-million nodes; covered by 3L122
        g = generate(spec)
        assert g.utility_scale <= 20
