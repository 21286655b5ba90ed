"""Action binarization and infoset inflation."""

import json
import math

import pytest

from tbdag import (
    GameValidationError,
    MAX,
    MIN,
    ZooSpec,
    analyze,
    binarize_actions,
    generate,
    inflate,
    list_presets,
    serialize_game,
)
from tbdag.cli import main
from tbdag.game import GameWriter, build_game


def game(name):
    return generate(list_presets()[name])


def leaf_profile(g):
    """Map each terminal to (chance reach, utility) for comparisons."""
    return sorted(
        (round(g.chance_reach[z], 12), g.utility[z]) for z in g.terminals
    )


class TestBinarize:
    @pytest.mark.parametrize(
        "name", ["fig2", "2K3", "3K3[2]", "3L122[3]", "3D2[1]"]
    )
    def test_branching_capped_and_k_preserved(self, name):
        g = game(name)
        gb = binarize_actions(g)
        assert gb.branching_factor <= 2
        for side in (MAX, MIN):
            assert analyze(gb, side).k == analyze(g, side).k

    @pytest.mark.parametrize("name", ["fig2", "2K3", "3D2[1]"])
    def test_leaves_preserved(self, name):
        g = game(name)
        gb = binarize_actions(g)
        assert leaf_profile(gb) == leaf_profile(g)

    def test_size_growth_logarithmic(self):
        g = game("3L122[1]")
        gb = binarize_actions(g)
        internal = g.num_nodes - len(g.terminals)
        bits = max(1, math.ceil(math.log2(g.branching_factor)))
        assert gb.num_nodes <= g.num_nodes + internal * (2**bits)

    def test_requires_action_recall(self):
        g = game("fig9-C4")
        with pytest.raises(GameValidationError, match="action recall"):
            binarize_actions(g)

    def test_timeable_result(self):
        gb = binarize_actions(game("3K3[1]"))
        for i in gb.side_infosets(MAX) + gb.side_infosets(MIN):
            depths = {gb.depth[h] for h in gb.infosets[i].members}
            assert len(depths) == 1

    def test_chance_mass_exact(self):
        g = game("2K3")
        gb = binarize_actions(g)
        total = sum(gb.chance_reach[z] for z in gb.terminals)
        assert math.isclose(
            total, sum(g.chance_reach[z] for z in g.terminals)
        )


def chain_game(levels):
    """Two players alternate down a line, each able to stop the game."""
    w = GameWriter()
    node = w.add_terminal(0.0)
    for t in range(levels, 0, -1):
        stop = w.add_terminal(float(t % 3 - 1))
        node = w.add_player(2 - t % 2, ("step", t),
                            [("stop", stop), ("go", node)])
    return build_game(["chance", "p1", "p2"], {MAX: [1], MIN: [2]}, node, w)


class TestDeepBinarize:
    # 700 levels: deeper than the interpreter's recursion limit allows
    # a rewrite that recurses once per level.
    def test_chain_binarizes(self):
        g = chain_game(700)
        assert (g.num_nodes, g.max_depth) == (1401, 700)
        gb = binarize_actions(g)
        assert (gb.num_nodes, gb.max_depth) == (2801, 1400)
        assert leaf_profile(gb) == leaf_profile(g)

    def test_analyze_parent_reads_linear(self):
        # The clique walk stops at an infoset's first one-node level, so
        # analyze reads parents a bounded number of times per node, not
        # once per node and level.
        g = binarize_actions(chain_game(700))

        class CountingList(list):
            reads = 0

            def __getitem__(self, i):
                CountingList.reads += 1
                return super().__getitem__(i)

        g.parent = CountingList(g.parent)
        analyze(g, MAX)
        assert CountingList.reads <= 2 * g.num_nodes

    def test_cli_build_binarize_exits_0(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(serialize_game(chain_game(700))))
        assert main(["build", str(path), "--binarize"]) == 0
        assert "error" not in capsys.readouterr().err


class TestInflate:
    def test_fig8_bottom_layer_splits(self):
        g = game("fig8")
        gi = inflate(g, MAX)
        before = {len(g.infosets[i].members) for i in g.side_infosets(MAX)}
        assert 2 in before
        # Five chained pairs split into ten singletons.
        assert len(gi.side_infosets(MAX)) == len(g.side_infosets(MAX)) + 5
        assert all(len(gi.infosets[i].members) == 1 for i in gi.side_infosets(MAX))

    def test_fig9_fixed_point(self):
        for C in (2, 3, 4, 6, 8, 12, 16, 20):
            g = generate(
                ZooSpec("inflation_counterexample_fig9", columns=C)
            )
            assert inflate(g, MAX) == g

    @pytest.mark.parametrize("name", ["fig2", "2K3", "3K3[1]", "3D2[2]"])
    def test_idempotent(self, name):
        g = game(name)
        gi = inflate(g, MAX)
        assert inflate(gi, MAX) == gi

    def test_poker_unchanged(self):
        # Betting games already separate every incompatible pair.
        for name in ("2K3", "3K3[1]"):
            g = game(name)
            assert inflate(g, MAX) == g
            assert inflate(g, MIN) == g

    def test_other_side_untouched(self):
        g = game("fig8")
        gi = inflate(g, MAX)
        assert len(gi.side_infosets(MIN)) == len(g.side_infosets(MIN))
        assert leaf_profile(gi) == leaf_profile(g)
