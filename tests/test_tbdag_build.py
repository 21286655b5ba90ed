"""Belief-DAG construction: structure, reductions, counting, bounds."""

import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

import tbdag.build
from tbdag import (
    BudgetExceededError,
    GameValidationError,
    MAX,
    MIN,
    PLAYER,
    ZooSpec,
    analyze,
    build_tbdag,
    check_size_bounds,
    count_tbdag,
    dag_cfr_strategy,
    dag_signature,
    generate,
    inflate,
    list_presets,
    make_belief_game,
    parse_game,
    sequence_form,
    solve,
)
from tbdag.build import tbdag_to_doc
from test_acceptance import SMALL_ZOO

# Per preset and side: the first 16 hex digits of the raw and reduced
# observation-split signatures, and the public-split count triple.
PINS = json.loads((Path(__file__).parent / "dag_pins.json").read_text())


def game(name):
    return generate(list_presets()[name])


def sizes(dag):
    return dag.stats.n_dec, dag.stats.n_obs, dag.stats.n_edges


def pure_flow(dag, sigma):
    """Local one-hot strategy following infoset map ``sigma``."""
    p = dag.problem
    r = np.zeros(p.n_act)
    for d in range(p.n_dec):
        a0, a1 = p.dec_aoff[d], p.dec_aoff[d + 1]
        for a in range(a0, a1):
            prescr = dag.prescriptions[a]
            if all(
                sigma[i] == act
                for i, act in zip(dag.dec_infosets[d], prescr)
            ):
                r[a] = 1.0
                break
    return dag_cfr_strategy(p, r)


def tree_reached(g, side, sigma, z):
    """Whether ``sigma`` keeps every own choice on the path to ``z``."""
    h = z
    while h != g.root:
        parent = g.parent[h]
        if g.kind[parent] == PLAYER and g.team_of[g.player[parent]] == side:
            if sigma[g.infoset[parent]] != g.parent_action[h]:
                return False
        h = parent
    return True


class TestRawStructure:
    def test_fig2_max_observation(self):
        g = game("fig2")
        dag = build_tbdag(g, MAX, reduce=False)
        assert sizes(dag) == (12, 21, 52)
        assert dag.stats.max_fanout == 4
        # The widest point is the two-message belief: both sender
        # states plausible, two infosets of two actions each.
        assert dag.stats.max_fanout_belief == (1, 12)
        assert dag.stats.dedup_hits == 4
        assert dag.stats.prescription_bound == 27
        assert dag.beliefs[dag.problem.root_dec] == (g.root,)

    def test_fig2_all_sides_and_splits(self):
        g = game("fig2")
        expect = {
            (MAX, "observation"): (12, 21, 52),
            (MAX, "public"): (10, 21, 58),
            (MIN, "observation"): (6, 8, 25),
            (MIN, "public"): (5, 7, 23),
        }
        for (side, split), want in expect.items():
            dag = build_tbdag(g, side, split=split, reduce=False)
            assert sizes(dag) == want, (side, split)

    def test_prescriptions_cover_meeting_infosets(self):
        g = game("3K3[2]")
        dag = build_tbdag(g, MAX, reduce=False)
        p = dag.problem
        for d in range(p.n_dec):
            isets = dag.dec_infosets[d]
            span = range(p.dec_aoff[d], p.dec_aoff[d + 1])
            seen = {dag.prescriptions[a] for a in span}
            # One action per full prescription, no duplicates.
            assert len(seen) == len(span)
            for prescr in seen:
                assert len(prescr) == len(isets)

    def test_observation_points_never_shared(self):
        g = game("fig2")
        dag = build_tbdag(g, MAX, reduce=False)
        p = dag.problem
        assert p.n_obs == p.n_act + 1

    def test_beliefs_memoized_across_parents(self):
        g = game("fig2")
        dag = build_tbdag(g, MAX, reduce=False)
        assert len(set(dag.beliefs)) == dag.problem.n_dec
        assert dag.stats.dedup_hits > 0


class TestReduction:
    @pytest.mark.parametrize("side", [MAX, MIN])
    def test_kuhn_collapses_to_sequence_form(self, side):
        g = game("2K3")
        red = build_tbdag(g, side)
        seq = sequence_form(g, side)
        # Six infosets plus the start decision; one observation point
        # per action history including the empty one.
        assert red.problem.n_dec == seq.n_dec == 7
        assert red.stats.n_obs == seq.n_obs - 1 == 13

    @pytest.mark.parametrize("name,side,split", [
        ("fig2", MAX, "observation"),
        ("fig2", MIN, "observation"),
        ("fig2", MAX, "public"),
        ("2K3", MAX, "observation"),
        ("3K3[1]", MAX, "observation"),
        ("3K3[1,2]", MIN, "public"),
        ("worst-k2b2d6", MAX, "observation"),
    ])
    def test_reduction_preserves_realizations(self, name, side, split):
        g = game(name)
        raw = build_tbdag(g, side, split=split, reduce=False)
        red = build_tbdag(g, side, split=split)
        infosets = sorted(g.side_infosets(side))
        rng = random.Random(20240817)
        for _ in range(25):
            sigma = {
                i: rng.randrange(g.infosets[i].num_actions)
                for i in infosets
            }
            raw_flow = pure_flow(raw, sigma)
            red_flow = pure_flow(red, sigma)
            raw_flow.check_conservation()
            red_flow.check_conservation()
            for z in g.terminals:
                want = float(tree_reached(g, side, sigma, z))
                got = raw_flow.terminal_flow[raw.slot_of_terminal[z]]
                assert got == pytest.approx(want), (z, sigma)
            for s, grp in enumerate(red.slot_groups):
                want = float(tree_reached(g, side, sigma, grp[0]))
                # Every member of a slot group shares one coordinator
                # history, hence one realization weight.
                for z in grp[1:]:
                    assert tree_reached(g, side, sigma, z) == bool(want)
                assert red_flow.terminal_flow[s] == pytest.approx(want)

    def test_reduced_never_larger(self):
        for name in ("fig2", "fig8", "2K3", "3K3[2]", "3D2[1]"):
            g = game(name)
            for side in (MAX, MIN):
                raw = build_tbdag(g, side, reduce=False)
                red = build_tbdag(g, side)
                assert red.stats.n_edges <= raw.stats.n_edges
                assert red.problem.n_dec <= raw.problem.n_dec

    @pytest.mark.parametrize("name", SMALL_ZOO)
    def test_every_terminal_lands_in_one_group(self, name):
        # Slots are assigned while expanding, when a terminal is first
        # reached; the groups must still cover every terminal once.
        g = game(name)
        for side in (MAX, MIN):
            a = analyze(g, side)
            for reduce in (False, True):
                dag = build_tbdag(g, side, reduce=reduce, analysis=a)
                groups = dag.slot_groups
                seen = [z for grp in groups for z in grp]
                assert sorted(seen) == sorted(g.terminals)
                assert dag.slot_of_terminal == {
                    z: s for s, grp in enumerate(groups) for z in grp
                }
                assert set(dag.problem.payload.tolist()) == set(
                    range(len(groups))
                )
                if reduce:
                    keys = [{a.view.seq_of[z] for z in grp} for grp in groups]
                    assert all(len(k) == 1 for k in keys)
                    assert len(set.union(*keys)) == len(groups)
                else:
                    assert all(len(grp) == 1 for grp in groups)


class TestSizeBounds:
    # Every preset whose team-side DAG fits comfortably in memory.
    SMALL = [
        "fig2", "fig8", "fig9-C4", "fig9-C6", "fig9-C8", "2K3",
        "worst-k1b2d5", "worst-k2b2d6",
        "3K3[1]", "3K3[2]", "3K3[3]", "3K3[1,2]", "3K3[1,3]", "3K3[2,3]",
        "3K4[1]", "3K4[2]", "3K4[3]", "3K4[1,2]", "3K4[1,3]", "3K4[2,3]",
        "3D2[1]", "3D2[2]", "3D2[3]", "3D2[1,2]", "3D2[1,3]", "3D2[2,3]",
    ]

    def test_edge_bound_all_small_presets(self):
        for name in self.SMALL:
            g = game(name)
            for side in (MAX, MIN):
                a = analyze(g, side)
                dag = build_tbdag(g, side, reduce=False, analysis=a)
                report = check_size_bounds(dag, a)
                assert report["slack"] >= 1.0, name

    def test_analysis_of_the_other_side_rejected(self):
        g = game("fig2")
        dag = build_tbdag(g, MAX)
        with pytest.raises(GameValidationError) as err:
            check_size_bounds(dag, analyze(g, MIN))
        assert str(err.value) == "analysis is for side 'min', not 'max'"
        report = check_size_bounds(dag, analyze(g, MAX))
        assert (report["k"], report["bound"]) == (3, 1863)

    def test_analysis_of_another_game_rejected(self):
        dag = build_tbdag(game("3K3[1]"), MAX)
        with pytest.raises(GameValidationError) as err:
            check_size_bounds(dag, analyze(game("fig2"), MAX))
        assert str(err.value) == "analysis is for a different game"
        # An equal game built separately is the same game.
        check_size_bounds(dag, analyze(game("3K3[1]"), MAX))

    def test_report_holds_bound_slack_and_k(self):
        report = check_size_bounds(build_tbdag(game("fig2"), MAX))
        assert set(report) == {"bound", "slack", "k"}

    def test_bounds_read_the_dags_own_analysis(self, monkeypatch):
        g = game("fig2")
        dag = build_tbdag(g, MAX)
        assert dag.k == analyze(g, MAX).k

        def no_analyze(*args):
            raise AssertionError("check_size_bounds analyzed again")

        monkeypatch.setattr(tbdag.build, "analyze", no_analyze)
        report = check_size_bounds(dag)
        assert (report["k"], report["bound"]) == (3, 1863)

    def test_fanout_within_prescription_bound(self):
        for name in ("fig2", "3K3[2]", "worst-k2b2d6"):
            g = game(name)
            for side in (MAX, MIN):
                dag = build_tbdag(g, side, reduce=False)
                assert dag.stats.max_fanout <= dag.stats.prescription_bound


class TestCounting:
    # Sides past this many edges (fig9-C16 max and the 13.9M-edge 3D2
    # sides) are too large to build; there both must abort at the cap.
    CAP = 10**6

    @pytest.mark.parametrize("name", SMALL_ZOO)
    def test_count_matches_build(self, name):
        g = game(name)
        for side in (MAX, MIN):
            a = analyze(g, side)
            try:
                cnt = count_tbdag(g, side, edge_budget=self.CAP)
            except BudgetExceededError:
                with pytest.raises(BudgetExceededError):
                    build_tbdag(
                        g, side, split="public", reduce=False,
                        analysis=a, edge_budget=self.CAP,
                    )
                continue
            dag = build_tbdag(g, side, split="public", reduce=False, analysis=a)
            assert cnt == sizes(dag), side

    def test_count_budget_boundary(self):
        g = game("fig9-C8")
        assert count_tbdag(g, MAX, edge_budget=16_598) == (509, 3985, 16598)
        with pytest.raises(BudgetExceededError) as err:
            count_tbdag(g, MAX, edge_budget=16_597)
        assert str(err.value) == (
            "edge budget 16597 exceeded while expanding a belief of 2 nodes "
            "at depth 8 with 4 prescriptions (16598 edges counted so far)"
        )

    def test_count_discovery_abort_says_where(self):
        # One public state below the root holds 20 infosets with two
        # child sets each: 2^20 child-belief combinations to discover.
        g = generate(ZooSpec("worst_case", k=20, branching=2, depth=4))
        with pytest.raises(BudgetExceededError) as err:
            count_tbdag(g, MAX, split="public")
        assert str(err.value) == (
            "child-belief discovery needs 1048576 combinations while "
            "expanding a belief of 40 nodes at depth 1 with 1048576 "
            "prescriptions (2097154 edges counted so far)"
        )

    def test_count_observation_defers_to_build(self):
        g = game("fig2")
        assert count_tbdag(g, MAX, split="observation") == (12, 21, 52)

    @staticmethod
    def raw_edges(g, side):
        """Edges of the unreduced observation- and public-split DAGs."""
        obs = build_tbdag(g, side, reduce=False).stats.n_edges
        return obs, count_tbdag(g, side, split="public")[2]

    def test_split_edges_fig2(self):
        assert self.raw_edges(game("fig2"), MAX) == (52, 58)

    def test_split_edges_blowup_direction(self):
        # Coarser grouping can only add rows to a belief, never drop
        # any, so the public DAG is never cheaper than refining first.
        for name in ("fig8", "fig9-C8", "3K4[2]", "3D2[3]"):
            obs, pub = self.raw_edges(game(name), MAX)
            assert pub >= obs, name

    def test_count_budget_enforced(self):
        g = game("fig9-C16")
        with pytest.raises(BudgetExceededError):
            count_tbdag(g, MAX, edge_budget=10_000)


class TestGuards:
    @pytest.mark.parametrize("entry", [build_tbdag])
    def test_analysis_of_the_other_side_rejected(self, entry):
        g = game("3K3[1]")
        with pytest.raises(GameValidationError) as err:
            entry(g, MAX, analysis=analyze(g, MIN))
        assert str(err.value) == "analysis is for side 'min', not 'max'"

    @pytest.mark.parametrize("entry", [build_tbdag])
    def test_analysis_of_another_game_rejected(self, entry):
        g = game("3K3[1]")
        with pytest.raises(GameValidationError) as err:
            entry(g, MAX, analysis=analyze(game("fig2"), MAX))
        assert str(err.value) == "analysis is for a different game"
        # An equal game built separately is the same game.
        entry(g, MAX, analysis=analyze(game("3K3[1]"), MAX))

    def test_edge_budget_enforced(self):
        g = game("3K3[2]")
        with pytest.raises(BudgetExceededError):
            build_tbdag(g, MAX, edge_budget=20)

    LONE_TERMINAL = {
        "players": ["chance", "a", "b"],
        "teams": {"max": [1], "min": [2]},
        "root": 0,
        "nodes": [{"kind": "terminal", "utility": 1.0}],
    }

    @pytest.mark.parametrize("entry", [
        build_tbdag,
        lambda g, side: count_tbdag(g, side, split="public"),
        lambda g, side: count_tbdag(g, side, split="observation"),
        lambda g, side: solve(g),
    ], ids=["build", "count-public", "count-observation", "solve"])
    def test_lone_terminal_rejected(self, entry):
        g = parse_game(self.LONE_TERMINAL)
        with pytest.raises(GameValidationError) as err:
            entry(g, MAX)
        assert str(err.value) == "the game is a single terminal node"
        # The belief game still gives its one-step game.
        assert make_belief_game(g).game.num_nodes == 3

    def test_fanout_guard_enforced(self, monkeypatch):
        monkeypatch.setattr(tbdag.build, "_FANOUT_GUARD", 1)
        g = game("fig2")
        with pytest.raises(BudgetExceededError, match="fan-out"):
            build_tbdag(g, MAX)

    @pytest.mark.parametrize("edge_budget, fanout_guard, message", [
        (
            50, tbdag.build._FANOUT_GUARD,
            "edge budget 50 exceeded while expanding a belief of 5 nodes "
            "at depth 2 with 4 prescriptions (51 edges built so far)",
        ),
        (
            # The whole belief would not fit: caught before expanding it.
            200, tbdag.build._FANOUT_GUARD,
            "edge budget 200 exceeded while expanding a belief of 4 nodes "
            "at depth 2 with 4 prescriptions (200 edges built so far)",
        ),
        (
            # The fan-out guard, lowered from its module default.
            10**8, 1,
            "fan-out guard 1 exceeded by 2 infosets while expanding a "
            "belief of 3 nodes at depth 1 with 4 prescriptions (22 edges "
            "built so far)",
        ),
    ])
    def test_budget_messages_say_where_the_build_stopped(
        self, edge_budget, fanout_guard, message, monkeypatch
    ):
        monkeypatch.setattr(tbdag.build, "_FANOUT_GUARD", fanout_guard)
        with pytest.raises(BudgetExceededError) as err:
            build_tbdag(game("worst-k2b2d6"), MAX, edge_budget=edge_budget)
        assert str(err.value) == message

    def test_unknown_split_rejected(self):
        g = game("fig2")
        with pytest.raises(GameValidationError, match="split"):
            build_tbdag(g, MAX, split="banana")

    def test_mismatched_analysis_rejected(self):
        g = game("fig2")
        a = analyze(g, MIN)
        with pytest.raises(GameValidationError, match="side"):
            build_tbdag(g, MAX, analysis=a)

    def test_side_without_players_keeps_its_error(self):
        # Chance picks one of two terminals; the min team is empty, so
        # its analysis carries no coordinator view.
        g = parse_game({
            "players": ["chance", "p1"],
            "teams": {"max": [1], "min": []},
            "root": 0,
            "nodes": [
                {"kind": "chance", "actions": [
                    {"label": "a", "child": 1, "prob": 0.5},
                    {"label": "b", "child": 2, "prob": 0.5},
                ]},
                {"kind": "terminal", "utility": 1.0},
                {"kind": "terminal", "utility": -1.0},
            ],
        })
        assert analyze(g, MIN).view is None
        message = "side 'min' has no players"
        with pytest.raises(GameValidationError, match=message):
            build_tbdag(g, MIN)
        with pytest.raises(GameValidationError, match=message):
            solve(g)
        assert build_tbdag(g, MIN, reduce=False).stats.n_dec == 1


class TestBuildTimings:
    PHASES = ["expand", "prune", "splice", "pack"]

    @pytest.mark.parametrize("reduce", [True, False])
    @pytest.mark.parametrize("name", ["fig2", "3K3[1]", "fig9-C8"])
    def test_phases_are_timed_within_the_call(self, name, reduce):
        g = game(name)
        a = analyze(g, MAX)
        t0 = time.perf_counter()
        dag = build_tbdag(g, MAX, reduce=reduce, analysis=a)
        wall_ms = (time.perf_counter() - t0) * 1e3
        phases = dag.stats.phase_ms
        assert list(phases) == self.PHASES
        assert all(v >= 0.0 for v in phases.values())
        assert phases["expand"] > 0.0 and phases["pack"] > 0.0
        if not reduce:
            assert phases["prune"] == phases["splice"] == 0.0
        assert sum(phases.values()) <= wall_ms

    def test_lap_adds_to_its_phase(self, monkeypatch):
        clock = iter([0, 1, 3, 6])
        monkeypatch.setattr(time, "perf_counter", clock.__next__)
        phase_ms, lap = tbdag.build.phase_clock(("a", "b"))
        lap("a")
        lap("b")
        lap("a")
        assert phase_ms == {"a": 4000.0, "b": 2000.0}

    def test_timings_stay_out_of_comparisons_and_docs(self):
        one = build_tbdag(game("fig2"), MAX)
        two = build_tbdag(game("fig2"), MAX)
        assert one.stats == two.stats
        assert hash(one.stats) == hash(two.stats)
        assert "phase_ms" not in json.dumps(tbdag_to_doc(one))


class TestDeterminism:
    def test_rebuild_is_identical(self):
        doc1 = tbdag_to_doc(build_tbdag(game("3K3[2]"), MAX))
        doc2 = tbdag_to_doc(build_tbdag(game("3K3[2]"), MAX))
        assert json.dumps(doc1, sort_keys=True) == json.dumps(
            doc2, sort_keys=True
        )

    def test_signature_stable_and_discriminating(self):
        g = game("fig2")
        s1 = dag_signature(build_tbdag(g, MAX, reduce=False))
        s2 = dag_signature(build_tbdag(g, MAX, reduce=False))
        assert s1 == s2
        assert s1 != dag_signature(build_tbdag(g, MIN, reduce=False))
        assert s1 != dag_signature(build_tbdag(g, MAX))

    @pytest.mark.parametrize("name", SMALL_ZOO)
    def test_signatures_and_counts_pinned(self, name):
        g = game(name)
        for side in (MAX, MIN):
            a = analyze(g, side)
            raw = dag_signature(build_tbdag(g, side, reduce=False, analysis=a))
            red = dag_signature(build_tbdag(g, side, analysis=a))
            counted = list(count_tbdag(g, side))
            assert [raw[:16], red[:16], counted] == PINS[name][side], side


class TestInflationInvariance:
    @pytest.mark.parametrize(
        "name", ["fig2", "2K3", "3K3[1]", "3K3[2]", "worst-k2b2d6"]
    )
    def test_inflate_keeps_dag(self, name):
        g = game(name)
        for side in (MAX, MIN):
            g2 = inflate(g, side)
            d1 = build_tbdag(g, side, reduce=False)
            d2 = build_tbdag(g2, side, reduce=False)
            # Splitting never-co-playable infoset members changes no
            # belief and no prescription product.
            assert dag_signature(d1) == dag_signature(d2)
