"""Acceptance suite: the ten certification criteria for this package.

Every tolerance and size pin here is part of the delivery contract.
The slowest entries materialize the largest belief games; expect the
module to take a few minutes on its own.
"""

import json
import random
import resource
import time
from functools import lru_cache
from math import log, sqrt

import numpy as np
import pytest

from tbdag import (
    MAX,
    MIN,
    BudgetExceededError,
    SolveConfig,
    analyze,
    assemble_utility,
    build_tbdag,
    enumeration_oracle,
    generate,
    inflate,
    list_presets,
    make_belief_game,
    map_pure_strategy,
    payoffs_from_realization,
    solve,
)
from tbdag.build import check_size_bounds, count_tbdag, dag_signature
from tbdag.cli import main
from tbdag.dag import (
    LocalRegretBank,
    best_response,
    dag_cfr_strategy,
    dag_cfr_utility,
    expand_to_tree,
)
from tbdag.game import pure_strategy_value


@lru_cache(maxsize=None)
def game(name):
    return generate(list_presets()[name])


# Every generator preset whose game tree has at most 2000 nodes; the
# sampling and isomorphism criteria quantify over exactly this scope.
SMALL_ZOO = (
    "2K3",
    "3D2[1,2]",
    "3D2[1,3]",
    "3D2[1]",
    "3D2[2,3]",
    "3D2[2]",
    "3D2[3]",
    "3K3[1,2]",
    "3K3[1,3]",
    "3K3[1]",
    "3K3[2,3]",
    "3K3[2]",
    "3K3[3]",
    "3K4[1,2]",
    "3K4[1,3]",
    "3K4[1]",
    "3K4[2,3]",
    "3K4[2]",
    "3K4[3]",
    "fig2",
    "fig8",
    "fig9-C16",
    "fig9-C4",
    "fig9-C6",
    "fig9-C8",
    "worst-k1b2d5",
    "worst-k2b2d6",
)

KUHN_TEAM_SPLITS = (
    "3K3[1]",
    "3K3[2]",
    "3K3[3]",
    "3K3[1,2]",
    "3K3[1,3]",
    "3K3[2,3]",
)


class TestAC01SignalingSolveCertified:
    def test_cli_solve_certifies_value_zero(self, capsys):
        t0 = time.perf_counter()
        code = main(["solve", "fig2", "--algo", "pcfr+", "--eps", "1e-3", "--json"])
        wall = time.perf_counter() - t0
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["converged"] is True
        assert payload["gap"] <= 1e-3
        assert abs(payload["value"]) <= 1e-3
        assert wall < 5.0


class TestAC02FanoutReport:
    def test_cli_info_reports_width_fanout_and_bound(self, capsys):
        code = main(["info", "fig2", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        side = payload["sides"]["max"]
        assert side["timeability_width"] == 3
        dag = side["dag"]
        # The widest decision point merges the two signaling states and
        # prescribes for both of their infosets at once.
        assert dag["max_fanout"] == 4
        assert len(dag["max_fanout_belief"]) == 2
        assert dag["prescription_bound"] == 27  # (2 + 1) ** 3


class TestAC03TreeEquivalence:
    """Local regret updates on the DAG match the fully expanded tree."""

    @pytest.mark.parametrize("variant", ["rm", "rm+", "prm+", "mwu"])
    @pytest.mark.parametrize("name", ["fig2", "3K3[1]"])
    def test_iterates_coincide_for_25_iterations(self, name, variant):
        g = game(name)
        dags = {s: build_tbdag(g, s) for s in (MAX, MIN)}
        exps = {s: expand_to_tree(dags[s].problem) for s in dags}
        scale = g.utility_scale
        banks_d = {s: LocalRegretBank(dags[s].problem, variant, scale) for s in dags}
        banks_t = {s: LocalRegretBank(exps[s].problem, variant, scale) for s in dags}
        for _ in range(25):
            r_d = {s: banks_d[s].current() for s in dags}
            for s in dags:
                r_t = banks_t[s].current()
                diff = np.max(np.abs(r_t - r_d[s][exps[s].act_map]))
                assert diff <= 1e-12
            flows = {s: dag_cfr_strategy(dags[s].problem, r_d[s]) for s in dags}
            pays = {
                MAX: assemble_utility(dags[MAX], dags[MIN], flows[MIN]),
                MIN: assemble_utility(dags[MIN], dags[MAX], flows[MAX]),
            }
            for s in dags:
                va, vd = dag_cfr_utility(dags[s].problem, r_d[s], pays[s])
                banks_d[s].observe(va, vd)
                va_t, vd_t = dag_cfr_utility(
                    exps[s].problem, banks_t[s].current(), pays[s][exps[s].obs_map]
                )
                banks_t[s].observe(va_t, vd_t)


class TestAC04EdgeBudget:
    def test_every_buildable_zoo_game_is_within_the_edge_bound(self):
        built = []
        aborted = []
        for name in sorted(list_presets()):
            g = game(name)
            for side in (MAX, MIN):
                try:
                    dag = build_tbdag(g, side, edge_budget=100_000)
                except BudgetExceededError:
                    aborted.append((name, side))
                    continue
                # check_size_bounds raises on a bound violation, which
                # is the required hard failure.
                report = check_size_bounds(dag)
                assert dag.stats.n_edges <= report["bound"]
                assert report["slack"] > 0
                built.append((name, side))
        assert len(built) >= 66
        assert all(name.startswith("3L133") for name, _ in aborted)


class TestAC05BeliefGameFidelity:
    @pytest.mark.parametrize(
        "name,k,b,d", [("worst-k1b2d5", 1, 2, 5), ("worst-k2b2d6", 2, 2, 6)]
    )
    def test_worst_case_size_window(self, name, k, b, d):
        bg = make_belief_game(game(name))
        n = bg.game.num_nodes
        assert b ** (2 * k * (d - 4)) <= n <= b ** (2 * k * d + d)

    def test_scope_is_every_small_zoo_game(self):
        small = tuple(
            name for name in sorted(list_presets()) if game(name).num_nodes <= 2000
        )
        assert small == SMALL_ZOO

    @pytest.mark.parametrize("name", SMALL_ZOO)
    def test_100_sampled_profiles_transfer_exactly(self, name):
        g = game(name)
        bg = make_belief_game(g)
        rng = random.Random(f"acceptance-{name}")
        side_isets = {side: g.side_infosets(side) for side in (MAX, MIN)}
        for _ in range(100):
            profile = {
                side: {
                    i: rng.randrange(g.infosets[i].num_actions)
                    for i in side_isets[side]
                }
                for side in (MAX, MIN)
            }
            source_value = pure_strategy_value(g, profile[MAX] | profile[MIN])
            mapped = {}
            for side in (MAX, MIN):
                mapped.update(map_pure_strategy(bg, side, profile[side]))
            assert pure_strategy_value(bg.game, mapped) == source_value


class TestAC06InflationBlowupMeasured:
    # Public-over-observation edge blow-up at the enumerable size,
    # derived from the fully materialized builds below.
    PUBLIC_EDGES_C8 = 16_598
    OBSERVATION_EDGES_C8 = 395

    def test_large_instance_sizes_within_reference_factors(self):
        t0 = time.perf_counter()
        g = game("fig9-C16")
        dag = build_tbdag(g, MAX, reduce=False)
        obs_edges = dag.stats.n_edges
        _, _, pub_edges = count_tbdag(g, MAX, split="public")
        wall = time.perf_counter() - t0
        assert obs_edges == 1163
        assert 1e3 / 3 <= obs_edges <= 1e3 * 3
        assert pub_edges == 46_909_618
        assert 3e7 / 3 <= pub_edges <= 3e7 * 3
        assert wall < 120.0
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert peak_kb < 8 * 1024 * 1024

    def test_exact_ratio_at_the_enumerable_size(self):
        g = game("fig9-C8")
        counted = count_tbdag(g, MAX, split="public")
        pub = build_tbdag(g, MAX, split="public", reduce=False)
        assert counted == (pub.stats.n_dec, pub.stats.n_obs, pub.stats.n_edges)
        assert pub.stats.n_edges == self.PUBLIC_EDGES_C8
        obs = build_tbdag(g, MAX, split="observation", reduce=False)
        assert obs.stats.n_edges == self.OBSERVATION_EDGES_C8
        ratio = pub.stats.n_edges / obs.stats.n_edges
        assert ratio == pytest.approx(
            self.PUBLIC_EDGES_C8 / self.OBSERVATION_EDGES_C8
        )


class TestAC07PerfectRecallReduction:
    def test_reduced_dag_collapses_to_sequence_form(self):
        g = game("2K3")
        for side in (MAX, MIN):
            dag = build_tbdag(g, side)
            isets = g.side_infosets(side)
            sequences = 1 + sum(g.infosets[i].num_actions for i in isets)
            assert dag.stats.n_dec == len(isets) + 1
            assert dag.stats.n_obs == sequences

    def test_certified_value(self):
        g = game("2K3")
        rep = solve(g, SolveConfig(algorithm="pcfr+", eps=1e-3))
        assert rep.converged
        assert abs(rep.value - (-1.0 / 18.0)) <= 1e-3
        # The enumeration oracle brackets the game value around the
        # same constant, independently of the DAG machinery.
        v_max, _ = enumeration_oracle(g, MAX, rep.y_realization)
        v_min, _ = enumeration_oracle(g, MIN, rep.x_realization)
        assert -v_min - 1e-9 <= -1.0 / 18.0 <= v_max + 1e-9
        assert v_max + v_min <= 1e-3


class TestAC08TeamKuhnCertified:
    @pytest.mark.parametrize("name", KUHN_TEAM_SPLITS)
    def test_every_split_solved_and_oracle_certified(self, name):
        g = game(name)
        rep = solve(g, SolveConfig(algorithm="cfr+", eps=1e-4, max_iters=100_000))
        assert rep.converged
        assert rep.iterations <= 100_000
        assert rep.gap <= 1e-4
        reals = {MAX: rep.x_realization, MIN: rep.y_realization}
        for side, opp in ((MAX, MIN), (MIN, MAX)):
            pay = payoffs_from_realization(rep.dags[side], reals[opp])
            dag_value, _ = best_response(rep.dags[side].problem, pay)
            oracle_value, _ = enumeration_oracle(g, side, reals[opp])
            assert abs(dag_value - oracle_value) <= 1e-6


class TestAC09RegretRateBound:
    @pytest.mark.parametrize("name", ["fig2", "3K3[1]"])
    def test_mwu_gap_stays_under_the_rate_bound(self, name):
        g = game(name)
        rep = solve(
            g,
            SolveConfig(
                algorithm="cfr-mwu", eps=1e-9, max_iters=2000, log_every=10
            ),
        )
        width = max(analyze(g, MAX).k, analyze(g, MIN).k, 1)
        base = max(g.branching_factor, 2)
        checked = 0
        for p in rep.log:
            if p.iteration < 10:
                continue
            expected = g.num_nodes * sqrt(width * log(base) / p.iteration)
            assert p.bound == pytest.approx(expected, rel=1e-12)
            assert p.gap <= 4.0 * p.bound
            checked += 1
        assert checked >= 100


class TestAC10InflationInvariance:
    @pytest.mark.parametrize("name", SMALL_ZOO)
    def test_observation_dags_isomorphic_under_inflation(self, name):
        g = game(name)
        for side in (MAX, MIN):
            before = build_tbdag(g, side)
            after = build_tbdag(inflate(g, side), side)
            assert dag_signature(before) == dag_signature(after)
            assert (before.stats.n_dec, before.stats.n_obs, before.stats.n_edges) == (
                after.stats.n_dec,
                after.stats.n_obs,
                after.stats.n_edges,
            )
