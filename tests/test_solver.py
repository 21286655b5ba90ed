"""Solver loop, cross-side utility assembly, and the enumeration oracle."""

from fractions import Fraction
from functools import lru_cache
from importlib import import_module
from itertools import groupby, product
from math import fsum, inf, nan, sqrt
from random import Random
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tbdag
from tbdag import (
    MAX,
    MIN,
    BudgetExceededError,
    GameValidationError,
    SolveConfig,
    assemble_utility,
    build_tbdag,
    check_realization,
    count_tbdag,
    enumeration_oracle,
    gap,
    generate,
    list_presets,
    make_belief_game,
    payoffs_from_realization,
    solve,
    terminal_realization,
)
from tbdag.dag import (
    LocalRegretBank,
    best_response,
    dag_cfr_strategy,
    dag_cfr_utility,
)
from tbdag.game import CHANCE, PLAYER, TERMINAL, parse_game


@lru_cache(maxsize=None)
def game(name):
    return generate(list_presets()[name])


def run(name, **kw):
    return solve(game(name), SolveConfig(**kw))


def pennies():
    # Matching pennies: the guesser never sees the toss, value 0.
    def leaf(u):
        return {"kind": TERMINAL, "utility": u}

    records = [
        {
            "kind": PLAYER,
            "player": 1,
            "infoset": "toss",
            "actions": [{"label": "h", "child": 1}, {"label": "t", "child": 2}],
        },
        {
            "kind": PLAYER,
            "player": 2,
            "infoset": "guess",
            "actions": [{"label": "h", "child": 3}, {"label": "t", "child": 4}],
        },
        {
            "kind": PLAYER,
            "player": 2,
            "infoset": "guess",
            "actions": [{"label": "h", "child": 5}, {"label": "t", "child": 6}],
        },
        leaf(1.0),
        leaf(-1.0),
        leaf(-1.0),
        leaf(1.0),
    ]
    return parse_game({
        "players": ["chance", "odd", "even"],
        "teams": {MAX: [1], MIN: [2]},
        "root": 0,
        "nodes": records,
    })


def two_leaves():
    # One max move to terminal 1 or terminal 2.
    return parse_game({
        "players": ["chance", "max", "min"],
        "teams": {MAX: [1], MIN: [2]},
        "root": 0,
        "nodes": [
            {
                "kind": PLAYER,
                "player": 1,
                "infoset": "move",
                "actions": [{"label": "l", "child": 1}, {"label": "r", "child": 2}],
            },
            {"kind": TERMINAL, "utility": 1.0},
            {"kind": TERMINAL, "utility": -1.0},
        ],
    })


def two_guesses():
    # One max move, l or r, then a min guess between two terminals that
    # each pay max 1.
    def guess(first):
        return {
            "kind": PLAYER,
            "player": 2,
            "infoset": f"guess after {'lr'[first > 3]}",
            "actions": [
                {"label": "a", "child": first},
                {"label": "b", "child": first + 1},
            ],
        }

    return parse_game({
        "players": ["chance", "max", "min"],
        "teams": {MAX: [1], MIN: [2]},
        "root": 0,
        "nodes": [
            {
                "kind": PLAYER,
                "player": 1,
                "infoset": "move",
                "actions": [{"label": "l", "child": 1}, {"label": "r", "child": 2}],
            },
            guess(3),
            guess(5),
        ] + [{"kind": TERMINAL, "utility": 1.0}] * 4,
    })


def consistent(g, side, choice, z):
    """Whether terminal ``z`` is reachable under ``choice`` for ``side``.

    Infosets missing from ``choice`` count as avoided, which matches the
    reduced strategies the oracle returns.
    """
    h = z
    while h != g.root:
        parent = g.parent[h]
        if g.kind[parent] == PLAYER and g.team_of[g.player[parent]] == side:
            if choice.get(g.infoset[parent], -1) != g.parent_action[h]:
                return False
        h = parent
    return True


def side_value(g, side, choice, opp_real):
    sign = 1.0 if side == MAX else -1.0
    return fsum(
        sign * g.utility[z] * g.chance_reach[z] * opp_real.get(z, 0.0)
        for z in g.terminals
        if consistent(g, side, choice, z)
    )


def uniform_realizations(name):
    """Terminal realizations of the first (uniform) solver iterate."""
    rep = run(name, max_iters=1, eps=1e-30)
    return rep, {MAX: rep.x_realization, MIN: rep.y_realization}


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"algorithm": "lp"},
            {"eps": 0.0},
            {"eps": -1.0},
            {"max_iters": 0},
            {"log_every": 0},
            {"mode": "async"},
            {"max_iters": 1.5},
            {"max_iters": True},
            {"log_every": 2.5},
            {"log_every": True},
            {"eps": "1e-3"},
            {"eps": True},
            {"eps": inf},
        ],
    )
    def test_bad_settings_rejected(self, kw):
        with pytest.raises(GameValidationError):
            SolveConfig(**kw)

    @pytest.mark.parametrize(
        "eps, message",
        [
            (inf, "eps must be finite, not inf"),
            (nan, "eps must be positive"),
            (0.0, "eps must be positive"),
            (-1.0, "eps must be positive"),
        ],
    )
    def test_eps_must_be_a_finite_positive_target(self, eps, message):
        # Any gap meets an infinite target, so it would certify nothing.
        with pytest.raises(GameValidationError) as err:
            SolveConfig(eps=eps)
        assert str(err.value) == message


class TestSolve:
    @pytest.mark.parametrize(
        "algo,eps",
        [("cfr", 1e-3), ("cfr+", 1e-3), ("pcfr+", 1e-3), ("cfr-mwu", 5e-3)],
    )
    def test_signaling_game_value_is_zero(self, algo, eps):
        rep = run("fig2", algorithm=algo, eps=eps, max_iters=20_000)
        assert rep.converged
        assert rep.gap <= eps
        assert abs(rep.value) <= eps + 1e-12

    def test_two_player_kuhn_value(self):
        rep = run("2K3", eps=1e-3)
        assert rep.converged
        assert abs(rep.value - (-1.0 / 18.0)) <= 1e-3

    def test_matching_pennies(self):
        rep = solve(pennies(), SolveConfig(eps=1e-6, max_iters=10_000))
        assert rep.converged
        assert abs(rep.value) <= 1e-6 + 1e-12

    def test_log_rows_are_consistent(self):
        rep = run("2K3", eps=1e-12, max_iters=230, log_every=25)
        assert rep.log[-1].iteration == rep.iterations == 230
        iters = [p.iteration for p in rep.log]
        assert iters == sorted(iters) and iters[0] == 1
        for p in rep.log:
            assert p.gap == p.br_max + p.br_min
            assert p.bound > 0.0
        times = [p.time_ms for p in rep.log]
        assert times == sorted(times)
        bounds = [p.bound for p in rep.log]
        assert bounds == sorted(bounds, reverse=True)

    def test_average_flows_are_feasible(self):
        rep = run("fig2", eps=1e-12, max_iters=200)
        for side in (MAX, MIN):
            rep.averages[side].check_conservation(1e-8)
        g = game("fig2")
        # The averaged pair puts total chance-weighted mass one on the
        # terminals, and the reported value is their bilinear payoff.
        mass = fsum(
            g.chance_reach[z] * rep.x_realization[z] * rep.y_realization[z]
            for z in g.terminals
        )
        assert mass == pytest.approx(1.0, abs=1e-9)
        value = fsum(
            g.utility[z]
            * g.chance_reach[z]
            * rep.x_realization[z]
            * rep.y_realization[z]
            for z in g.terminals
        )
        assert value == pytest.approx(rep.value, abs=1e-12)

    def test_immediate_stop_when_target_is_loose(self):
        rep = run("fig2", eps=10.0)
        assert rep.converged
        assert rep.iterations == 1
        assert len(rep.log) == 1

    def test_alternating_mode(self):
        rep = run("fig2", mode="alternating", eps=1e-3)
        assert rep.converged
        assert abs(rep.value) <= 1e-3 + 1e-12

    def test_deterministic_replay(self):
        a = run("2K3", algorithm="cfr+", eps=1e-12, max_iters=137, log_every=10)
        b = run("2K3", algorithm="cfr+", eps=1e-12, max_iters=137, log_every=10)
        assert a.x_realization == b.x_realization
        assert a.y_realization == b.y_realization
        assert a.value == b.value
        for pa, pb in zip(a.log, b.log):
            assert pa.iteration == pb.iteration
            assert pa.gap == pb.gap
            assert pa.br_max == pb.br_max
            assert pa.br_min == pb.br_min
            assert pa.value == pb.value
            assert pa.bound == pb.bound

    def test_gap_recomputes_to_the_report(self):
        rep = run("fig2", eps=1e-12, max_iters=80)
        again = gap(rep.dags, rep.averages[MAX], rep.averages[MIN])
        assert again == pytest.approx(rep.gap, abs=1e-14)

    @pytest.mark.parametrize("name", ["fig2", "2K3"])
    def test_weighted_regret_caps_the_gap(self, name):
        # In simultaneous mode the duality gap of the weighted averages
        # is bounded by the weighted average external regrets.  The loop
        # replays solve's simultaneous cfr+ iterates, keeping the
        # weighted payoff and root-value sums those regrets need.
        g = game(name)
        rep = run(name, algorithm="cfr+", eps=1e-12, max_iters=300, log_every=30)
        logged = {p.iteration: p.gap for p in rep.log}
        dags = rep.dags
        opp = {MAX: MIN, MIN: MAX}
        probs = {s: dags[s].problem for s in dags}
        banks = {s: LocalRegretBank(probs[s], "rm+", g.utility_scale) for s in dags}
        avg = {
            s: dag_cfr_strategy(probs[s], banks[s].current()).scaled(0.0)
            for s in dags
        }
        cum_pay = {s: np.zeros(probs[s].n_obs) for s in dags}
        cum_val = dict.fromkeys(dags, 0.0)
        weight = 0.0
        for t in range(1, 301):
            regs = {s: banks[s].current() for s in dags}
            flows = {s: dag_cfr_strategy(probs[s], regs[s]) for s in dags}
            pays, vals = {}, {}
            for s in dags:
                pays[s] = assemble_utility(dags[s], dags[opp[s]], flows[opp[s]])
                va, vd = dag_cfr_utility(probs[s], regs[s], pays[s])
                banks[s].observe(va, vd)
                vals[s] = float(vd[probs[s].root_dec])
            w = banks[MAX].average_weight()
            weight += w
            for s in dags:
                avg[s].add_scaled(flows[s], w)
                cum_pay[s] += w * pays[s]
                cum_val[s] += w * vals[s]
            if t % 30 == 0:
                bars = {s: avg[s].scaled(1.0 / weight) for s in dags}
                gap_t = gap(dags, bars[MAX], bars[MIN])
                regret = sum(
                    best_response(probs[s], cum_pay[s])[0] - cum_val[s]
                    for s in dags
                )
                assert gap_t <= regret / weight + 1e-12
                assert gap_t == logged[t]

    def test_csv_has_the_fixed_columns(self):
        rep = run("fig2", eps=1e-3)
        lines = rep.csv().splitlines()
        assert lines[0] == "iter,time_ms,gap,br_max,br_min,value,bound"
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert len(first) == 7

    def test_phase_timings(self):
        t0 = perf_counter()
        rep = run("2K3", eps=1e-12, max_iters=120, log_every=10)
        total_ms = (perf_counter() - t0) * 1e3
        assert set(rep.phase_ms) == {"build", "iterate", "certify"}
        assert all(ms >= 0.0 for ms in rep.phase_ms.values())
        assert sum(rep.phase_ms.values()) <= total_ms
        # That the CSV is unchanged by the timing is checked by the
        # digests pinned in test_dag_core.py.


class TestAssembly:
    def test_flow_and_realization_paths_agree(self):
        rep = run("fig2", eps=1e-12, max_iters=40)
        by_flow = assemble_utility(rep.dags[MAX], rep.dags[MIN], rep.averages[MIN])
        by_real = payoffs_from_realization(
            rep.dags[MAX], terminal_realization(rep.dags[MIN], rep.averages[MIN])
        )
        assert np.max(np.abs(by_flow - by_real)) <= 1e-15

    def test_pure_opponent_weighting(self):
        g = pennies()
        dag_max = build_tbdag(g, MAX)
        dag_min = build_tbdag(g, MIN)
        always_h = {z: 1.0 if g.parent_action[z] == 0 else 0.0 for z in g.terminals}
        pay = payoffs_from_realization(dag_max, always_h)
        value, _ = best_response(dag_max.problem, pay)
        assert value == 1.0
        pay_min = payoffs_from_realization(dag_min, {z: 0.5 for z in g.terminals})
        value_min, _ = best_response(dag_min.problem, pay_min)
        assert value_min == 0.0

    def test_mismatched_flow_rejected(self):
        rep = run("fig2", max_iters=5, eps=1e-30)
        with pytest.raises(GameValidationError, match="different problem"):
            assemble_utility(rep.dags[MAX], rep.dags[MIN], rep.averages[MAX])

    @pytest.mark.parametrize("name", ["fig2", "3K3[1]", "2K3"])
    def test_realization_of_another_problems_flow_rejected(self, name):
        rep = run(name, max_iters=5, eps=1e-30)
        with pytest.raises(GameValidationError, match="different problem"):
            terminal_realization(rep.dags[MAX], rep.averages[MIN])

    def test_dags_of_different_games_rejected(self):
        rep = run("fig2", max_iters=5, eps=1e-30)
        other = build_tbdag(game("fig8"), MIN)
        with pytest.raises(GameValidationError, match="different games"):
            assemble_utility(rep.dags[MAX], other, rep.averages[MIN])
        with pytest.raises(GameValidationError, match="different games"):
            gap(
                {MAX: rep.dags[MAX], MIN: other},
                rep.averages[MAX],
                rep.averages[MIN],
            )


class TestOracle:
    def test_pennies_against_pure_and_uniform(self):
        g = pennies()
        always_h = {z: 1.0 if g.parent_action[z] == 0 else 0.0 for z in g.terminals}
        value, choice = enumeration_oracle(g, MAX, always_h)
        assert value == 1.0
        assert choice == {g.infoset[g.root]: 0}
        value, _ = enumeration_oracle(g, MAX, {z: 0.5 for z in g.terminals})
        assert value == 0.0

    @pytest.mark.parametrize("name", ["fig2", "2K3", "3K3[1]"])
    def test_oracle_matches_dag_best_response_at_uniform(self, name):
        rep, reals = uniform_realizations(name)
        g = game(name)
        for side, opp in ((MAX, MIN), (MIN, MAX)):
            pay = payoffs_from_realization(rep.dags[side], reals[opp])
            dag_value, _ = best_response(rep.dags[side].problem, pay)
            oracle_value, _ = enumeration_oracle(g, side, reals[opp])
            assert oracle_value == pytest.approx(dag_value, abs=1e-9)

    def test_oracle_certifies_final_averages(self):
        rep = run("2K3", eps=1e-3)
        g = game("2K3")
        reals = {MAX: rep.x_realization, MIN: rep.y_realization}
        for side, opp in ((MAX, MIN), (MIN, MAX)):
            pay = payoffs_from_realization(rep.dags[side], reals[opp])
            dag_value, _ = best_response(rep.dags[side].problem, pay)
            oracle_value, _ = enumeration_oracle(g, side, reals[opp])
            assert oracle_value == pytest.approx(dag_value, abs=1e-9)

    def test_best_assignment_achieves_the_best_value(self):
        rep, reals = uniform_realizations("2K3")
        g = game("2K3")
        for side, opp in ((MAX, MIN), (MIN, MAX)):
            value, choice = enumeration_oracle(g, side, reals[opp])
            assert set(choice) <= set(g.side_infosets(side))
            assert side_value(g, side, choice, reals[opp]) == pytest.approx(
                value, abs=1e-12
            )

    def test_assignments_are_reduced(self):
        # Infosets the chosen plan never reaches are left out, and the
        # listed ones are all reachable under the plan itself.
        rep, reals = uniform_realizations("2K3")
        g = game("2K3")
        _, choice = enumeration_oracle(g, MAX, reals[MIN])
        for i in g.side_infosets(MAX):
            members_reached = any(
                consistent(g, MAX, choice, h) for h in g.infosets[i].members
            )
            assert (i in choice) == members_reached

    @pytest.mark.parametrize(
        "source, bad, message",
        [
            ("fig2", {99999: 1.0}, "names no terminal"),
            ("fig2", {"0": 1.0}, "names no terminal"),
            ("fig2", {"first": nan}, "not a number in"),
            ("fig2", {"first": inf}, "not a number in"),
            ("fig2", {"first": 1.5}, "not a number in"),
            ("fig2", {"first": -0.1}, "not a number in"),
            ("fig2", {"first": "0.5"}, "not a number in"),
            ("fig2", {"first": b"1"}, "not a number in"),
            ("fig2", {"first": True}, "not a number in"),
            # True == 1, and node 1 of this game is a terminal.
            ("two-leaves", {True: 1.0}, "names no terminal"),
        ],
        ids=["key-99999", "key-str", "nan", "inf", "above-1", "negative",
             "value-str", "value-bytes", "value-bool", "key-bool"],
    )
    def test_library_entry_points_check_realizations(self, source, bad, message):
        g = two_leaves() if source == "two-leaves" else game(source)
        dag = build_tbdag(g, MAX)
        bad = {g.terminals[0] if k == "first" else k: p for k, p in bad.items()}
        # A bad key equal to a terminal id (True == 1) takes that entry's place.
        real = {z: 0.5 for z in g.terminals if z not in bad}
        real.update(bad)
        with pytest.raises(GameValidationError, match=message):
            enumeration_oracle(g, MAX, real)
        with pytest.raises(GameValidationError, match=message):
            payoffs_from_realization(dag, real)
        with pytest.raises(GameValidationError, match=message):
            check_realization(g, real)

    def test_realization_tolerance(self):
        g = game("fig2")
        real = {z: 0.5 for z in g.terminals}
        real[g.terminals[0]], real[g.terminals[1]] = 1.0 + 1e-10, -1e-10
        check_realization(g, real)

    def test_budget_abort(self):
        rep, reals = uniform_realizations("3K3[1]")
        with pytest.raises(BudgetExceededError, match="reduced pure"):
            enumeration_oracle(game("3K3[1]"), MIN, reals[MAX], budget=3)

    @pytest.mark.parametrize("budget", [nan, True, 0, -1, 0.5, "10"])
    def test_library_entry_points_check_budgets(self, budget):
        g = game("fig2")
        real = {z: 0.5 for z in g.terminals}
        calls = [
            lambda: build_tbdag(g, MAX, edge_budget=budget),
            lambda: count_tbdag(g, MAX, edge_budget=budget),
            lambda: make_belief_game(g, node_budget=budget),
            lambda: enumeration_oracle(g, MAX, real, budget=budget),
        ]
        for call in calls:
            with pytest.raises(GameValidationError, match="budget must be a number of at least 1"):
                call()

    def test_budget_abort_says_where_it_stopped(self):
        # Against a guesser who always says heads, the tosser's first
        # plan (heads) scores 1; the second plan is past a budget of one.
        g = pennies()
        always_h = {z: 1.0 if g.parent_action[z] == 0 else 0.0 for z in g.terminals}
        with pytest.raises(BudgetExceededError) as err:
            enumeration_oracle(g, MAX, always_h, budget=1)
        assert str(err.value) == (
            "more than 1 reduced pure strategies (expanding the infoset "
            "group at depth 0; best value so far 1)"
        )

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_no_pure_strategy_beats_the_oracle(self, data):
        g = game("fig2")
        _, reals = uniform_realizations("fig2")
        for side, opp in ((MAX, MIN), (MIN, MAX)):
            best, _ = enumeration_oracle(g, side, reals[opp])
            choice = {
                i: data.draw(
                    st.integers(0, g.infosets[i].num_actions - 1), label=f"iset {i}"
                )
                for i in g.side_infosets(side)
            }
            assert side_value(g, side, choice, reals[opp]) <= best + 1e-12

    @pytest.mark.parametrize("name", ["pennies", "fig2", "2K3"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_oracle_is_the_best_full_pure_assignment(self, name, data):
        g = pennies() if name == "pennies" else game(name)
        probs = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
        real = {z: data.draw(probs, label=f"terminal {z}") for z in g.terminals}
        for side in (MAX, MIN):
            isets = g.side_infosets(side)
            best = max(
                side_value(g, side, dict(zip(isets, combo)), real)
                for combo in product(*(range(g.infosets[i].num_actions) for i in isets))
            )
            value, choice = enumeration_oracle(g, side, real)
            assert value == best
            assert side_value(g, side, choice, real) == value

    # (value.hex(), assignment) at the first solver iterate, recorded
    # with the pre-bitset oracle.
    PINS = {
        ("3K3[3]", MAX): ("0x1.5555555555555p-1", {0: 0, 1: 1, 3: 0, 7: 1, 8: 0, 12: 0, 14: 0, 20: 0, 21: 1, 22: 0, 25: 1, 26: 0, 32: 0, 34: 0, 35: 0}),
        ("3K3[3]", MIN): ("0x1.6aaaaaaaaaaabp-1", {2: 1, 6: 0, 10: 0, 11: 0, 13: 1, 16: 0, 18: 1, 19: 0, 28: 0, 29: 1, 30: 1, 31: 1}),
        ("3K3[1,2]", MAX): ("0x1.6aaaaaaaaaaabp-1", {2: 1, 6: 0, 10: 0, 11: 0, 13: 1, 16: 0, 18: 1, 19: 0, 28: 0, 29: 1, 30: 1, 31: 1}),
        ("3K3[1,2]", MIN): ("0x1.5555555555555p-1", {0: 0, 1: 1, 3: 0, 7: 1, 8: 0, 12: 0, 14: 0, 20: 0, 21: 1, 22: 0, 25: 1, 26: 0, 32: 0, 34: 0, 35: 0}),
    }

    @pytest.mark.parametrize("name, side", sorted(PINS))
    def test_pinned_at_uniform(self, name, side):
        _, reals = uniform_realizations(name)
        value, choice = enumeration_oracle(game(name), side, reals[MIN if side == MAX else MAX])
        assert (value.hex(), choice) == self.PINS[name, side]

    def test_independent_of_dag_code(self, monkeypatch):
        _, reals = uniform_realizations("2K3")
        g = game("2K3")
        expected = {side: enumeration_oracle(g, side, reals[opp]) for side, opp in ((MAX, MIN), (MIN, MAX))}

        def forbidden(*args, **kwargs):
            raise AssertionError("the enumeration oracle called DAG code")

        # The package attribute ``tbdag.solve`` is the function, so the
        # modules come from the import system.
        solve_module = import_module("tbdag.solve")
        for mod in map(import_module, ("tbdag.analysis", "tbdag.build", "tbdag.dag")):
            for name, obj in list(vars(mod).items()):
                if callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    for ns in (mod, solve_module, tbdag):
                        if getattr(ns, name, None) is obj:
                            monkeypatch.setattr(ns, name, forbidden)
        with pytest.raises(AssertionError, match="called DAG code"):
            solve_module.build_tbdag(g, MAX)
        for side, opp in ((MAX, MIN), (MIN, MAX)):
            assert enumeration_oracle(g, side, reals[opp]) == expected[side]


def reference_oracle(g, side, real, budget=10**7):
    """The enumeration oracle as it was before it carried exact sums:
    the same search, with every leaf summing the weights of the
    terminals it still reaches by ``fsum``.  Kept here as a reference."""
    sign = 1.0 if side == MAX else -1.0
    n = g.num_nodes
    weight = [0.0] * n
    for z in g.terminals:
        weight[z] = sign * g.utility[z] * g.chance_reach[z] * real.get(z, 0.0)
    zmask = sum(1 << z for z in g.terminals if weight[z] != 0.0)

    size = [1] * n
    for h in range(n - 1, 0, -1):
        size[g.parent[h]] += size[h]
    full = (1 << n) - 1
    members = {}
    ok = {}
    for i in g.side_infosets(side):
        iset = g.infosets[i]
        members[i] = sum(1 << m for m in iset.members)
        through = [
            sum(((1 << size[c]) - 1) << c for c in cs)
            for cs in zip(*(g.children(m) for m in iset.members))
        ]
        ok[i] = [full ^ sum(through) ^ t for t in through]

    level = {i: g.depth[g.infosets[i].members[0]] for i in members}
    groups = [
        (d, list(grp))
        for d, grp in groupby(sorted(level, key=lambda i: (level[i], i)), key=level.get)
    ]

    best_value = -inf
    best_assign = {}
    count = 0
    assign = {}

    def rec(gi, alive, depth):
        nonlocal count, best_value, best_assign
        if gi == len(groups):
            count += 1
            if count > budget:
                raise BudgetExceededError(
                    f"more than {budget} reduced pure strategies "
                    f"(expanding the infoset group at depth {depth}; "
                    f"best value so far {best_value:.12g})"
                )
            terms = []
            rest = alive & zmask
            while rest:
                low = rest & -rest
                terms.append(weight[low.bit_length() - 1])
                rest ^= low
            v = fsum(terms)
            if v > best_value:
                best_value = v
                best_assign = dict(assign)
            return
        d, grp = groups[gi]
        live = [i for i in grp if alive & members[i]]
        if not live:
            rec(gi + 1, alive, depth)
            return
        for combo in product(*(range(g.infosets[i].num_actions) for i in live)):
            kept = alive
            for i, a in zip(live, combo):
                assign[i] = a
                kept &= ok[i][a]
            rec(gi + 1, kept, d)
        for i in live:
            del assign[i]

    rec(0, full, 0)
    return best_value, best_assign


def oracle_outcome(oracle, g, side, real, budget):
    """``(value.hex(), assignment as item list)`` or the abort message."""
    try:
        value, choice = oracle(g, side, real, budget=budget)
    except BudgetExceededError as exc:
        return str(exc)
    return value.hex(), list(choice.items())


# Probabilities that round exactly, uniform floats, and tiny magnitudes
# that leave the weights many binades apart, so sums round and cancel.
PROBS = st.one_of(
    st.sampled_from([0.0, 1 / 3, 0.5, 1.0]),
    st.floats(0.0, 1.0),
    st.builds(lambda p, k: p * 10.0**-k, st.floats(0.0, 1.0), st.integers(0, 300)),
)


class TestOracleAgainstReference:
    # The last budget lets every side of these games finish except on
    # 3D2[1], whose max side has millions of strategies and whose min
    # side takes the reference seconds; there the abort messages are
    # compared, at a budget small enough for the reference.
    @pytest.mark.parametrize(
        "name, budget",
        [
            ("pennies", 20_000),
            ("fig2", 20_000),
            ("2K3", 20_000),
            ("3D2[1]", 2_000),
            ("3K3[3]", 20_000),
            ("3K3[1,2]", 20_000),
        ],
    )
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_bit_identical_to_the_fsum_oracle(self, name, budget, data):
        g = pennies() if name == "pennies" else game(name)
        probs = data.draw(
            st.lists(PROBS, min_size=len(g.terminals), max_size=len(g.terminals)),
            label="realization",
        )
        real = dict(zip(g.terminals, probs))
        for side in (MAX, MIN):
            for b in (1, 2.5, 7, 100, budget):
                assert oracle_outcome(
                    enumeration_oracle, g, side, real, b
                ) == oracle_outcome(reference_oracle, g, side, real, b)

    @pytest.mark.parametrize("name", ["2K3", "3K3[3]", "3K3[1,2]"])
    def test_successive_calls_each_match(self, name):
        # The gains depend on the realization, so a group's memo that
        # outlived its call would give the next realization stale values.
        g = game(name)
        rng = Random(name)
        reals = [
            {z: rng.choice([0.0, 0.5, 1.0, rng.random()]) for z in g.terminals}
            for _ in range(4)
        ]
        for side in (MAX, MIN):
            outcomes = [
                oracle_outcome(enumeration_oracle, g, side, real, 20_000)
                for real in reals
            ]
            assert outcomes == [
                oracle_outcome(reference_oracle, g, side, real, 20_000)
                for real in reals
            ]
            assert len({value for value, _ in outcomes}) > 1

    # 3K3[3]'s max side has 17,080 reduced pure strategies.
    @pytest.mark.parametrize("budget", [17_079, 17_080, 17_081])
    def test_budget_at_the_leaf_count(self, budget):
        g = game("3K3[3]")
        _, reals = uniform_realizations("3K3[3]")
        outcome = oracle_outcome(enumeration_oracle, g, MAX, reals[MIN], budget)
        assert outcome == oracle_outcome(
            reference_oracle, g, MAX, reals[MIN], budget
        )
        assert isinstance(outcome, str) == (budget < 17_080)

    # The abort messages of the max sides of 3K3[1] (352,144 reduced
    # pure strategies) and 3K3[3] (17,080) at the first solver iterate,
    # recorded before the oracle memoized its search states: about
    # twenty budgets spread over each leaf count, then the count less
    # one, the count, and one more.  Most aborts fall inside a state the
    # search has met before.  ``None`` marks a budget the search fits.
    ABORTS = [
        ('3K3[1]', 1, 'more than 1 reduced pure strategies (expanding the infoset group at depth 3; best value so far 0)'),
        ('3K3[1]', 17_607, 'more than 17607 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.583333333333)'),
        ('3K3[1]', 35_214, 'more than 35214 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.583333333333)'),
        ('3K3[1]', 52_821, 'more than 52821 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.583333333333)'),
        ('3K3[1]', 70_428, 'more than 70428 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.583333333333)'),
        ('3K3[1]', 88_036, 'more than 88036 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.583333333333)'),
        ('3K3[1]', 105_643, 'more than 105643 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.583333333333)'),
        ('3K3[1]', 123_250, 'more than 123250 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.583333333333)'),
        ('3K3[1]', 140_857, 'more than 140857 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.666666666667)'),
        ('3K3[1]', 158_464, 'more than 158464 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.666666666667)'),
        ('3K3[1]', 176_072, 'more than 176072 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.666666666667)'),
        ('3K3[1]', 193_679, 'more than 193679 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.666666666667)'),
        ('3K3[1]', 211_286, 'more than 211286 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.666666666667)'),
        ('3K3[1]', 228_893, 'more than 228893 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.666666666667)'),
        ('3K3[1]', 246_500, 'more than 246500 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.666666666667)'),
        ('3K3[1]', 264_108, 'more than 264108 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.666666666667)'),
        ('3K3[1]', 281_715, 'more than 281715 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.666666666667)'),
        ('3K3[1]', 299_322, 'more than 299322 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.666666666667)'),
        ('3K3[1]', 316_929, 'more than 316929 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.666666666667)'),
        ('3K3[1]', 334_536, 'more than 334536 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.666666666667)'),
        ('3K3[1]', 352_143, 'more than 352143 reduced pure strategies (expanding the infoset group at depth 3; best value so far 0.666666666667)'),
        ('3K3[1]', 352_144, None),
        ('3K3[1]', 352_145, None),
        ('3K3[3]', 1, 'more than 1 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0)'),
        ('3K3[3]', 854, 'more than 854 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.416666666667)'),
        ('3K3[3]', 1_708, 'more than 1708 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.5)'),
        ('3K3[3]', 2_562, 'more than 2562 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.5)'),
        ('3K3[3]', 3_416, 'more than 3416 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.5)'),
        ('3K3[3]', 4_270, 'more than 4270 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.5)'),
        ('3K3[3]', 5_124, 'more than 5124 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.666666666667)'),
        ('3K3[3]', 5_978, 'more than 5978 reduced pure strategies (expanding the infoset group at depth 4; best value so far 0.666666666667)'),
        ('3K3[3]', 6_832, 'more than 6832 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.666666666667)'),
        ('3K3[3]', 7_686, 'more than 7686 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.666666666667)'),
        ('3K3[3]', 8_540, 'more than 8540 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.666666666667)'),
        ('3K3[3]', 9_394, 'more than 9394 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.666666666667)'),
        ('3K3[3]', 10_248, 'more than 10248 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.666666666667)'),
        ('3K3[3]', 11_102, 'more than 11102 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.666666666667)'),
        ('3K3[3]', 11_956, 'more than 11956 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.666666666667)'),
        ('3K3[3]', 12_810, 'more than 12810 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.666666666667)'),
        ('3K3[3]', 13_664, 'more than 13664 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.666666666667)'),
        ('3K3[3]', 14_518, 'more than 14518 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.666666666667)'),
        ('3K3[3]', 15_372, 'more than 15372 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.666666666667)'),
        ('3K3[3]', 16_226, 'more than 16226 reduced pure strategies (expanding the infoset group at depth 5; best value so far 0.666666666667)'),
        ('3K3[3]', 17_079, 'more than 17079 reduced pure strategies (expanding the infoset group at depth 2; best value so far 0.666666666667)'),
        ('3K3[3]', 17_080, None),
        ('3K3[3]', 17_081, None),
    ]

    @pytest.mark.parametrize(
        "name, budget, message", ABORTS, ids=[f"{n}-{b}" for n, b, _ in ABORTS]
    )
    def test_budget_abort_inside_repeated_states(self, name, budget, message):
        g = game(name)
        _, reals = uniform_realizations(name)
        outcome = oracle_outcome(enumeration_oracle, g, MAX, reals[MIN], budget)
        if message is None:
            assert outcome == oracle_outcome(
                enumeration_oracle, g, MAX, reals[MIN], 10**7
            )
        else:
            assert outcome == message

    def test_ties_go_to_the_first_plan_in_search_order(self):
        # The right plan's exact sum 1 + 2**-59 is the larger, but both
        # sums are within half an ulp of 1.0 and round to it, so the
        # left plan, first in search order, is the best response.
        g = two_guesses()
        real = dict(zip(g.terminals, [1.0, 2.0**-60, 1.0, 2.0**-59]))
        assert Fraction(1) + Fraction(2)**-60 < Fraction(1) + Fraction(2)**-59
        for oracle in (enumeration_oracle, reference_oracle):
            assert oracle(g, MAX, real) == (1.0, {g.infoset[g.root]: 0})


def stop_or_go_chain(levels):
    """One player decides ``levels`` times in a row whether to stop (0)
    or go on; only going all the way pays 1."""
    records = []
    for t in range(levels):
        records.append({
            "kind": PLAYER,
            "player": 1,
            "infoset": f"level {t}",
            "actions": [
                {"label": "stop", "child": len(records) + 1},
                {"label": "go", "child": len(records) + 2},
            ],
        })
        records.append({"kind": TERMINAL, "utility": 0.0})
    records.append({"kind": TERMINAL, "utility": 1.0})
    return parse_game({
        "players": ["chance", "p1", "p2"],
        "teams": {MAX: [1], MIN: [2]},
        "root": 0,
        "nodes": records,
    })


def test_oracle_stack_grows_by_one_frame_per_group():
    # 600 groups of one infoset each fit under the interpreter's default
    # recursion limit of 1,000 only at one frame per group.
    g = stop_or_go_chain(600)
    value, choice = enumeration_oracle(g, MAX, {z: 1.0 for z in g.terminals})
    assert value == 1.0
    assert choice == {i: 1 for i in g.side_infosets(MAX)}


def wide_group(width, deep):
    """A chance root over ``width`` one-node infosets of player 1 at
    depth 1, each choosing to stop or go; going at the last ``deep`` of
    them reaches a further infoset of two actions at depth 2."""
    records = [{"kind": CHANCE, "actions": []}]

    def add(record):
        records.append(record)
        return len(records) - 1

    def terminal(u):
        return add({"kind": TERMINAL, "utility": u})

    for k in range(width):
        node = add({"kind": PLAYER, "player": 1, "infoset": f"wide {k}"})
        records[0]["actions"].append(
            {"label": f"c{k}", "child": node, "prob": f"1/{width}"}
        )
        if k >= width - deep:
            go = add({"kind": PLAYER, "player": 1, "infoset": f"deep {k}"})
            records[go]["actions"] = [
                {"label": a, "child": terminal((k + j) % 4)}
                for j, a in enumerate("lr")
            ]
        else:
            go = terminal(k % 5 / 2)
        records[node]["actions"] = [
            {"label": "stop", "child": terminal(k % 3)},
            {"label": "go", "child": go},
        ]
    return parse_game({
        "players": ["chance", "p1", "p2"],
        "teams": {MAX: [1], MIN: [2]},
        "root": 0,
        "nodes": records,
    })


@pytest.mark.parametrize("deep, budget, best", [
    (0, 7, "1.00125"),
    (0, 1000, "1.00333333333"),
    (3, 7, "1.00166666667"),
    (3, 1000, "1.00625"),
], ids=["leaf-7", "leaf-1000", "branching-7", "branching-1000"])
def test_budget_abort_in_a_group_of_1200_infosets(deep, budget, best):
    # A group's combos take no stack per infoset: 1,200 live infosets in
    # one group, the leaf group or one that branches, abort on the budget
    # under the default recursion limit with the usual message.
    g = wide_group(1200, deep)
    message = (
        f"more than {budget} reduced pure strategies (expanding the "
        f"infoset group at depth {1 + (deep > 0)}; best value so far {best})"
    )
    with pytest.raises(BudgetExceededError) as err:
        enumeration_oracle(g, MAX, {z: 1.0 for z in g.terminals}, budget)
    assert str(err.value) == message
