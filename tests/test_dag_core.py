"""Flow sweeps, best response, regret banks, tree expansion."""

import hashlib
import itertools

import numpy as np
import pytest

from tbdag import (
    GameValidationError,
    MAX,
    MIN,
    SolveConfig,
    analyze,
    build_tbdag,
    generate,
    list_presets,
    solve,
)
from tbdag.dag import (
    FlowVector,
    LocalRegretBank,
    best_response,
    csr_of,
    dag_cfr_strategy,
    dag_cfr_utility,
    expand_to_tree,
    freeze_csr,
    sequence_form,
)
from test_acceptance import SMALL_ZOO, game


def diamond_problem():
    """Two routes meet in a shared decision point with three exits.

    Slots 0..2 are payoff slots (payload ids) reached through the
    shared point; slot 3 is reached directly from the first route.
    """
    return freeze_problem(
        MAX, 4,
        counts=[2, 3],  # the top point, the shared point
        children=[[0], [1], [1], [], [], []],
        payloads=[[], [3], [], [0], [1], [2]],
    )


def out_of_order_problem():
    """Points listed against the frozen order: decision point 1 is the
    top and feeds 0 through its second action, 2 through its first."""
    return freeze_problem(
        MAX, 4,
        counts=[1, 2, 1],
        children=[[1], [], [2], [0], []],
        payloads=[[], [1], [0], [3], [2]],
    )


def freeze_problem(side, n_slots, counts, children, payloads):
    """Freeze a problem given as action counts and per-row lists."""
    aoff = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=aoff[1:])
    return freeze_csr(
        side, n_slots, aoff, csr_of(children), csr_of(payloads)
    )


def pay_for(problem, slot_values):
    pay = np.zeros(problem.n_obs)
    owner = np.repeat(
        np.arange(problem.n_obs), np.diff(problem.obs_poff)
    )
    np.add.at(pay, owner, slot_values[problem.payload])
    return pay


class TestFlows:
    def test_diamond_flow(self):
        p = diamond_problem()
        r = p.uniform_strategy()
        flow = dag_cfr_strategy(p, r)
        flow.check_conservation()
        # The shared point collects both routes: mass 1 total.
        shared = 1 - p.root_dec
        assert np.isclose(flow.x_dec[shared], 1.0)
        assert np.isclose(flow.terminal_flow[3], 0.5)
        assert np.allclose(flow.terminal_flow[:3], 1.0 / 3)

    def test_value_consistency(self):
        p = diamond_problem()
        vals = np.array([1.0, -2.0, 0.5, 3.0])
        pay = pay_for(p, vals)
        r = p.uniform_strategy()
        flow = dag_cfr_strategy(p, r)
        v_act, v_dec = dag_cfr_utility(p, r, pay)
        total = float(flow.x_obs @ pay)
        assert np.isclose(total, pay[0] + v_dec[p.root_dec])
        expect = 0.5 * 3.0 + (1.0 - 2.0 + 0.5) / 3
        assert np.isclose(total, expect)

    def test_best_response_beats_all_pures(self):
        p = diamond_problem()
        rng = np.random.default_rng(7)
        for _ in range(5):
            vals = rng.normal(size=4)
            pay = pay_for(p, vals)
            value, choice = best_response(p, pay)
            counts = p.action_counts()
            best_pure = -np.inf
            for combo in itertools.product(
                *(range(c) for c in counts)
            ):
                r = np.zeros(p.n_act)
                for d, a in enumerate(combo):
                    r[p.dec_aoff[d] + a] = 1.0
                flow = dag_cfr_strategy(p, r)
                best_pure = max(best_pure, float(flow.x_obs @ pay))
            assert np.isclose(value, best_pure)
            flow = dag_cfr_strategy(p, choice)
            assert np.isclose(float(flow.x_obs @ pay), value)


class TestNonFinitePayoff:
    """``best_response`` rejects a NaN or infinite payoff at entry."""

    def test_nan_payoff_names_the_observation_point(self):
        p = build_tbdag(game("fig2"), MAX).problem
        for o in (0, 7, p.n_obs - 1):
            pay = np.zeros(p.n_obs)
            pay[o] = np.nan
            with pytest.raises(GameValidationError) as err:
                best_response(p, pay)
            assert str(err.value) == (
                f"payoff of observation point {o} is not finite (nan)"
            )

    def test_first_bad_entry_is_named(self):
        p = build_tbdag(game("fig2"), MAX).problem
        pay = np.ones(p.n_obs)
        pay[[5, 3, 11]] = [np.nan, -np.inf, np.inf]
        with pytest.raises(GameValidationError) as err:
            best_response(p, pay)
        assert str(err.value) == (
            "payoff of observation point 3 is not finite (-inf)"
        )


class TestFreezeChecks:
    """``freeze_csr`` rejects malformed DAGs."""

    def test_root_must_feed_one_decision_point(self):
        with pytest.raises(GameValidationError, match="exactly one"):
            freeze_problem(MAX, 1, [0], [[]], [[]])

    def test_decision_point_without_actions(self):
        with pytest.raises(GameValidationError) as err:
            freeze_problem(MAX, 1, [1, 0], [[0], [1]], [[], [0]])
        assert str(err.value) == "decision point 1 has no actions"

    def test_cycle(self):
        # Decision point 1 is fed by the observation point of slot 1,
        # its own only action.
        with pytest.raises(GameValidationError) as err:
            freeze_problem(
                MAX, 1, [1, 1], [[0], [1], [1]], [[], [0], []]
            )
        assert str(err.value) == "decision DAG contains a cycle"

    @pytest.mark.parametrize("children, payloads, message", [
        ([[0], [], []], [[], [0]],
         "children has 3 rows, not 2 (the root and one per action slot)"),
        ([[0], []], [[], [0], []],
         "payloads has 3 rows, not 2 (the root and one per action slot)"),
    ])
    def test_one_row_per_action_slot(self, children, payloads, message):
        with pytest.raises(GameValidationError) as err:
            freeze_problem(MAX, 1, [1], children, payloads)
        assert str(err.value) == message

    @pytest.mark.parametrize("bad", [3, -1])
    def test_child_out_of_range(self, bad):
        with pytest.raises(GameValidationError) as err:
            freeze_problem(
                MAX, 2, [2, 1, 1], [[0], [1], [2, bad], [], []],
                [[], [], [], [0], [1]],
            )
        assert str(err.value) == (
            f"decision point {bad} is out of range: there are 3 decision "
            f"points"
        )

    @pytest.mark.parametrize("bad", [7, -1])
    def test_payload_out_of_range(self, bad):
        # Unchecked, id 7 would stretch the terminal flow to 8 entries.
        with pytest.raises(GameValidationError) as err:
            freeze_problem(MAX, 3, [2], [[0], [], []], [[], [0], [bad]])
        assert str(err.value) == (
            f"payload slot {bad} is out of range: there are 3 payload slots"
        )

    @pytest.mark.parametrize("root, unfed", [(1, 0), (0, 1)])
    def test_decision_point_nothing_feeds(self, root, unfed):
        # Unchecked, an unfed point 0 would share the root's level and
        # take its neighbour's flow.
        with pytest.raises(GameValidationError) as err:
            freeze_problem(MAX, 2, [1, 1], [[root], [], []], [[], [0], [1]])
        assert str(err.value) == (
            f"decision point {unfed} is fed by no observation point"
        )

    def test_numbering_is_by_level_owner_then_action(self):
        # Decision points are listed before their parent (0 is "b", 1
        # the top, 2 "a") and the top point's actions lead to them
        # against id order.  Observation point o + 1 is the child of
        # frozen action slot o.
        p = out_of_order_problem()
        assert p.dec_old.tolist() == [1, 0, 2]
        assert p.root_dec == 0
        assert p.level_off.tolist() == [0, 0, 1, 3]
        assert p.obs_children.tolist() == [0, 2, 1]
        assert p.obs_coff.tolist() == [0, 1, 2, 3, 3, 3]
        assert p.payload.tolist() == [0, 3, 1, 2]
        assert p.dec_parent_obs.tolist() == [0, 2, 1]
        with pytest.raises(ValueError):
            p.dec_old[0] = 0


class TestSequenceForm:
    def test_kuhn_counts(self):
        g = generate(list_presets()["2K3"])
        for side in (MAX, MIN):
            p = sequence_form(g, side)
            assert p.n_dec == len(g.side_infosets(side)) + 1
            assert p.n_obs - 1 == 13  # distinct action histories
            # Every terminal appears exactly once in some payload.
            assert sorted(p.payload) == sorted(g.terminals)

    def test_imperfect_recall_rejected(self):
        g = generate(list_presets()["fig2"])
        with pytest.raises(GameValidationError, match="recall"):
            sequence_form(g, MAX)

    def test_flow_is_behavioral_reach(self):
        g = generate(list_presets()["2K3"])
        p = sequence_form(g, MAX)
        r = p.uniform_strategy()
        flow = dag_cfr_strategy(p, r)
        flow.check_conservation()
        # Max acts at most twice on any path, so flows are dyadic.
        reached = flow.terminal_flow[list(g.terminals)]
        assert set(np.round(reached, 6)) <= {0.25, 0.5, 1.0}


class TestTreeEquivalence:
    @pytest.mark.parametrize("variant", ["rm", "rm+", "prm+", "mwu"])
    def test_diamond_matches_tree(self, variant):
        """Both copies of the shared point see the value stream the
        original sees, so an independent learner per copy stays in
        lockstep and the projected flows coincide."""
        p = diamond_problem()
        tree = expand_to_tree(p)
        assert tree.problem.n_dec == 3  # the shared point unrolls twice
        vals = np.array([1.0, -2.0, 0.5, 3.0])
        pay_dag = pay_for(p, vals)
        pay_tree = pay_dag[tree.obs_map]
        bank_dag = LocalRegretBank(p, variant, utility_scale=3.0)
        bank_tree = LocalRegretBank(
            tree.problem, variant, utility_scale=3.0
        )
        for _ in range(25):
            r_dag = bank_dag.current()
            r_tree = bank_tree.current()
            assert np.allclose(r_tree, r_dag[tree.act_map], atol=1e-12)
            x_dag = dag_cfr_strategy(p, r_dag).x_obs
            x_tree = dag_cfr_strategy(tree.problem, r_tree).x_obs
            x_fold = np.zeros(p.n_obs)
            np.add.at(x_fold, tree.obs_map, x_tree)
            assert np.allclose(x_fold, x_dag, atol=1e-12)
            v_act, v_dec = dag_cfr_utility(p, r_dag, pay_dag)
            bank_dag.observe(v_act, v_dec)
            tv_act, tv_dec = dag_cfr_utility(
                tree.problem, r_tree, pay_tree
            )
            bank_tree.observe(tv_act, tv_dec)

    def test_terminal_flows_agree(self):
        p = diamond_problem()
        tree = expand_to_tree(p)
        r = np.array([0.3, 0.7, 0.2, 0.5, 0.3])
        f_dag = dag_cfr_strategy(p, r)
        f_tree = dag_cfr_strategy(tree.problem, r[tree.act_map])
        assert np.allclose(
            f_dag.terminal_flow, f_tree.terminal_flow, atol=1e-14
        )

    def test_budget_enforced(self):
        from tbdag import BudgetExceededError

        p = diamond_problem()
        with pytest.raises(BudgetExceededError) as err:
            expand_to_tree(p, budget=2)
        assert str(err.value) == (
            "tree expansion exceeded 2 decision points at level 1 "
            "(1 copied so far)"
        )
        assert expand_to_tree(p, budget=3).problem.n_dec == 3
        for bad in (float("nan"), True, 0, -5):
            with pytest.raises(GameValidationError) as err:
                expand_to_tree(p, budget=bad)
            assert str(err.value) == (
                f"tree budget must be a number of at least 1, not {bad!r}"
            )


class TestRegretBanks:
    def test_rm_matches_hand_computation(self):
        p = diamond_problem()
        bank = LocalRegretBank(p, "rm")
        r0 = bank.current()
        assert np.allclose(r0, p.uniform_strategy())
        v_act = np.array([1.0, 0.0, 3.0, 0.0, 0.0])
        v_dec = np.array([0.5, 1.0])
        bank.observe(v_act, v_dec)
        r1 = bank.current()
        # Decision 0 regrets: (0.5, -0.5) -> all mass on action 0.
        top = slice(p.dec_aoff[0], p.dec_aoff[0 + 1])
        assert np.allclose(r1[top], [1.0, 0.0])

    def test_rm_plus_clamps(self):
        p = diamond_problem()
        bank = LocalRegretBank(p, "rm+")
        v_act = np.array([-5.0, 1.0, 0.0, 0.0, 0.0])
        v_dec = np.array([0.0, 0.0])
        bank.observe(v_act, v_dec)
        assert np.all(bank.cum >= 0.0)

    def test_prm_plus_prediction_shifts(self):
        p = diamond_problem()
        bank = LocalRegretBank(p, "prm+")
        v_act = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        v_dec = np.array([0.5, 0.0])
        bank.observe(v_act, v_dec)
        r = bank.current()
        # Prediction doubles the lead of the winning action.
        assert r[0] == 1.0

    def test_mwu_strictly_positive(self):
        p = diamond_problem()
        bank = LocalRegretBank(p, "mwu", utility_scale=3.0)
        v_act = np.array([1.0, -1.0, 2.0, 0.0, -2.0])
        v_dec = np.array([0.0, 0.0])
        bank.observe(v_act, v_dec)
        r = bank.current()
        assert np.all(r > 0.0)
        assert np.argmax(r[:2]) == 0

    def test_average_weights(self):
        p = diamond_problem()
        for variant, expected in (
            ("rm", 1.0),
            ("rm+", 3.0),
            ("prm+", 9.0),
            ("mwu", 1.0),
        ):
            bank = LocalRegretBank(p, variant)
            for _ in range(3):
                bank.observe(np.zeros(p.n_act), np.zeros(p.n_dec))
            assert bank.average_weight() == expected


# ---------------------------------------------------------------------
# Sweep plan: the planned sweeps against the per-level sweeps that
# recomputed their index arrays on every call, kept here as the
# reference they must match bit for bit.
# ---------------------------------------------------------------------


def ref_strategy(p, r):
    x_dec = np.zeros(p.n_dec)
    x_act = np.zeros(p.n_act)
    x_obs = np.zeros(p.n_obs)
    x_obs[0] = 1.0
    counts = p.action_counts()
    for lv in range(1, p.n_levels):
        d0, d1 = p.level_off[lv], p.level_off[lv + 1]
        if d0 == d1:
            continue
        x_dec[d0:d1] = np.add.reduceat(
            x_obs[p.dec_parent_obs[p.dec_poff[d0]: p.dec_poff[d1]]],
            (p.dec_poff[d0:d1] - p.dec_poff[d0]),
        )
        a0, a1 = p.dec_aoff[d0], p.dec_aoff[d1]
        x_act[a0:a1] = np.repeat(x_dec[d0:d1], counts[d0:d1]) * r[a0:a1]
        x_obs[a0 + 1: a1 + 1] = x_act[a0:a1]
    owner = np.repeat(np.arange(p.n_obs, dtype=np.int64), np.diff(p.obs_poff))
    terminal_flow = np.bincount(p.payload, x_obs[owner], p.n_slots)
    return FlowVector(p, x_dec, x_obs, terminal_flow)


def ref_utility(p, r, pay_obs):
    v_obs = np.array(pay_obs, dtype=float, copy=True)
    v_act = np.zeros(p.n_act)
    v_dec = np.zeros(p.n_dec)
    for lv in range(p.n_levels - 1, 0, -1):
        d0, d1 = p.level_off[lv], p.level_off[lv + 1]
        if d0 == d1:
            continue
        a0, a1 = p.dec_aoff[d0], p.dec_aoff[d1]
        v_act[a0:a1] = v_obs[a0 + 1: a1 + 1]
        v_dec[d0:d1] = np.add.reduceat(
            r[a0:a1] * v_act[a0:a1], p.dec_aoff[d0:d1] - a0
        )
        span = slice(p.dec_poff[d0], p.dec_poff[d1])
        counts = p.dec_poff[d0 + 1: d1 + 1] - p.dec_poff[d0:d1]
        np.add.at(
            v_obs, p.dec_parent_obs[span], np.repeat(v_dec[d0:d1], counts)
        )
    return v_act, v_dec


def ref_best_response(p, pay_obs):
    v_obs = np.array(pay_obs, dtype=float, copy=True)
    v_act = np.zeros(p.n_act)
    choice = np.zeros(p.n_act)
    idx = np.arange(p.n_act)
    for lv in range(p.n_levels - 1, 0, -1):
        d0, d1 = p.level_off[lv], p.level_off[lv + 1]
        if d0 == d1:
            continue
        a0, a1 = p.dec_aoff[d0], p.dec_aoff[d1]
        v_act[a0:a1] = v_obs[a0 + 1: a1 + 1]
        offs = p.dec_aoff[d0:d1] - a0
        counts = np.diff(p.dec_aoff[d0: d1 + 1])
        v_best = np.maximum.reduceat(v_act[a0:a1], offs)
        hit = v_act[a0:a1] == np.repeat(v_best, counts)
        first = np.minimum.reduceat(np.where(hit, idx[a0:a1], p.n_act), offs)
        choice[first] = 1.0
        span = slice(p.dec_poff[d0], p.dec_poff[d1])
        pcounts = p.dec_poff[d0 + 1: d1 + 1] - p.dec_poff[d0:d1]
        np.add.at(v_obs, p.dec_parent_obs[span], np.repeat(v_best, pcounts))
    return float(v_obs[0]), choice


def random_strategy(p, rng):
    """A local mixed strategy with some exact zeros (uniform where a
    decision point drew all zeros)."""
    w = rng.random(p.n_act)
    w[rng.random(p.n_act) < 0.25] = 0.0
    totals = np.add.reduceat(w, p.dec_aoff[:-1])[p.act_dec]
    return np.where(totals > 0, w / np.where(totals > 0, totals, 1.0),
                    p.uniform_strategy())


def payoff_draws(p, rng):
    """Continuous payoffs, small integers (exact ties between actions)
    and all zeros (every action ties)."""
    return (
        rng.normal(size=p.n_obs),
        rng.integers(-1, 2, size=p.n_obs).astype(float),
        np.zeros(p.n_obs),
    )


def assert_sweeps_match_reference(p, rng):
    for r in (p.uniform_strategy(), random_strategy(p, rng)):
        flow, ref = dag_cfr_strategy(p, r), ref_strategy(p, r)
        for field in ("x_dec", "x_act", "x_obs", "terminal_flow"):
            assert np.array_equal(
                getattr(flow, field), getattr(ref, field)
            ), field
        for pay in payoff_draws(p, rng):
            v_act, v_dec = dag_cfr_utility(p, r, pay)
            ref_act, ref_dec = ref_utility(p, r, pay)
            assert np.array_equal(v_act, ref_act)
            assert np.array_equal(v_dec, ref_dec)
    for pay in payoff_draws(p, rng):
        value, choice = best_response(p, pay)
        ref_value, ref_choice = ref_best_response(p, pay)
        assert value == ref_value
        assert np.array_equal(choice, ref_choice)
    # With every action tied, each decision point takes its lowest slot.
    _, choice = best_response(p, np.zeros(p.n_obs))
    assert np.array_equal(np.flatnonzero(choice), p.dec_aoff[:-1])


class TestSweepPlan:
    @pytest.mark.parametrize("name", SMALL_ZOO)
    def test_matches_reference_on_small_zoo(self, name):
        g = game(name)
        rng = np.random.default_rng(SMALL_ZOO.index(name))
        for side in (MAX, MIN):
            a = analyze(g, side)
            for reduce in (False, True):
                p = build_tbdag(g, side, reduce=reduce, analysis=a).problem
                assert_sweeps_match_reference(p, rng)

    def test_matches_reference_on_sequence_form_and_tree(self):
        rng = np.random.default_rng(99)
        for side in (MAX, MIN):
            assert_sweeps_match_reference(
                sequence_form(game("2K3"), side), rng
            )
        for p in (
            diamond_problem(),
            build_tbdag(game("fig2"), MAX).problem,
            build_tbdag(game("3K3[1]"), MIN).problem,
        ):
            assert_sweeps_match_reference(expand_to_tree(p).problem, rng)

    def test_matches_reference_on_actions_listed_against_id_order(self):
        assert_sweeps_match_reference(
            out_of_order_problem(), np.random.default_rng(7)
        )

    def test_plan_covers_the_problem_read_only(self):
        p = build_tbdag(game("3K3[1,2]"), MIN).problem
        assert p.levels[0].d0 == 0 and p.levels[-1].d1 == p.n_dec
        for above, below in zip(p.levels, p.levels[1:]):
            assert (above.d1, above.a1, above.s1) == (
                below.d0, below.a0, below.s0
            )
        for lv in p.levels:
            assert np.array_equal(
                lv.act_off + lv.a0, p.dec_aoff[lv.d0: lv.d1]
            )
            assert np.array_equal(
                lv.parent_off + lv.s0, p.dec_poff[lv.d0: lv.d1]
            )
        counts = p.action_counts()
        assert np.array_equal(
            p.act_dec, np.repeat(np.arange(p.n_dec), counts)
        )
        assert np.array_equal(
            p.parent_dec, np.repeat(np.arange(p.n_dec), np.diff(p.dec_poff))
        )
        assert np.array_equal(
            p.payload_owner,
            np.repeat(np.arange(p.n_obs), np.diff(p.obs_poff)),
        )
        for arr in (p.act_dec, p.parent_dec, p.payload_owner,
                    p.levels[0].act_off, p.levels[0].parent_off):
            with pytest.raises(ValueError):
                arr[0] = 1


def action_slot_problems():
    """Built (raw and reduced), sequence-form and tree problems."""
    for name in ("fig2", "2K3", "3K3[1]"):
        for side in (MAX, MIN):
            for reduce in (False, True):
                yield build_tbdag(game(name), side, reduce=reduce).problem
    for side in (MAX, MIN):
        yield sequence_form(game("2K3"), side)
    yield expand_to_tree(diamond_problem()).problem
    yield expand_to_tree(build_tbdag(game("fig2"), MAX).problem).problem


def assert_x_act_is_x_obs_tail(flow):
    tail = flow.x_obs[1:]
    assert flow.x_act.base is flow.x_obs
    assert flow.x_act.ctypes.data == tail.ctypes.data
    assert flow.x_act.shape == tail.shape
    assert flow.x_act.strides == tail.strides


class TestActionSlotNumbering:
    def test_observation_point_follows_its_action_slot(self):
        rng = np.random.default_rng(5)
        for p in action_slot_problems():
            assert p.n_act == p.n_obs - 1
            flow = dag_cfr_strategy(p, random_strategy(p, rng))
            assert_x_act_is_x_obs_tail(flow)
            assert_x_act_is_x_obs_tail(flow.scaled(0.5))

    def test_solver_averages_keep_the_view(self):
        rep = solve(game("fig2"), SolveConfig(max_iters=20))
        for flow in rep.averages.values():
            assert_x_act_is_x_obs_tail(flow)
            flow.check_conservation()


def renumbered_input(p, new_id):
    """``freeze_csr`` input of the frozen problem ``p`` with decision
    point ``d`` given id ``new_id[d]``; each point's action rows move
    with it."""
    old = np.argsort(new_id)  # the frozen point behind each input id
    slots = [range(p.dec_aoff[d], p.dec_aoff[d + 1]) for d in old]
    rows = [0] + [a + 1 for span in slots for a in span]
    children = [
        new_id[p.obs_children[p.obs_coff[o]: p.obs_coff[o + 1]]].tolist()
        for o in rows
    ]
    payloads = [
        p.payload[p.obs_poff[o]: p.obs_poff[o + 1]].tolist() for o in rows
    ]
    return list(map(len, slots)), children, payloads


def level_preserving_shuffle(p, rng):
    """Fresh decision ids that interleave the levels at random but keep
    each level's points in their relative order."""
    level = np.repeat(np.arange(p.n_levels), np.diff(p.level_off))
    return np.argsort(rng.permutation(level), kind="stable")


class TestAnyNumbering:
    """``freeze_csr`` freezes every decision point numbering that keeps
    each level's relative order to the same problem."""

    def test_shuffled_ids_freeze_to_the_same_problem(self):
        rng = np.random.default_rng(11)
        for p in action_slot_problems():
            for _ in range(3):
                new_id = level_preserving_shuffle(p, rng)
                q = freeze_problem(
                    p.side, p.n_slots, *renumbered_input(p, new_id)
                )
                for field in (
                    "dec_aoff", "obs_coff", "obs_children", "obs_poff",
                    "payload", "dec_poff", "dec_parent_obs", "level_off",
                    "act_dec", "parent_dec", "payload_owner",
                ):
                    assert np.array_equal(
                        getattr(q, field), getattr(p, field)
                    ), field
                assert q.root_dec == p.root_dec
                assert len(q.levels) == len(p.levels)
                for mine, theirs in zip(q.levels, p.levels):
                    assert all(map(np.array_equal, mine, theirs))
                assert np.array_equal(q.dec_old, new_id)


def solve_digest(name, algorithm, mode):
    """First 16 hex digits of a SHA-256 over the solve CSV without its
    ``time_ms`` column and the four average flow arrays of both sides
    (as little-endian float64)."""
    rep = solve(
        game(name),
        SolveConfig(algorithm=algorithm, mode=mode, eps=1e-3, max_iters=1000),
    )
    h = hashlib.sha256()
    for line in rep.csv().splitlines():
        cols = line.split(",")
        h.update((",".join(cols[:1] + cols[2:]) + "\n").encode())
    for side in (MAX, MIN):
        flow = rep.averages[side]
        for arr in (flow.x_dec, flow.x_act, flow.x_obs, flow.terminal_flow):
            h.update(arr.astype("<f8").tobytes())
    return h.hexdigest()[:16]


# Recorded with the per-level sweeps that predate the sweep plan.
SOLVE_DIGESTS = {
    ("fig2", "cfr", "simultaneous"): "07b474b9b0ffa464",
    ("fig2", "cfr", "alternating"): "07b474b9b0ffa464",
    ("fig2", "cfr+", "simultaneous"): "7693b46617151a43",
    ("fig2", "cfr+", "alternating"): "7693b46617151a43",
    ("fig2", "pcfr+", "simultaneous"): "9a79d0fca7cc783f",
    ("fig2", "pcfr+", "alternating"): "9a79d0fca7cc783f",
    ("fig2", "cfr-mwu", "simultaneous"): "b3ddc74c84bdd33e",
    ("fig2", "cfr-mwu", "alternating"): "b3ddc74c84bdd33e",
    ("2K3", "cfr", "simultaneous"): "08c97d7d4fb0ca06",
    ("2K3", "cfr", "alternating"): "215210ee26dab82b",
    ("2K3", "cfr+", "simultaneous"): "43172c8028a43a13",
    ("2K3", "cfr+", "alternating"): "50183d65ac6d2fd0",
    ("2K3", "pcfr+", "simultaneous"): "e6ef007aeaeeaf61",
    ("2K3", "pcfr+", "alternating"): "50e09e460dd3a4d3",
    ("2K3", "cfr-mwu", "simultaneous"): "fa273fecdfc29899",
    ("2K3", "cfr-mwu", "alternating"): "cfeef0920648ce09",
    ("3K3[1]", "cfr", "simultaneous"): "3e5cd10e6b87ee4c",
    ("3K3[1]", "cfr", "alternating"): "89e61cef64ee5811",
    ("3K3[1]", "cfr+", "simultaneous"): "a599aabf069e1a28",
    ("3K3[1]", "cfr+", "alternating"): "aa15b26eec765a2d",
    ("3K3[1]", "pcfr+", "simultaneous"): "6c15a5c68e5c4dd4",
    ("3K3[1]", "pcfr+", "alternating"): "b9fcc1d176a4a3fc",
    ("3K3[1]", "cfr-mwu", "simultaneous"): "26f3860d0aa52f32",
    ("3K3[1]", "cfr-mwu", "alternating"): "fbfa54393f780975",
}


@pytest.mark.parametrize("case", sorted(SOLVE_DIGESTS))
def test_solve_outputs_pinned(case):
    assert solve_digest(*case) == SOLVE_DIGESTS[case]


def reference_problem(case):
    """The problem of one ``PROBLEM_DIGESTS`` case, with the tree's maps
    (none for a sequence form)."""
    form, name, side, reduce = case
    if form == "sequence_form":
        return sequence_form(game(name), side), ()
    p = (
        diamond_problem() if name == "diamond"
        else build_tbdag(game(name), side, reduce=reduce).problem
    )
    tree = expand_to_tree(p)
    return tree.problem, (tree.act_map, tree.dec_map, tree.obs_map)


def problem_digest(p, maps):
    """First 16 hex digits of a SHA-256 over every CSR array,
    ``level_off``, the maps (as little-endian int64), ``root_dec`` and
    ``n_slots``."""
    h = hashlib.sha256()
    for arr in (
        p.dec_aoff, np.arange(1, p.n_obs), p.obs_coff, p.obs_children,
        p.obs_poff, p.payload, p.dec_poff, p.dec_parent_obs, p.level_off,
        *maps,
    ):
        h.update(np.asarray(arr).astype("<i8").tobytes())
    h.update(f"{p.root_dec},{p.n_slots}".encode())
    return h.hexdigest()[:16]


# The two reference forms the acceptance criteria compare the TB-DAG
# against; recorded with the point-at-a-time builder and recursive copy.
PROBLEM_DIGESTS = {
    ("sequence_form", "2K3", MAX, None): "98e9ff566549f665",
    ("sequence_form", "2K3", MIN, None): "1a3311a8b7056558",
    ("tree", "diamond", MAX, None): "4192aa58acf21561",
    ("tree", "fig2", MAX, True): "29f5fb52d836c401",
    ("tree", "3K3[1]", MIN, True): "f7c24a7969320929",
    ("tree", "3K3[1,2]", MAX, False): "4ed771140bea13e9",
}


@pytest.mark.parametrize("case", list(PROBLEM_DIGESTS), ids=str)
def test_reference_problems_pinned(case):
    p, maps = reference_problem(case)
    assert problem_digest(p, maps) == PROBLEM_DIGESTS[case]
    if maps:
        # The tree's copy order is its frozen numbering, which is why
        # expand_to_tree's maps need no remap.
        assert np.array_equal(p.dec_old, np.arange(p.n_dec))
