"""Belief-game construction, compaction, and the pure-strategy map."""

import itertools
import json
import random

import pytest

from tbdag import (
    CHANCE,
    MAX,
    MIN,
    PLAYER,
    TERMINAL,
    BudgetExceededError,
    GameValidationError,
    SolveConfig,
    analyze,
    belief_game_to_doc,
    build_tbdag,
    coordinator_view,
    generate,
    imperfect_recall_at,
    list_presets,
    make_belief_game,
    map_pure_strategy,
    parse_game,
    pure_strategy_value,
    solve,
)
from tbdag.game import GameWriter, build_game
from test_acceptance import SMALL_ZOO

PRESETS = list_presets()
# fig9-C16's full belief game has 1.5 million nodes and takes over 20 s
# to build and splice; fig9-C4 to fig9-C8 run the same code.
_SPLICED = tuple(n for n in SMALL_ZOO if n != "fig9-C16")


def game(name):
    return generate(PRESETS[name])


def random_profile(g, side, rng):
    return {
        i: rng.randrange(g.infosets[i].num_actions)
        for i in g.side_infosets(side)
    }


def assert_equivalent_under_sampling(g, bg, trials, seed):
    """Joint pure profiles give bit-identical utilities in both games."""
    rng = random.Random(seed)
    for _ in range(trials):
        pis = {side: random_profile(g, side, rng) for side in (MAX, MIN)}
        u_src = pure_strategy_value(g, {**pis[MAX], **pis[MIN]})
        rho = {}
        for side in (MAX, MIN):
            rho.update(map_pure_strategy(bg, side, pis[side]))
        assert pure_strategy_value(bg.game, rho) == u_src


class TestConstruction:
    def test_signaling_game_merges_the_sender_nodes(self):
        # The two sender nodes are separated only by the chance deal, so
        # the max proxy holds them in one belief and prescribes for both
        # sender infosets at once: 2 x 2 joint actions.
        g = game("fig2")
        bg = make_belief_game(g)
        # The receiver also holds two-node beliefs (it sees the signal,
        # not the deal), but only the sender slot prescribes for two
        # source infosets in one move.
        merged = [
            i
            for i, isets in bg.iset_infosets.items()
            if len(isets) > 1
        ]
        assert len(merged) == 1
        (i,) = merged
        assert len(bg.iset_beliefs[i]) == 2
        assert bg.iset_beliefs[i] == (1, 12)
        assert bg.iset_infosets[i] == tuple(
            sorted({g.infoset[1], g.infoset[12]})
        )
        iset = bg.game.infosets[i]
        assert bg.game.team_of[iset.player] == MAX
        i_a, i_b = bg.iset_infosets[i]
        assert iset.actions == tuple(
            f"{x},{y}"
            for x, y in itertools.product(
                g.infosets[i_a].actions, g.infosets[i_b].actions
            )
        )
        for h in iset.members:
            assert bg.game.depth[h] == 3 * g.depth[1]

    def test_three_slots_per_step(self):
        g = game("fig8")
        bg = make_belief_game(g)
        for n in range(bg.game.num_nodes):
            h, b_max, b_min = bg.annotations[n]
            assert h in b_max and h in b_min
            k, d = bg.game.kind[n], bg.game.depth[n]
            if k == TERMINAL:
                assert bg.roles[n] == "chance-resolves"
                assert b_max == (h,) and b_min == (h,)
                assert d == 3 * g.depth[h] + 2
            else:
                role = ("max-prescribes", "min-prescribes",
                        "chance-resolves")[d % 3]
                assert bg.roles[n] == role
                assert d // 3 == g.depth[h]
                if role == "chance-resolves":
                    assert k == CHANCE
                else:
                    assert k == PLAYER

    def test_proxy_players_and_teams(self):
        bg = make_belief_game(game("fig2"))
        assert bg.game.players == (
            "chance",
            "max-coordinator",
            "min-coordinator",
        )
        assert bg.game.side_players(MAX) == (1,)
        assert bg.game.side_players(MIN) == (2,)

    def test_resolution_slots_copy_the_chance_distribution(self):
        g = game("2K3")
        bg = make_belief_game(g)
        for n in range(bg.game.num_nodes):
            if bg.game.kind[n] != CHANCE:
                continue
            h = bg.annotations[n][0]
            if g.kind[h] == CHANCE:
                assert bg.game.probs[n] == g.probs[h]
                assert bg.game.labels[n] == g.labels[h]
            else:
                assert bg.game.probs[n] == (1.0,)

    def test_size_pins(self):
        # Determinism pins for the construction as a whole.
        for name, nodes, isets in [
            ("fig2", 165, 58),
            ("fig8", 173, 90),
            ("2K3", 201, 92),
            ("fig9-C6", 1556, 407),
            ("worst-k2b2d6", 44370, 1352),
        ]:
            bg = make_belief_game(game(name))
            assert bg.game.num_nodes == nodes, name
            assert len(bg.game.infosets) == isets, name

    def test_lone_terminal_gives_one_step(self):
        g = parse_game({
            "players": ["chance", "a", "b"],
            "teams": {"max": [1], "min": [2]},
            "root": 0,
            "nodes": [{"kind": "terminal", "utility": 1.0}],
        })
        bg = make_belief_game(g)
        assert bg.roles == (
            "max-prescribes", "min-prescribes", "chance-resolves"
        )
        assert bg.game.labels[:2] == [("-",), ("-",)]
        assert bg.root_iset == {MAX: 0, MIN: 1}

    def test_proxies_have_perfect_recall(self):
        for name in ("fig2", "fig8", "3K3[2]"):
            bg = make_belief_game(game(name))
            for side in (MAX, MIN):
                assert analyze(bg.game, side).perfect_recall
                view = coordinator_view(bg.game, side)
                assert imperfect_recall_at(bg.game, view) is None

    def test_proxy_without_perfect_recall_rejected(self, monkeypatch):
        monkeypatch.setattr(
            "tbdag.belief.imperfect_recall_at", lambda game, view: 0
        )
        with pytest.raises(GameValidationError, match="lost perfect recall"):
            make_belief_game(game("fig2"))


def reference_compaction(full):
    """The compact game spliced out of the full belief game after the
    fact, and the full-game ids of its nodes.

    Terminals and nodes with two or more actions are kept; each kept
    action leads to the first kept node down its single-child chain.
    """
    b = full.game
    off, child = b.action_offset, b.action_child

    def kept(n):
        while b.kind[n] != TERMINAL and off[n + 1] - off[n] == 1:
            n = child[off[n]]
        return n

    order = [n for n in range(b.num_nodes) if kept(n) == n]
    new_id = {n: i for i, n in enumerate(order)}
    w = GameWriter()
    for n in order:
        kids = [new_id[kept(c)] for c in b.children(n)]
        probs = b.probs[n] or [None] * len(kids)
        w.add(b.kind[n], b.player[n], b.infoset[n],
              zip(b.labels[n], kids, probs), b.utility[n])
    teams = {
        side: [p for p in range(len(b.players)) if b.team_of[p] == side]
        for side in (MAX, MIN)
    }
    return build_game(b.players, teams, new_id[kept(b.root)], w), order


def budget_abort(g, **kw):
    """The message of the budget abort of ``make_belief_game(g, **kw)``,
    or None if the budget does not stop it."""
    try:
        make_belief_game(g, **kw)
    except BudgetExceededError as exc:
        return str(exc)
    except GameValidationError:
        pass
    return None


class TestCompaction:
    def test_perfect_recall_game_comes_back_unchanged(self):
        # 2-player Kuhn has perfect recall, so after splicing the
        # single-action slots the belief game is the original tree,
        # node for node, in the original order.
        g = game("2K3")
        bg = make_belief_game(g, compact=True)
        c = bg.game
        assert c.num_nodes == g.num_nodes
        assert all(bg.annotations[n][0] == n for n in range(c.num_nodes))
        assert c.kind == g.kind
        assert c.action_offset == g.action_offset
        assert c.action_child == g.action_child
        assert c.labels == g.labels
        assert c.probs == g.probs
        assert c.utility == g.utility
        assert c.depth == g.depth
        for side in (MAX, MIN):
            want = sorted(
                g.infosets[i].members for i in g.side_infosets(side)
            )
            got = sorted(
                c.infosets[i].members for i in c.side_infosets(side)
            )
            assert got == want

    def test_compact_never_larger(self):
        for name in ("fig2", "2K3"):
            g = game(name)
            full = make_belief_game(g)
            compact = make_belief_game(g, compact=True)
            assert compact.game.num_nodes <= full.game.num_nodes
            assert len(compact.game.terminals) == len(full.game.terminals)

    def test_compaction_can_break_timeability(self):
        # Splicing single-action chains shifts depths unevenly, so a
        # shared infoset can end up spanning two depths; the validator
        # rejects that rather than reporting a malformed game.
        # Splicing the finished full game fails the same way.
        full = make_belief_game(game("worst-k1b2d5"))
        with pytest.raises(GameValidationError, match="timeable") as ref:
            reference_compaction(full)
        with pytest.raises(GameValidationError, match="timeable") as emitted:
            make_belief_game(game("worst-k1b2d5"), compact=True)
        assert str(emitted.value) == str(ref.value)

    def test_compact_drops_the_strategy_tables(self):
        bg = make_belief_game(game("fig2"), compact=True)
        assert bg.compact
        assert bg.root_iset == {} and bg.successors == {}
        with pytest.raises(GameValidationError, match="compact"):
            map_pure_strategy(bg, MAX, {})

    @pytest.mark.parametrize("name", _SPLICED)
    def test_emitted_compaction_matches_splicing_the_full_game(self, name):
        g = game(name)
        full = make_belief_game(g)
        try:
            ref, order = reference_compaction(full)
        except GameValidationError as exc:
            with pytest.raises(GameValidationError) as emitted:
                make_belief_game(g, compact=True)
            assert str(emitted.value) == str(exc)
            return
        got = make_belief_game(g, compact=True)
        assert got.game == ref
        assert got.node_state == tuple(full.node_state[n] for n in order)
        for i in range(2):
            assert got.node_beliefs[i] == tuple(
                full.node_beliefs[i][n] for n in order
            )

    @pytest.mark.parametrize("name", ["fig2", "2K3", "fig9-C6", "worst-k1b2d5"])
    def test_budget_counts_the_full_construction(self, name):
        g = game(name)
        n = make_belief_game(g).game.num_nodes
        for budget in (1, 7, n // 2, n - 1):
            full = budget_abort(g, node_budget=budget)
            assert full is not None
            assert budget_abort(g, compact=True, node_budget=budget) == full
        assert budget_abort(g, compact=True, node_budget=n) is None


class TestWorstCaseBounds:
    @pytest.mark.parametrize(
        "name,k,b,d", [("worst-k1b2d5", 1, 2, 5), ("worst-k2b2d6", 2, 2, 6)]
    )
    def test_belief_game_size_is_in_the_predicted_window(
        self, name, k, b, d
    ):
        bg = make_belief_game(game(name))
        lo = b ** (2 * k * (d - 4))
        hi = b ** (2 * k * d + d)
        assert lo <= bg.game.num_nodes <= hi


class TestValueEquivalence:
    """The paper's equivalence end to end: the belief game, assembled,
    analyzed, built into DAGs and solved, has the source game's value."""

    @pytest.mark.parametrize(
        "name", ["fig2", "2K3", "3K3[3]", "3K3[1,2]", "3K3[1]"]
    )
    def test_values_agree_within_the_certified_gaps(self, name):
        config = SolveConfig(eps=1e-4)
        g = game(name)
        src = solve(g, config)
        blf = solve(make_belief_game(g).game, config)
        assert src.converged and blf.converged
        assert abs(src.value - blf.value) <= src.gap + blf.gap


class TestSizeClaim:
    """The TB-DAG is never larger than the sequence form of the belief
    game it represents (the README table lists some of these sizes)."""

    @pytest.mark.parametrize(
        "name",
        [
            "fig2", "fig8", "2K3", "3K3[1]", "3K3[3]", "fig9-C4",
            "fig9-C6", "fig9-C8", "worst-k1b2d5", "worst-k2b2d6",
        ],
    )
    def test_tbdag_edges_at_most_the_belief_games(self, name):
        g = game(name)
        bg = make_belief_game(g).game
        for side in (MAX, MIN):
            assert (
                build_tbdag(g, side).stats.n_edges
                <= build_tbdag(bg, side).stats.n_edges
            ), side


class TestStrategyMap:
    @pytest.mark.parametrize(
        "name", ["fig2", "fig8", "2K3", "3K3[1]", "worst-k1b2d5"]
    )
    def test_sampled_profiles_give_identical_utilities(self, name):
        g = game(name)
        bg = make_belief_game(g)
        assert_equivalent_under_sampling(g, bg, trials=20, seed=20240818)

    def test_map_separates_exactly_the_reduced_strategies(self):
        # Profiles that differ only where the player's own earlier
        # choices forbid reaching collapse to one image; in Kuhn each
        # card gives bet, check-then-fold, or check-then-call, so the
        # first player has 3^3 distinguishable plans out of 2^6 raw
        # profiles.
        g = game("2K3")
        bg = make_belief_game(g)
        isets = g.side_infosets(MAX)
        images = set()
        for combo in itertools.product(
            *(range(g.infosets[i].num_actions) for i in isets)
        ):
            rho = map_pure_strategy(bg, MAX, dict(zip(isets, combo)))
            images.add(tuple(sorted(rho.items())))
        assert len(images) == 27

    def test_map_covers_every_proxy_infoset(self):
        g = game("fig8")
        bg = make_belief_game(g)
        for side in (MAX, MIN):
            pi = {i: 0 for i in g.side_infosets(side)}
            rho = map_pure_strategy(bg, side, pi)
            assert set(rho) == set(bg.game.side_infosets(side))
            for i, a in rho.items():
                assert 0 <= a < bg.game.infosets[i].num_actions

    def test_incomplete_strategy_is_rejected(self):
        g = game("2K3")
        bg = make_belief_game(g)
        with pytest.raises(GameValidationError, match="unassigned"):
            map_pure_strategy(bg, MAX, {})

    def test_unknown_side_is_rejected(self):
        bg = make_belief_game(game("fig2"))
        with pytest.raises(GameValidationError, match="side"):
            map_pure_strategy(bg, "center", {})


class TestOutOfRangeActions:
    """A pure profile's action must index its infoset's actions."""

    @pytest.mark.parametrize("bad", [-1, "count", True])
    def test_map_rejects_it_naming_the_infoset(self, bad):
        g = game("fig2")
        bg = make_belief_game(g)
        pi = {i: 0 for i in g.side_infosets(MAX)}
        i = g.side_infosets(MAX)[-1]
        n = g.infosets[i].num_actions
        pi[i] = n if bad == "count" else bad
        with pytest.raises(
            GameValidationError,
            match=f"action {pi[i]!r} at infoset {i}, which has {n} actions",
        ):
            map_pure_strategy(bg, MAX, pi)

    @pytest.mark.parametrize("bad", [-1, "count", True, 1.5, "missing"])
    def test_value_rejects_it_where_it_is_played(self, bad):
        g = game("fig2")
        choice = {i: 0 for i in range(len(g.infosets))}
        # Preorder reaches the first player node through chance alone.
        h = g.kind.index(PLAYER)
        i = g.infoset[h]
        n = g.infosets[i].num_actions
        if bad == "missing":
            del choice[i]
            message = f"strategy has no action at infoset {i}"
        else:
            choice[i] = n if bad == "count" else bad
            message = (
                f"strategy plays action {choice[i]!r} at infoset {i}, "
                f"which has {n} actions"
            )
        with pytest.raises(GameValidationError) as exc:
            pure_strategy_value(g, choice)
        assert str(exc.value) == message

    def test_value_ignores_entries_it_never_plays(self):
        g = game("fig2")
        choice = {i: 0 for i in range(len(g.infosets))}
        want = pure_strategy_value(g, choice)
        choice[len(g.infosets)] = -1
        assert pure_strategy_value(g, choice) == want


class TestProxyInfosetTables:
    """The strategy-map tables, read back from the built game itself."""

    @staticmethod
    def first_own_below(game_, n, player):
        """Infosets of the first nodes of ``player`` in the subtree of
        ``n``, ``n`` included."""
        out, stack = set(), [n]
        while stack:
            m = stack.pop()
            if game_.player[m] == player:
                out.add(game_.infoset[m])
            else:
                stack.extend(game_.children(m))
        return out

    @pytest.mark.parametrize(
        "name",
        ["fig2", "fig9-C8", "2K3", "3K3[1]", "worst-k1b2d5",
         "3K3[3]", "fig8", "worst-k2b2d6"],
    )
    def test_tables_match_the_game(self, name):
        g = game(name)
        bg = make_belief_game(g)
        b = bg.game
        for i, side in enumerate((MAX, MIN)):
            player = i + 1
            assert bg.root_iset[side] == b.infoset[b.player.index(player)]
            for I in b.side_infosets(side):
                members = b.infosets[I].members
                for n in members:
                    belief = bg.annotations[n][1 + i]
                    assert bg.iset_beliefs[I] == belief
                    assert bg.iset_infosets[I] == tuple(sorted({
                        g.infoset[h] for h in belief
                        if g.kind[h] == PLAYER and g.team_of[g.player[h]] == side
                    }))
                for a in range(b.infosets[I].num_actions):
                    below = set()
                    for n in members:
                        below |= self.first_own_below(
                            b, b.children(n)[a], player
                        )
                    assert below == set(bg.successors.get((I, a), ()))
        slots = ("max-prescribes", "min-prescribes", "chance-resolves")
        assert bg.roles == tuple(slots[d % 3] for d in b.depth)


class TestColumns:
    def test_annotations_are_read_off_the_columns_once(self):
        bg = make_belief_game(game("fig2"))
        ann = bg.annotations
        assert bg.annotations is ann
        assert len(ann) == len(bg.node_state) == bg.game.num_nodes
        for n, (h, b_max, b_min) in enumerate(ann):
            assert h == bg.node_state[n]
            assert b_max == bg.beliefs[0][bg.node_beliefs[0][n]]
            assert b_min == bg.beliefs[1][bg.node_beliefs[1][n]]

    @pytest.mark.parametrize("compact", [False, True])
    def test_recall_check_leaves_no_own_infoset_columns(self, compact):
        bg = make_belief_game(game("fig2"), compact=compact)
        assert bg.game._own_infoset == {}
        # A later reader still builds and caches its column on demand.
        assert len(bg.game.own_infoset(MAX)) == bg.game.num_nodes
        assert set(bg.game._own_infoset) == {MAX}

    def test_mapped_strategies_do_not_share_state(self):
        g = game("fig2")
        bg = make_belief_game(g)
        pi = {i: 0 for i in g.side_infosets(MAX)}
        first = map_pure_strategy(bg, MAX, pi)
        first[next(iter(first))] = 99
        assert map_pure_strategy(bg, MAX, pi) != first


class TestGuards:
    def test_node_budget_is_a_hard_error(self):
        with pytest.raises(BudgetExceededError, match="budget"):
            make_belief_game(game("worst-k2b2d6"), node_budget=1000)

    def test_budget_error_says_where_it_stopped(self):
        # Emission order is preorder, so the full game shows where the
        # 1001st node sits and how many proxy infosets were met by then.
        g = game("worst-k2b2d6")
        bg = make_belief_game(g)
        b = bg.game
        depth = g.depth[bg.annotations[1000][0]]
        isets = len({b.infoset[n] for n in range(1001) if b.kind[n] == PLAYER})
        with pytest.raises(BudgetExceededError) as exc:
            make_belief_game(g, node_budget=1000)
        assert str(exc.value) == (
            f"belief game exceeds node budget 1000 (emitting a node of "
            f"source depth {depth}; {isets} proxy infosets so far)"
        )


class TestSerialization:
    def test_document_round_trips_and_carries_annotations(self):
        bg = make_belief_game(game("fig2"))
        doc = belief_game_to_doc(bg)
        assert parse_game(doc) == bg.game
        assert len(doc["annotations"]) == bg.game.num_nodes
        for n, rec in enumerate(doc["annotations"]):
            h, b_max, b_min = bg.annotations[n]
            assert rec["state"] == h
            assert tuple(rec["belief_max"]) == b_max
            assert tuple(rec["belief_min"]) == b_min
            assert rec["role"] == bg.roles[n]
        json.dumps(doc)  # plain-JSON payload, no stray types
