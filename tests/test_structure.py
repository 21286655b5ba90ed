"""Coordinator views, connectivity, recall measures, and splits."""

import pytest

from tbdag import (
    GameValidationError,
    MAX,
    MIN,
    analyze,
    coordinator_view,
    generate,
    imperfect_recall_at,
    list_presets,
    parse_game,
    sequence_form,
    split_observation,
    split_public,
)
from test_acceptance import SMALL_ZOO


def game(name):
    return generate(list_presets()[name])


def walk_to_root(g, side, h):
    """Reference walk: the side's infoset -> action map above h, and its
    own-action label at each depth (None where the side does not act)."""
    pairs, labels = {}, []
    while g.parent[h] >= 0:
        p, a = g.parent[h], g.parent_action[h]
        own = g.node_side(p) == side
        if own:
            pairs[g.infoset[p]] = a
        labels.append(g.labels[p][a] if own else None)
        h = p
    return pairs, tuple(labels)


class TestCoordinatorView:
    def test_fig2_sequences(self):
        g = game("fig2")
        view = coordinator_view(g, MAX)
        # Distinct (infoset, action) histories: the empty one, two per
        # sender state, and two relay extensions under each of those.
        assert view.num_sequences == 13
        assert view.seq_of[0] == 0  # chance root carries the empty seq
        z_plus = [
            z for z in g.terminals if g.utility[z] is not None
            and g.utility[z] > 0
        ]
        assert all(view.seq_of[z] != 0 for z in z_plus)

    def test_empty_side_rejected(self):
        doc = {
            "players": ["chance", "p1"],
            "teams": {"max": [1], "min": []},
            "root": 0,
            "nodes": [{"kind": "terminal", "utility": 0.0}],
        }
        import tbdag

        g = tbdag.parse_game(doc)
        with pytest.raises(GameValidationError, match="no players"):
            coordinator_view(g, MIN)

    def test_sequences_interned(self):
        g = game("2K3")
        view = coordinator_view(g, MAX)
        lengths = {len(view.sequences[s]) for s in range(view.num_sequences)}
        assert 0 in lengths
        # A single Kuhn player acts at most twice along one play.
        assert max(lengths) <= 2


class TestInformationComplexity:
    def test_fig2_k(self):
        g = game("fig2")
        assert analyze(g, MAX).k == 3
        assert analyze(g, MIN).k == 1

    def test_fig2_kappa(self):
        g = game("fig2")
        assert analyze(g, MAX).kappa == 2

    def test_perfect_recall_flags(self):
        g = game("fig2")
        assert not analyze(g, MAX).perfect_recall
        assert analyze(g, MIN).perfect_recall
        assert imperfect_recall_at(g, coordinator_view(g, MAX)) is not None
        assert imperfect_recall_at(g, coordinator_view(g, MIN)) is None
        g2 = game("2K3")
        assert analyze(g2, MAX).perfect_recall
        assert analyze(g2, MIN).perfect_recall
        assert analyze(g2, MAX).k == 1

    @pytest.mark.parametrize("name", ["fig2", "fig8", "3K3[2]", "worst-k1b2d5"])
    def test_recall_matches_walks_to_the_root(self, name):
        g = game(name)
        for side in (MAX, MIN):
            a = analyze(g, side)
            perfect = action = True
            for j in g.side_infosets(side):
                maps, traces = zip(
                    *(walk_to_root(g, side, h) for h in g.infosets[j].members)
                )
                assert a.remembers[j] == {
                    i for i, act in maps[0].items()
                    if all(m.get(i) == act for m in maps)
                }
                perfect &= all(m == maps[0] for m in maps)
                action &= len(set(traces)) == 1
            assert (a.perfect_recall, a.action_recall) == (perfect, action)

    def test_action_recall_sees_the_depth_of_each_action(self):
        # Both members of infoset "Y" follow one own action "l": at depth
        # 1 on one path and at depth 2 on the other.
        def player(iset, *kids):
            actions = [{"label": lab, "child": c} for lab, c in kids]
            return {"kind": "player", "player": 1, "infoset": iset,
                    "actions": actions}

        def chance(*kids):
            p = 1 / len(kids)
            actions = [{"label": lab, "child": c, "prob": p}
                       for lab, c in kids]
            return {"kind": "chance", "actions": actions}

        z = {"kind": "terminal", "utility": 0.0}
        g = parse_game({
            "players": ["chance", "p1"],
            "teams": {"max": [1], "min": []},
            "root": 0,
            "nodes": [
                chance(("a", 1), ("b", 2)),
                player("X", ("l", 3), ("r", 4)),
                chance(("c", 5)),
                chance(("c", 6)),
                z,
                player("Z", ("l", 7), ("r", 8)),
                player("Y", ("u", 9), ("d", 10)),
                player("Y", ("u", 11), ("d", 12)),
                z, z, z, z, z,
            ],
        })
        a = analyze(g, MAX)
        assert not a.perfect_recall
        assert not a.action_recall

    @pytest.mark.parametrize("name", SMALL_ZOO)
    def test_perfect_recall_flag_matches_sequence_form(self, name):
        g = game(name)
        for side in (MAX, MIN):
            try:
                sequence_form(g, side)
            except GameValidationError:
                builds = False
            else:
                builds = True
            assert analyze(g, side).perfect_recall == builds, side

    def test_single_player_side_always_k1(self):
        for name in ("3K3[1]", "3D2[1,2]"):
            g = game(name)
            # The side with one player recalls everything it did.
            solo = MIN if name == "3K3[1]" else MAX
            a = analyze(g, solo)
            assert a.perfect_recall
            assert a.k == 1

    def test_last_infosets_contain_own(self):
        g = game("3K3[2]")
        a = analyze(g, MAX)
        for h in range(g.num_nodes):
            if g.node_side(h) == MAX:
                assert g.infoset[h] in a.last_infosets[h]

    def test_terminals_isolated(self):
        g = game("fig2")
        a = analyze(g, MAX)
        for z in g.terminals:
            assert len(a.public_states[a.public_id[z]]) == 1


class TestSplits:
    def test_fig2_observation_split(self):
        g = game("fig2")
        a = analyze(g, MAX)
        # d, e share an infoset; f hangs off the other message.
        d, e, f = 2, 13, 7
        assert split_observation(a, [d, e, f]) == ((d, e), (f,))
        # d and f are siblings (the sender separates them only by its
        # own choice), so the public grouping keeps all three together.
        assert split_public(a, [d, e, f]) == ((d, f, e),)

    def test_fig8_observation_refines_public(self):
        g = game("fig8")
        a = analyze(g, MAX)
        left = g.children[0][0]
        ceg = list(g.children[left])
        assert split_observation(a, ceg) == tuple((h,) for h in sorted(ceg))
        assert split_public(a, ceg) == (tuple(sorted(ceg)),)

    def test_mixed_depth_rejected(self):
        g = game("fig2")
        a = analyze(g, MAX)
        with pytest.raises(ValueError):
            split_observation(a, [0, 1])

    def test_wrong_side_rejected(self):
        g = game("fig2")
        a = analyze(g, MAX)
        with pytest.raises(ValueError):
            split_observation(a, [1, 12], side=MIN)

    def test_duplicates_collapse(self):
        g = game("fig2")
        a = analyze(g, MAX)
        assert split_observation(a, [1, 1, 12]) == ((1, 12),)

    def test_blocks_partition_input(self):
        g = game("3K3[3]")
        a = analyze(g, MAX)
        depth2 = [h for h in range(g.num_nodes) if g.depth[h] == 2]
        blocks = split_observation(a, depth2)
        flat = sorted(h for b in blocks for h in b)
        assert flat == sorted(depth2)
        pub = split_public(a, depth2)
        # Public blocks are unions of observation blocks.
        obs_of = {h: i for i, b in enumerate(blocks) for h in b}
        for pb in pub:
            parts = {obs_of[h] for h in pb}
            covered = sorted(h for b in blocks for h in b if obs_of[h] in parts)
            assert sorted(pb) == covered
