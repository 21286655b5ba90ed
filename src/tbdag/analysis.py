"""Structural analysis of team games under the coordinator merge.

For each side (``"max"`` / ``"min"``) the module builds:

- the *coordinator view*: every infoset of the side's players reassigned
  to a single agent, with per-node coordinator sequences (ordered
  ``(infoset, action)`` pair lists, interned to dense ids);
- the *indistinguishability structure*: an undirected graph over nodes
  where two same-depth nodes are connected whenever both have descendants
  (or are members) of a common infoset of the side.  The graph is stored
  as a list of cliques — one per (infoset, ancestor depth), deduplicated
  — never as explicit edges, since edge sets can be quadratic while the
  clique list is linear in total path length;
- *public states*: connected components of that graph;
- *last infosets*: for each node, the side's infosets traversed on the
  path that no later traversed infoset provably recalls, read off the
  parent's set in one preorder pass;
- the *information complexity* ``k``: the largest number of distinct
  last infosets appearing across one public state.  ``k == 1`` exactly
  when the merged coordinator effectively has perfect recall.

Belief splitting (:func:`split_observation`) partitions a same-depth
node set into the connected components of the *induced* subgraph.
:func:`split_public` instead groups by *unconditionally* public
information — nodes also stay together when they share a parent, so a
separation that exists only through the side's own choices does not
split the set.  The observation split is never coarser than the public
one on the same input.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, pairwise
from operator import itemgetter
from typing import Iterable

from .game import TERMINAL, ExtensiveFormGame, GameValidationError

SeqPair = tuple[int, int]  # (infoset id, action index)


@dataclass(frozen=True)
class CoordinatorView:
    """One side's merged agent: owned infosets and per-node sequences.

    Sequence ``s >= 1`` is sequence ``seq_keys[s - 1][0]`` extended by
    the pair ``seq_keys[s - 1][1:]``; ``sequences`` spells every one out
    on first read.
    """

    infosets: tuple[int, ...]
    seq_of: list[int]  # node id -> sequence id
    seq_keys: tuple[tuple[int, int, int], ...]  # (parent seq, infoset, action)

    @property
    def num_sequences(self) -> int:
        return len(self.seq_keys) + 1

    @cached_property
    def sequences(self) -> tuple[tuple[SeqPair, ...], ...]:
        """Sequence id -> its (infoset, action) pairs, root first."""
        out: list[tuple[SeqPair, ...]] = [()]
        for parent, i, a in self.seq_keys:
            out.append(out[parent] + ((i, a),))
        return tuple(out)


def coordinator_view(g: ExtensiveFormGame, side: str) -> CoordinatorView:
    """Merge all of one team's players into a single acting agent.

    The returned per-node sequence is the ordered list of
    ``(infoset, action)`` pairs of the side's players strictly above the
    node; the root carries the empty sequence (id 0).  Sequences are
    interned by (parent sequence id, infoset, action), so equality of
    ids is equality of full sequences.
    """
    if not g.side_players(side):
        raise GameValidationError(f"side {side!r} has no players")
    own, parent_action = g.own_infoset(side), g.parent_action
    intern: dict[tuple[int, int, int], int] = {}
    seq_of = [0] * g.num_nodes
    for h in range(1, g.num_nodes):  # preorder: parents first
        p = g.parent[h]
        if own[p] < 0:
            seq_of[h] = seq_of[p]
            continue
        key = (seq_of[p], own[p], parent_action[h])
        sid = intern.get(key)
        if sid is None:
            sid = intern[key] = len(intern) + 1
        seq_of[h] = sid
    return CoordinatorView(
        infosets=g.side_infosets(side),
        seq_of=seq_of,
        seq_keys=tuple(intern),
    )


def imperfect_recall_at(
    g: ExtensiveFormGame, view: CoordinatorView
) -> int | None:
    """First infoset of the view's side whose members carry different
    coordinator sequences, or None when the side has perfect recall.

    A timeable game puts each infoset at one depth, so an infoset occurs
    at most once on any path: equal sequences are exactly equal
    infoset -> action choices above the members.
    """
    for i in view.infosets:
        if len({view.seq_of[h] for h in g.infosets[i].members}) > 1:
            return i
    return None


@dataclass(frozen=True)
class GameAnalysis:
    """Indistinguishability structure of one side over a fixed game.

    ``view`` is the side's coordinator view, built once for the recall
    fields and the reduced DAG build (None when the side has no players);
    a working table, not a result, so it is left out of ``==`` and ``repr``.
    """

    game: ExtensiveFormGame = field(repr=False)
    side: str
    cliques: tuple[tuple[int, ...], ...]
    node_cliques: tuple[tuple[int, ...], ...]
    public_id: tuple[int, ...]
    public_states: tuple[tuple[int, ...], ...]
    unconditional_id: tuple[int, ...]
    last_infosets: tuple[tuple[int, ...], ...]
    remembers: tuple[frozenset[int], ...]
    k: int
    kappa: int
    perfect_recall: bool
    action_recall: bool
    view: CoordinatorView | None = field(compare=False, repr=False)


def _recall(
    g: ExtensiveFormGame, view: CoordinatorView | None
) -> tuple[list[frozenset[int]], bool]:
    """remembers and action recall of one side, read from the interned
    coordinator sequences of each infoset's members.

    remembers[J] holds the side infosets every member of J passed with
    one known action.  A sequence fixes the side's own-action label
    trace, since an infoset sits at one depth and shares its labels.
    """
    remembers: list[frozenset[int]] = [frozenset()] * len(g.infosets)
    action_recall = True
    for j in view.infosets if view else ():
        seqs = [
            view.sequences[s]
            for s in {view.seq_of[h] for h in g.infosets[j].members}
        ]
        common = set(seqs[0]).intersection(*seqs[1:])
        remembers[j] = frozenset(i for i, _ in common)
        if len(seqs) > 1 and action_recall:
            traces = {
                tuple(
                    (g.depth[g.infosets[i].members[0]],
                     g.infosets[i].actions[a])
                    for i, a in seq
                )
                for seq in seqs
            }
            action_recall = len(traces) == 1
    return remembers, action_recall


def _union(parent: list[int] | dict[int, int], x: int, y: int) -> None:
    """Join the trees of ``x`` and ``y`` in a union-find forest (a list,
    or a dict over a sparse node set) whose root is always the smallest
    member, halving both paths."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    while parent[y] != y:
        parent[y] = y = parent[parent[y]]
    if x > y:
        x, y = y, x
    parent[y] = x


def _label(parent: list[int]) -> list[int]:
    """Dense component labels of a union-find forest whose links all run
    from a larger node to a smaller one, numbered by smallest member."""
    label = parent[:]
    count = 0
    for h, p in enumerate(parent):
        if p == h:
            label[h] = count
            count += 1
        else:
            label[h] = label[p]
    return label


def analyze(g: ExtensiveFormGame, side: str) -> GameAnalysis:
    """Build the full indistinguishability analysis for one side."""
    n = g.num_nodes
    side_isets = g.side_infosets(side)

    # Clique table: for each side infoset and each ancestor depth, the
    # set of that-depth ancestors of the infoset's members, up to the
    # first singleton (it and every set above it add no connectivity).
    # Identical sets are stored once.
    clique_ids: dict[tuple[int, ...], int] = {}
    cliques: list[tuple[int, ...]] = []
    node_cliques: list[list[int]] = [[] for _ in range(n)]
    for i in side_isets:
        level = list(dict.fromkeys(g.infosets[i].members))
        while len(level) > 1:
            key = tuple(sorted(level))
            cid = clique_ids.get(key)
            if cid is None:
                cid = clique_ids[key] = len(cliques)
                cliques.append(key)
                for h in key:
                    node_cliques[h].append(cid)
            level = list(dict.fromkeys(g.parent[h] for h in level))

    # One union-find over node ids whose root is always the smallest
    # member, so every link runs from a larger id to a smaller one.
    # Public states are its components after the clique unions.
    parent = list(range(n))
    for first, *rest in cliques:
        for h in rest:
            _union(parent, first, h)
    public_id = _label(parent)
    public_states: list[list[int]] = []
    for h, c in enumerate(public_id):
        if c == len(public_states):
            public_states.append([])
        public_states[c].append(h)

    # Unconditional grouping: same-depth nodes additionally stay
    # together when they share a parent, so two histories separate only
    # where chance, the opponent, or an informed observer could tell
    # them apart without conditioning on how the side itself played.
    # Terminal nodes never join a group — game over is always observed.
    # The sibling unions go into the same forest as the clique unions.
    kids = g.action_child
    for a0, a1 in pairwise(g.action_offset):
        live = [c for c in kids[a0:a1] if g.kind[c] != TERMINAL]
        for c in live[1:]:
            _union(parent, live[0], c)
    unconditional_id = _label(parent)

    view = coordinator_view(g, side) if g.side_players(side) else None
    remembers, action_recall = _recall(g, view)

    # Last infosets from the parent's: a node the side does not own
    # shares its parent's tuple; an own node at infoset I gets
    # (last(parent) | {I}) - remembers[I].  remembers[I] only holds
    # infosets above I in a timeable game, so nothing is removed before
    # it is added.  Each tuple is built and sorted once per distinct
    # (parent tuple id, I) pair.
    tuples: list[tuple[int, ...]] = [()]
    step: dict[tuple[int, int], int] = {}
    last_id = [0] * n
    for h, (p, i) in enumerate(zip(g.parent, g.own_infoset(side))):
        t = last_id[p] if p >= 0 else 0
        if i >= 0:
            key = (t, i)
            t = step.get(key)
            if t is None:
                t = step[key] = len(tuples)
                tuples.append(tuple(sorted(
                    (set(tuples[key[0]]) | {i}) - remembers[i]
                )))
        last_id[h] = t

    # k: largest union of last-infoset sets across one public state.  A
    # state holding one distinct tuple contributes its length, which no
    # union in a state holding it and others falls below; only states
    # holding two or more distinct tuples take a union.
    pairs = list(set(zip(public_id, last_id)))
    states = list(map(itemgetter(0), pairs))
    lens = list(map(len, tuples))
    k = max(map(lens.__getitem__, map(itemgetter(1), pairs)), default=0)
    shared = {c for c, m in Counter(states).items() if m > 1}
    union_per_state: dict[int, set[int]] = {}
    for c, t in compress(pairs, map(shared.__contains__, states)):
        union_per_state.setdefault(c, set()).update(tuples[t])
    k = max(k, max(map(len, union_per_state.values()), default=0))

    # kappa: most infosets fully contained in one public state (every
    # infoset lies inside a single state since its members are mutually
    # connected).
    kappa = max(Counter(
        public_id[g.infosets[i].members[0]] for i in side_isets
    ).values(), default=0)

    return GameAnalysis(
        game=g,
        side=side,
        cliques=tuple(cliques),
        node_cliques=tuple(map(tuple, node_cliques)),
        public_id=tuple(public_id),
        public_states=tuple(map(tuple, public_states)),
        unconditional_id=tuple(unconditional_id),
        last_infosets=tuple(map(tuples.__getitem__, last_id)),
        remembers=tuple(remembers),
        k=k,
        kappa=kappa,
        perfect_recall=view is None or imperfect_recall_at(g, view) is None,
        action_recall=action_recall,
        view=view,
    )


def _check_same_depth(
    g: ExtensiveFormGame, nodes: Iterable[int]
) -> None:
    depths = {g.depth[h] for h in nodes}
    if len(depths) > 1:
        raise ValueError(f"nodes span several depths: {sorted(depths)}")


def split_observation(
    analysis: GameAnalysis, H: Iterable[int]
) -> tuple[tuple[int, ...], ...]:
    """Partition same-depth nodes H into maximal mutually-plausible
    blocks: components of the indistinguishability graph induced on H.

    Blocks are canonically sorted (by id inside a block, by smallest
    member across blocks).  A node in no clique is a singleton block
    at once; the rest meet in :func:`_union`'s forest, whose root is
    always the smallest member, so a block starts at its first node in
    id order.
    """
    H = sorted(set(H))
    if not H:
        return ()
    depth = analysis.game.depth
    node_cliques = analysis.node_cliques
    d0 = depth[H[0]]
    parent: dict[int, int] = {}
    first: dict[int, int] = {}  # clique id -> its first node in H
    for h in H:
        if depth[h] != d0:
            _check_same_depth(analysis.game, H)
        cids = node_cliques[h]
        if not cids:
            continue
        parent[h] = h
        for cid in cids:
            x = first.setdefault(cid, h)
            if x != h:
                _union(parent, x, h)
    blocks: list = []
    block_at: dict[int, list[int]] = {}
    for h in H:
        r = parent.get(h)
        if r is None:
            blocks.append((h,))
            continue
        while parent[r] != r:
            r = parent[r]
        if r == h:
            blocks.append(block_at.setdefault(h, [h]))
        else:
            block_at[r].append(h)
    return tuple(map(tuple, blocks))


def split_public(
    analysis: GameAnalysis, H: Iterable[int]
) -> tuple[tuple[int, ...], ...]:
    """Partition same-depth nodes H by unconditionally-public grouping.

    Two nodes stay in one block when they share a parent or have
    descendants in a common infoset of the side (transitively):
    separations that exist only because of how the side itself chose to
    play are ignored, so this is never finer than
    :func:`split_observation` and can be much coarser.  Terminals are
    always singleton blocks.
    """
    H = sorted(set(H))
    _check_same_depth(analysis.game, H)
    blocks: dict[int, list[int]] = {}
    for h in H:
        blocks.setdefault(analysis.unconditional_id[h], []).append(h)
    # H is sorted, so the blocks come out ordered by their smallest member.
    return tuple(map(tuple, blocks.values()))
