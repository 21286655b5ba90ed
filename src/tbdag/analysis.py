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
  path that no later traversed infoset provably recalls;
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

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .game import TERMINAL, ExtensiveFormGame, GameValidationError

SeqPair = tuple[int, int]  # (infoset id, action index)


@dataclass(frozen=True)
class CoordinatorView:
    """One side's merged agent: owned infosets and per-node sequences."""

    side: str
    infosets: tuple[int, ...]
    seq_of: tuple[int, ...]  # node id -> sequence id
    sequences: tuple[tuple[SeqPair, ...], ...]  # sequence id -> pair list

    @property
    def num_sequences(self) -> int:
        return len(self.sequences)


def coordinator_view(g: ExtensiveFormGame, side: str) -> CoordinatorView:
    """Merge all of one team's players into a single acting agent.

    The returned per-node sequence is the ordered list of
    ``(infoset, action)`` pairs of the side's players strictly above the
    node; the root carries the empty sequence (id 0).  Sequences are
    interned, so equality of ids is equality of full sequences.
    """
    if not g.side_players(side):
        raise GameValidationError(f"side {side!r} has no players")
    intern: dict[tuple[SeqPair, ...], int] = {(): 0}
    sequences: list[tuple[SeqPair, ...]] = [()]
    seq_of = [0] * g.num_nodes
    for h in range(g.num_nodes):  # preorder: parents first
        p = g.parent[h]
        if p < 0:
            continue
        if g.node_side(p) == side:
            seq = sequences[seq_of[p]] + (
                (g.infoset[p], g.parent_action[h]),
            )
            sid = intern.get(seq)
            if sid is None:
                sid = intern[seq] = len(sequences)
                sequences.append(seq)
            seq_of[h] = sid
        else:
            seq_of[h] = seq_of[p]
    return CoordinatorView(
        side=side,
        infosets=g.side_infosets(side),
        seq_of=tuple(seq_of),
        sequences=tuple(sequences),
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
    """Indistinguishability structure of one side over a fixed game."""

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


def _recall(
    g: ExtensiveFormGame, side: str
) -> tuple[list[frozenset[int]], bool, bool]:
    """remembers, perfect recall and action recall of one side, read
    from the interned coordinator sequences of each infoset's members.

    remembers[J] holds the side infosets every member of J passed with
    one known action.  A sequence fixes the side's own-action label
    trace, since an infoset sits at one depth and shares its labels.
    """
    remembers: list[frozenset[int]] = [frozenset()] * len(g.infosets)
    if not g.side_players(side):
        return remembers, True, True
    view = coordinator_view(g, side)
    action_recall = True
    for j in view.infosets:
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
    return remembers, imperfect_recall_at(g, view) is None, action_recall


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self):
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        parent = self.parent
        root = parent.setdefault(x, x)
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


def analyze(g: ExtensiveFormGame, side: str) -> GameAnalysis:
    """Build the full indistinguishability analysis for one side."""
    n = g.num_nodes

    # Clique table: for each side infoset and each ancestor depth, the
    # set of that-depth ancestors of the infoset's members.  Singleton
    # sets contribute no connectivity and are dropped; identical sets
    # are stored once.
    clique_ids: dict[tuple[int, ...], int] = {}
    cliques: list[tuple[int, ...]] = []
    node_cliques: list[list[int]] = [[] for _ in range(n)]
    for i in g.side_infosets(side):
        level = list(dict.fromkeys(g.infosets[i].members))
        while level:
            if len(level) > 1:
                key = tuple(sorted(level))
                cid = clique_ids.get(key)
                if cid is None:
                    cid = clique_ids[key] = len(cliques)
                    cliques.append(key)
                    for h in key:
                        node_cliques[h].append(cid)
            if g.parent[level[0]] < 0:
                break
            level = list(
                dict.fromkeys(g.parent[h] for h in level)
            )

    # Public states: connected components over all nodes.
    uf = _UnionFind()
    for members in cliques:
        first = members[0]
        for h in members[1:]:
            uf.union(first, h)
    public_id = [-1] * n
    public_states_map: dict[int, list[int]] = {}
    for h in range(n):
        root = uf.find(h)
        if public_id[root] < 0:
            public_id[root] = len(public_states_map)
            public_states_map[public_id[root]] = []
        public_id[h] = public_id[root]
        public_states_map[public_id[h]].append(h)
    public_states = tuple(
        tuple(sorted(public_states_map[c]))
        for c in range(len(public_states_map))
    )

    # Unconditional grouping: same-depth nodes additionally stay
    # together when they share a parent, so two histories separate only
    # where chance, the opponent, or an informed observer could tell
    # them apart without conditioning on how the side itself played.
    # Terminal nodes never join a group — game over is always observed.
    uuf = _UnionFind()
    for members in cliques:
        first = members[0]
        for h in members[1:]:
            uuf.union(first, h)
    for h in range(n):
        live = [c for c in g.children[h] if g.kind[c] != TERMINAL]
        for c in live[1:]:
            uuf.union(live[0], c)
    unconditional_id = [-1] * n
    next_uid = 0
    for h in range(n):
        root = uuf.find(h)
        if unconditional_id[root] < 0:
            unconditional_id[root] = next_uid
            next_uid += 1
        unconditional_id[h] = unconditional_id[root]

    remembers, perfect_recall, action_recall = _recall(g, side)

    last_infosets = _last_infosets_walk(g, side, remembers)

    # k: largest union of last-infoset sets across one public state.
    union_per_state: dict[int, set[int]] = {}
    for h in range(n):
        union_per_state.setdefault(public_id[h], set()).update(
            last_infosets[h]
        )
    k = max((len(s) for s in union_per_state.values()), default=0)

    # kappa: most infosets fully contained in one public state (every
    # infoset lies inside a single state since its members are mutually
    # connected).
    per_state_count: dict[int, int] = {}
    for i in g.side_infosets(side):
        c = public_id[g.infosets[i].members[0]]
        per_state_count[c] = per_state_count.get(c, 0) + 1
    kappa = max(per_state_count.values(), default=0)

    return GameAnalysis(
        game=g,
        side=side,
        cliques=tuple(cliques),
        node_cliques=tuple(tuple(cs) for cs in node_cliques),
        public_id=tuple(public_id),
        public_states=public_states,
        unconditional_id=tuple(unconditional_id),
        last_infosets=tuple(last_infosets),
        remembers=tuple(remembers),
        k=k,
        kappa=kappa,
        perfect_recall=perfect_recall,
        action_recall=action_recall,
    )


def _last_infosets_walk(
    g: ExtensiveFormGame, side: str, remembers: Sequence[frozenset[int]]
) -> list[tuple[int, ...]]:
    """Preorder computation of last-infoset sets with undo on exit."""
    n = g.num_nodes
    out: list[tuple[int, ...]] = [()] * n
    traversed: set[int] = set()
    recalled: set[int] = set()
    # Stack entries: (node, undo) where undo is None on the way down
    # and (infoset | None, newly_recalled) on the way back up.
    stack: list[tuple[int, tuple | None]] = [(0, None)]
    while stack:
        h, undo = stack.pop()
        if undo is not None:
            iset, newly = undo
            if iset is not None:
                traversed.discard(iset)
            recalled -= newly
            continue
        iset = None
        newly: frozenset[int] = frozenset()
        if g.node_side(h) == side:
            iset = g.infoset[h]
            traversed.add(iset)
            newly = remembers[iset] - recalled
            recalled |= newly
        out[h] = tuple(sorted(traversed - recalled))
        stack.append((h, (iset, newly)))
        for c in reversed(g.children[h]):
            stack.append((c, None))
    return out


def _check_same_depth(
    g: ExtensiveFormGame, nodes: Iterable[int]
) -> None:
    depths = {g.depth[h] for h in nodes}
    if len(depths) > 1:
        raise ValueError(f"nodes span several depths: {sorted(depths)}")


def split_observation(
    analysis: GameAnalysis, H: Iterable[int], side: str | None = None
) -> tuple[tuple[int, ...], ...]:
    """Partition same-depth nodes H into maximal mutually-plausible
    blocks: components of the indistinguishability graph induced on H.

    Blocks are canonically sorted (by id inside a block, by smallest
    member across blocks).
    """
    if side is not None and side != analysis.side:
        raise ValueError(
            f"analysis is for side {analysis.side!r}, not {side!r}"
        )
    H = sorted(set(H))
    _check_same_depth(analysis.game, H)
    uf = _UnionFind()
    clique_rep: dict[int, int] = {}
    for h in H:
        uf.find(h)
        for cid in analysis.node_cliques[h]:
            rep = clique_rep.setdefault(cid, h)
            uf.union(rep, h)
    blocks: dict[int, list[int]] = {}
    for h in H:
        blocks.setdefault(uf.find(h), []).append(h)
    return tuple(
        tuple(blocks[r]) for r in sorted(blocks)
    )


def split_public(
    analysis: GameAnalysis, H: Iterable[int], side: str | None = None
) -> tuple[tuple[int, ...], ...]:
    """Partition same-depth nodes H by unconditionally-public grouping.

    Two nodes stay in one block when they share a parent or have
    descendants in a common infoset of the side (transitively):
    separations that exist only because of how the side itself chose to
    play are ignored, so this is never finer than
    :func:`split_observation` and can be much coarser.  Terminals are
    always singleton blocks.
    """
    if side is not None and side != analysis.side:
        raise ValueError(
            f"analysis is for side {analysis.side!r}, not {side!r}"
        )
    H = sorted(set(H))
    _check_same_depth(analysis.game, H)
    blocks: dict[int, list[int]] = {}
    for h in H:
        blocks.setdefault(analysis.unconditional_id[h], []).append(h)
    return tuple(
        tuple(v) for _, v in sorted(
            (min(v), v) for v in blocks.values()
        )
    )
