"""Belief-DAG construction for one side of a team game.

Decision points are beliefs (sets of plausible nodes at one depth);
each action is a prescription assigning one move to every information
set that meets the belief, and leads to an observation point whose
candidate set — prescribed children of own nodes, all children of
everyone else's — is split back into beliefs.  Beliefs are memoized, so
shared futures are built once; observation points are never shared.

That step is :func:`expand_belief`, the one expansion kernel: the DAG
builder and :func:`count_tbdag` call it.  The explicit belief game of
:mod:`tbdag.belief` expands nothing itself; it reads every belief's
prescriptions and next beliefs off the raw observation-split DAGs.

Two split policies are supported: ``"observation"`` uses connected
components of the indistinguishability graph (the finest sound split),
``"public"`` groups candidates by public state (coarser, and
exponentially larger on some games).

Reduction (``reduce=True``) removes redundancy without changing the
strategy polytope.  While expanding, terminals sharing the side's
action history keep a single representative (their realization weights
are always equal); afterwards, sections left with no terminal below are
dropped, and pass-through decision points with one parent and one
action are spliced out.  On a perfect-recall side this collapses the
DAG to the classic sequence form.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    GameAnalysis,
    analyze,
    split_observation,
    split_public,
)
from .dag import DagDecisionProblem, csr_of, freeze_csr
from .game import (
    BudgetExceededError,
    ExtensiveFormGame,
    GameValidationError,
    TERMINAL,
    check_budget,
)

SPLITS = ("observation", "public")

# A belief meeting more infosets than this aborts the build before its
# prescriptions are enumerated.
_FANOUT_GUARD = 24


@dataclass(frozen=True)
class BuildStats:
    """Size accounting for one built belief DAG.

    ``n_obs`` and ``n_edges`` exclude the artificial root observation
    point and its edge, so they match hand counts on the drawn DAG.
    ``phase_ms`` holds the milliseconds spent in ``expand`` (terminal
    merging included), ``prune``, ``splice`` and ``pack`` (zero for the
    phases an unreduced build skips); it takes no part in comparisons.
    """

    side: str
    split: str
    reduced: bool
    n_dec: int
    n_obs: int
    n_edges: int
    max_belief: int
    max_fanout: int
    max_fanout_belief: tuple[int, ...]
    dedup_hits: int
    prescription_bound: int
    phase_ms: dict[str, float] = field(compare=False)


@dataclass(frozen=True)
class TbDag:
    """A packed belief DAG plus the maps tying it back to the game.

    ``beliefs[d]`` is the sorted node tuple of decision point ``d``;
    ``dec_infosets[d]`` the infosets meeting it in ascending id order;
    ``prescriptions[a]`` the action index chosen at each of those
    infosets for action slot ``a``.  Payload slots stand for groups of
    terminals with equal side action history: ``slot_groups[s]`` lists
    the group's members and ``slot_of_terminal[z]`` inverts it.
    """

    game: ExtensiveFormGame
    side: str
    split: str
    reduced: bool
    problem: DagDecisionProblem
    beliefs: tuple[tuple[int, ...], ...]
    dec_infosets: tuple[tuple[int, ...], ...]
    prescriptions: tuple[tuple[int, ...], ...]
    slot_groups: tuple[tuple[int, ...], ...]
    slot_of_terminal: dict[int, int]
    stats: BuildStats


def _split_fn(split: str):
    if split == "observation":
        return split_observation
    if split == "public":
        return split_public
    raise GameValidationError(
        f"unknown split {split!r}; expected one of {SPLITS}"
    )


def _checked_analysis(g, side, analysis):
    """``analysis`` if it is of ``g`` for ``side``, a fresh one if None.

    The game is compared by identity first: callers nearly always pass
    the analysed game itself, and ``==`` walks every column.
    """
    if analysis is None:
        return analyze(g, side)
    if analysis.side != side:
        raise GameValidationError(
            f"analysis is for side {analysis.side!r}, not {side!r}"
        )
    if analysis.game is not g and analysis.game != g:
        raise GameValidationError("analysis is for a different game")
    return analysis


class _Workspace:
    """Mutable belief-DAG under construction (payload lists hold slots).

    The observation points of one decision point are numbered
    consecutively, in prescription order, when it is expanded.
    ``edges`` counts the raw edges expanded so far, for the budget.

    Terminals are grouped by ``slot_key`` (the coordinator sequence id
    when reducing, the node id otherwise): ``groups[s]`` lists the
    members of slot ``s`` in the order they were first reached.
    """

    def __init__(self, slot_key):
        self.dec_belief: list[tuple[int, ...]] = []
        self.dec_isets: list[tuple[int, ...]] = []
        self.dec_actions: list[list[int]] = []
        self.dec_prescr: list[list[tuple[int, ...]]] = []
        self.dec_parents: list[list[int]] = []
        self.dec_alive: list[bool] = []
        self.obs_parent: list[int] = []
        self.obs_children: list[list[int]] = []
        self.obs_payload: list[list[int]] = []
        self.dedup_hits = 0
        self.edges = 0
        self.slot_key = slot_key
        self.groups: list[list[int]] = []
        self.slot_by_key: dict[int, int] = {}
        self.slot_of_rep: dict[int, int] = {}

    def new_dec(self, belief, isets):
        self.dec_belief.append(belief)
        self.dec_isets.append(isets)
        self.dec_actions.append([])
        self.dec_prescr.append([])
        self.dec_parents.append([])
        self.dec_alive.append(True)
        return len(self.dec_belief) - 1

    def first_reach(self, z):
        """Place terminal ``z`` in its group the first time the build
        reaches it; return its slot if it represents the group.

        All terminals with one coordinator action history have equal
        realization weight under every coordinator strategy, so the
        first one reached stands for the group and every payload
        occurrence of it is emitted; the others join the group and are
        never emitted, which may leave whole sections without payoff
        entries for :func:`_prune_dead`.  Keyed by node id, every
        terminal is its own group: the unreduced build's slots.
        """
        key = self.slot_key[z]
        s = self.slot_by_key.get(key)
        if s is None:
            s = self.slot_by_key[key] = self.slot_of_rep[z] = len(self.groups)
            self.groups.append([z])
            return s
        self.groups[s].append(z)
        return None


@dataclass(frozen=True)
class BeliefExpansion:
    """One belief's expansion step for one side.

    ``isets`` are the side's infosets meeting the belief, ascending, and
    ``counts`` their action counts; ``moves[j][a]`` holds the children
    that action ``a`` at ``isets[j]`` leads to inside the belief, and
    ``free`` the children of every node the side does not own.
    """

    isets: tuple[int, ...]
    counts: tuple[int, ...]
    moves: tuple[tuple[tuple[int, ...], ...], ...]
    free: tuple[int, ...]

    @property
    def n_prescr(self) -> int:
        return math.prod(self.counts)

    def prescriptions(self):
        """Every prescription, as action indices aligned with ``isets``."""
        return itertools.product(*(range(c) for c in self.counts))

    def candidates(self, prescr) -> list[int]:
        """Prescribed children of own nodes plus all free children."""
        cand = list(self.free)
        for kids, a in zip(self.moves, prescr):
            cand.extend(kids[a])
        return cand


def expand_belief(
    g: ExtensiveFormGame, side: str, belief: tuple[int, ...]
) -> BeliefExpansion:
    """Partition a belief into the side's infosets and free nodes."""
    by_iset: dict[int, list[int]] = {}
    free: list[int] = []
    for h in belief:
        if g.node_side(h) == side:
            by_iset.setdefault(g.infoset[h], []).append(h)
        else:
            free.extend(g.children[h])
    isets = tuple(sorted(by_iset))
    # Members of one infoset share its action count, so zipping their
    # child lists gives one tuple of children per action.
    moves = tuple(
        [tuple(zip(*[g.children[h] for h in by_iset[i]])) for i in isets]
    )
    counts = tuple(map(len, moves))
    return BeliefExpansion(isets, counts, moves, tuple(free))


def _where(g, belief, n_prescr, edges):
    return (
        f"while expanding a belief of {len(belief)} nodes at depth "
        f"{g.depth[belief[0]]} with {n_prescr} prescriptions "
        f"({edges} edges built so far)"
    )


def _expand(ws, g, analysis, split_parts, d, budget, memo, queue):
    belief = ws.dec_belief[d]
    step = expand_belief(g, analysis.side, belief)
    ws.dec_isets[d] = step.isets
    n_prescr = step.n_prescr
    edges = ws.edges
    if len(step.isets) > _FANOUT_GUARD:
        raise BudgetExceededError(
            f"fan-out guard {_FANOUT_GUARD} exceeded by {len(step.isets)} "
            "infosets " + _where(g, belief, n_prescr, edges)
        )
    if edges + n_prescr > budget:
        raise BudgetExceededError(
            f"edge budget {budget} exceeded "
            + _where(g, belief, n_prescr, edges)
        )
    # Every prescription gets one observation point, numbered on from
    # the last one.
    prescrs = list(step.prescriptions())
    o = len(ws.obs_parent)
    ws.dec_prescr[d] = prescrs
    ws.dec_actions[d] = list(range(o, o + n_prescr))
    ws.obs_parent += [d] * n_prescr
    obs_children, obs_payload = ws.obs_children, ws.obs_payload
    dec_parents, new_dec, kind = ws.dec_parents, ws.new_dec, g.kind
    candidates = step.candidates
    first_reach, slot_of_rep = ws.first_reach, ws.slot_of_rep
    dedup_hits = 0
    for prescr in prescrs:
        kids: list[int] = []
        pay: list[int] = []
        parts = split_parts(analysis, candidates(prescr))
        edges += 1 + len(parts)
        for part in parts:
            # The memo maps a terminal's singleton part to the
            # complement of its id, so the terminal test runs once; only
            # a group's representative is emitted, as its slot.
            child = memo.get(part)
            if child is None:
                if len(part) == 1 and kind[part[0]] == TERMINAL:
                    memo[part] = ~part[0]
                    s = first_reach(part[0])
                    if s is not None:
                        pay.append(s)
                    continue
                child = memo[part] = new_dec(part, ())
                queue.append(child)
            elif child < 0:
                s = slot_of_rep.get(~child)
                if s is not None:
                    pay.append(s)
                continue
            else:
                dedup_hits += 1
            kids.append(child)
            dec_parents[child].append(o)
        obs_children.append(kids)
        obs_payload.append(pay)
        o += 1
        if edges > budget:
            raise BudgetExceededError(
                f"edge budget {budget} exceeded "
                + _where(g, belief, n_prescr, edges)
            )
    ws.edges = edges
    ws.dedup_hits += dedup_hits


def _prune_dead(ws):
    """Drop observation points with nothing below, cascading upward.

    A worklist of empty observation points drives the cascade; the
    surviving actions and children keep their order, so the result is
    the fixpoint of removing empty points one at a time.
    """
    obs_children, obs_payload = ws.obs_children, ws.obs_payload
    obs_parent = ws.obs_parent
    obs_alive = [True] * len(obs_parent)
    dec_actions, dec_alive, dec_parents = (
        ws.dec_actions, ws.dec_alive, ws.dec_parents
    )
    n_kids = list(map(len, obs_children))
    n_acts = list(map(len, dec_actions))
    work = [
        o for o in range(len(obs_parent))
        if not n_kids[o] and not obs_payload[o]
    ]
    thinned_dec: set[int] = set()  # lost an action
    thinned_obs: set[int] = set()  # lost a child
    while work:
        o = work.pop()
        obs_alive[o] = False
        d = obs_parent[o]
        thinned_dec.add(d)
        n_acts[d] -= 1
        if n_acts[d]:
            continue
        dec_alive[d] = False
        for po in dec_parents[d]:
            thinned_obs.add(po)
            n_kids[po] -= 1
            if not n_kids[po] and not obs_payload[po]:
                work.append(po)
    for d in thinned_dec:
        if dec_alive[d]:
            acts, prescr = dec_actions[d], ws.dec_prescr[d]
            keep = [i for i, o in enumerate(acts) if obs_alive[o]]
            dec_actions[d] = [acts[i] for i in keep]
            ws.dec_prescr[d] = [prescr[i] for i in keep]
    for o in thinned_obs:
        if obs_alive[o]:
            obs_children[o] = [c for c in obs_children[o] if dec_alive[c]]


def _splice_passthrough(ws, root_dec):
    """Remove non-root decision points with one parent and one action,
    attaching the grandchildren straight to the parent observation."""
    for d in range(len(ws.dec_belief)):
        if not ws.dec_alive[d] or d == root_dec:
            continue
        if len(ws.dec_parents[d]) != 1 or len(ws.dec_actions[d]) != 1:
            continue
        po = ws.dec_parents[d][0]
        o = ws.dec_actions[d][0]
        ws.dec_alive[d] = False
        ws.obs_children[po].remove(d)
        for child in ws.obs_children[o]:
            ws.obs_children[po].append(child)
            ws.dec_parents[child] = [
                po if x == o else x for x in ws.dec_parents[child]
            ]
        ws.obs_payload[po].extend(ws.obs_payload[o])


def build_tbdag(
    g: ExtensiveFormGame,
    side: str,
    *,
    split: str = "observation",
    reduce: bool = True,
    analysis: GameAnalysis | None = None,
    edge_budget: int = 10**8,
) -> TbDag:
    """Construct one side's belief DAG directly from the game tree."""
    check_budget("edge budget", edge_budget)
    split_parts = _split_fn(split)
    analysis = _checked_analysis(g, side, analysis)
    if g.kind[g.root] == TERMINAL:
        raise GameValidationError("the game is a single terminal node")
    if reduce and analysis.view is None:
        raise GameValidationError(f"side {side!r} has no players")

    phase_ms = dict.fromkeys(("expand", "prune", "splice", "pack"), 0.0)
    clock = time.perf_counter()

    def lap(phase):
        nonlocal clock
        now = time.perf_counter()
        phase_ms[phase] = (now - clock) * 1e3
        clock = now

    ws = _Workspace(analysis.view.seq_of if reduce else range(g.num_nodes))
    memo: dict[tuple[int, ...], int] = {}
    root_belief = (g.root,)
    root_dec = memo[root_belief] = ws.new_dec(root_belief, ())
    queue = [root_dec]
    while queue:
        _expand(
            ws, g, analysis, split_parts, queue.pop(),
            edge_budget, memo, queue,
        )
    lap("expand")
    if reduce:
        _prune_dead(ws)
        lap("prune")
        _splice_passthrough(ws, root_dec)
        lap("splice")
    # The stats hold ``phase_ms`` itself, so the pack time lands there.
    dag = _pack(g, side, split, reduce, analysis, ws, root_dec, phase_ms)
    lap("pack")
    return dag


def _pack(g, side, split, reduce, analysis, ws, root_dec, phase_ms):
    # Live decision points keep their relative order and list their
    # actions as numbered from 1 on, after the artificial root.  The
    # workspace's own child and payload lists are laid out in that
    # order, once, with children renumbered if any point was dropped.
    alive, dec_actions = ws.dec_alive, ws.dec_actions
    keep = [d for d in range(len(alive)) if alive[d]]
    obs = list(
        itertools.chain.from_iterable(map(dec_actions.__getitem__, keep))
    )
    aoff = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum([len(dec_actions[d]) for d in keep], out=aoff[1:])
    kids, coff = csr_of([[root_dec], *map(ws.obs_children.__getitem__, obs)])
    if len(keep) < len(alive):
        dec_id = np.full(len(alive), -1, dtype=np.int64)
        dec_id[keep] = np.arange(len(keep))
        kids = dec_id[kids]
    problem = freeze_csr(
        side,
        len(ws.groups),
        (np.arange(1, len(obs) + 1), aoff),
        (kids, coff),
        csr_of([[], *map(ws.obs_payload.__getitem__, obs)]),
    )

    order = [keep[d] for d in problem.dec_old.tolist()]
    beliefs = tuple(map(ws.dec_belief.__getitem__, order))
    dec_isets = tuple(map(ws.dec_isets.__getitem__, order))
    prescriptions = tuple(
        itertools.chain.from_iterable(map(ws.dec_prescr.__getitem__, order))
    )
    slot_groups = tuple(tuple(sorted(grp)) for grp in ws.groups)
    slot_of = {
        z: s for s, grp in enumerate(slot_groups) for z in grp
    }

    n_obs = problem.n_obs - 1
    n_edges = (
        problem.n_act
        + (len(problem.obs_children) - 1)
        + len(problem.payload)
    )
    side_b = max(
        (g.infosets[i].num_actions for i in g.side_infosets(side)),
        default=0,
    )
    counts = problem.action_counts()
    max_d = int(counts.argmax())
    stats = BuildStats(
        side=side,
        split=split,
        reduced=reduce,
        n_dec=problem.n_dec,
        n_obs=n_obs,
        n_edges=n_edges,
        max_belief=max(map(len, beliefs)),
        max_fanout=int(counts[max_d]),
        max_fanout_belief=beliefs[max_d],
        dedup_hits=ws.dedup_hits,
        prescription_bound=(side_b + 1) ** analysis.k,
        phase_ms=phase_ms,
    )
    return TbDag(
        game=g,
        side=side,
        split=split,
        reduced=reduce,
        problem=problem,
        beliefs=beliefs,
        dec_infosets=dec_isets,
        prescriptions=prescriptions,
        slot_groups=slot_groups,
        slot_of_terminal=slot_of,
        stats=stats,
    )


# ---------------------------------------------------------------------
# Size bounds and split comparison
# ---------------------------------------------------------------------


def check_size_bounds(dag: TbDag, analysis: GameAnalysis | None = None):
    """Verify the edge count against |H|(b+1)^(k+1); raise if violated.

    Returns a report dict with the slack.  For binary-branching games
    the per-node edge ratio is also reported against 3^(k+1).
    """
    g = dag.game
    analysis = _checked_analysis(g, dag.side, analysis)
    b = g.branching_factor
    k = analysis.k
    bound = g.num_nodes * (b + 1) ** (k + 1)
    report = {
        "side": dag.side,
        "edges": dag.stats.n_edges,
        "bound": bound,
        "slack": bound / max(dag.stats.n_edges, 1),
        "k": k,
        "branching": b,
    }
    if b <= 2:
        report["binary_ratio"] = dag.stats.n_edges / g.num_nodes
        report["binary_cap"] = 3 ** (k + 1)
    if dag.stats.n_edges > bound:
        raise GameValidationError(
            f"edge bound violated for side {dag.side}: "
            f"{dag.stats.n_edges} > {bound}"
        )
    return report


def count_tbdag(
    g: ExtensiveFormGame,
    side: str,
    *,
    split: str = "public",
    analysis: GameAnalysis | None = None,
    edge_budget: int = 10**8,
) -> tuple[int, int, int]:
    """Count (decision points, observation points, edges) of the raw
    DAG without materializing it.

    Under the public split, candidate sets factor over next-depth
    public groups, so per-belief totals have closed forms: observation
    points count as the prescription product, and edges into one group
    count prescriptions touching it by inclusion-exclusion.  Distinct
    child beliefs come from unions of per-infoset child sets, never
    from enumerating whole prescriptions.  The observation split does
    not factor this way (components depend on the entire candidate
    set), so that path simply defers to :func:`build_tbdag`.

    Two memos, both local to one call, keep the count from redoing
    work.  An infoset's table (per public state: its miss count and its
    distinct per-action child sets) is built once per move tuple, since
    it is a function of those moves alone.  Child-belief discovery is
    keyed on one public state's free members and the option sets of the
    infosets with children there; the child beliefs are a function of
    that key, and its first discovery already marked all of them seen,
    so a repeated key would enqueue nothing and is skipped.  Totals
    never depend on discovery, and the queue receives the same beliefs
    in the same order.
    """
    check_budget("edge budget", edge_budget)
    analysis = _checked_analysis(g, side, analysis)
    if split != "public":
        dag = build_tbdag(
            g, side, split=split, reduce=False,
            analysis=analysis, edge_budget=edge_budget,
        )
        return dag.stats.n_dec, dag.stats.n_obs, dag.stats.n_edges

    public_id = analysis.unconditional_id
    n_dec = n_obs = edges = 0
    seen = {(g.root,)}
    queue = [(g.root,)]
    tables: dict[tuple, dict[int, tuple]] = {}
    discovered: set[tuple] = set()
    while queue:
        belief = queue.pop()
        n_dec += 1
        step = expand_belief(g, side, belief)
        counts = step.counts
        n_prescr = step.n_prescr
        n_obs += n_prescr
        edges += n_prescr
        # Bucket every free child by its public state.
        free_members: dict[int, list[int]] = {}
        for c in step.free:
            free_members.setdefault(public_id[c], []).append(c)
        # Per public state: the action-count and miss products of the
        # infosets with children there, and their option sets in
        # infoset order.
        touching: dict[int, list] = {}
        for c, moves in zip(counts, step.moves):
            table = tables.get(moves)
            if table is None:
                table = tables[moves] = _iset_table(public_id, moves)
            for pid, (miss, options) in table.items():
                acc = touching.get(pid)
                if acc is None:
                    touching[pid] = [c, miss, [options]]
                else:
                    acc[0] *= c
                    acc[1] *= miss
                    acc[2].append(options)
        for pid in sorted(touching.keys() | free_members.keys()):
            free = free_members.get(pid, ())
            c, miss, options = touching.get(pid, (1, 1, ()))
            # A prescription misses this public state exactly when it
            # has no free child there and every infoset picks an action
            # with no child in it; ``n_prescr // c`` counts the choices
            # of the infosets with no children there at all.
            touched = n_prescr if free else n_prescr - n_prescr // c * miss
            edges += touched
            if edges > edge_budget:
                raise BudgetExceededError(
                    f"edge budget {edge_budget} exceeded while counting"
                )
            key = (frozenset(free), tuple(options))
            if key not in discovered:
                discovered.add(key)
                _discover(g, key, seen, queue)
    return n_dec, n_obs, edges


def _iset_table(public_id, moves):
    """One infoset's children per public state: for each state it
    touches, the number of actions with no child there and the
    distinct per-action child sets, in first-seen action order."""
    by_pid: dict[int, list[set[int]]] = {}
    for a, children in enumerate(moves):
        for ch in children:
            sets = by_pid.get(public_id[ch])
            if sets is None:
                sets = by_pid[public_id[ch]] = [set() for _ in moves]
            sets[a].add(ch)
    table = {}
    for pid, sets in by_pid.items():
        distinct = tuple(dict.fromkeys(map(frozenset, sets)))
        miss = sum(1 for s in sets if not s)
        table[pid] = (miss, distinct)
    return table


def _discover(g, key, seen, queue):
    """Enqueue every distinct child belief inside one public state."""
    base, options = key
    combo_count = math.prod(len(o) for o in options)
    if combo_count > 1_000_000:
        raise BudgetExceededError(
            f"child-belief discovery needs {combo_count} combinations"
        )
    for combo in itertools.product(*options):
        part = base.union(*combo) if combo else base
        if not part:
            continue
        members = tuple(sorted(part))
        if len(members) == 1 and g.kind[members[0]] == TERMINAL:
            continue
        if members not in seen:
            seen.add(members)
            queue.append(members)


def compare_splits(
    g: ExtensiveFormGame,
    side: str,
    *,
    analysis: GameAnalysis | None = None,
    edge_budget: int = 10**8,
) -> tuple[int, int]:
    """Raw edge counts of the observation- and public-split DAGs."""
    analysis = _checked_analysis(g, side, analysis)
    obs = build_tbdag(
        g, side, split="observation", reduce=False,
        analysis=analysis, edge_budget=edge_budget,
    ).stats.n_edges
    _, _, pub = count_tbdag(
        g, side, split="public",
        analysis=analysis, edge_budget=edge_budget,
    )
    return obs, pub


# ---------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------


def dag_signature(dag: TbDag) -> str:
    """Content hash invariant under decision/observation renumbering.

    Keyed on belief node sets and terminal groups, so two builds over
    the same node ids (for instance before and after inflation) hash
    equal exactly when they are the same DAG up to reordering.
    """
    p = dag.problem
    aoff, child_obs = p.dec_aoff.tolist(), p.act_child_obs.tolist()
    coff, kids_of = p.obs_coff.tolist(), p.obs_children.tolist()
    poff, payload = p.obs_poff.tolist(), p.payload.tolist()
    beliefs, groups = dag.beliefs, dag.slot_groups
    obs_records = [
        (
            tuple(sorted(map(beliefs.__getitem__, kids_of[c0:c1]))),
            tuple(sorted(map(groups.__getitem__, payload[p0:p1]))),
        )
        for c0, c1, p0, p1 in zip(coff, coff[1:], poff, poff[1:])
    ]
    records = sorted(
        (
            beliefs[d],
            tuple(sorted(map(
                obs_records.__getitem__, child_obs[aoff[d]: aoff[d + 1]]
            ))),
        )
        for d in range(p.n_dec)
    )
    blob = json.dumps(records, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def tbdag_to_doc(dag: TbDag) -> dict:
    """Plain-data serialization (stable across runs) for dumps."""
    p = dag.problem
    return {
        "side": dag.side,
        "split": dag.split,
        "reduced": dag.reduced,
        "n_dec": p.n_dec,
        "n_obs": p.n_obs,
        "dec_aoff": p.dec_aoff.tolist(),
        "act_child_obs": p.act_child_obs.tolist(),
        "obs_coff": p.obs_coff.tolist(),
        "obs_children": p.obs_children.tolist(),
        "obs_poff": p.obs_poff.tolist(),
        "payload": p.payload.tolist(),
        "beliefs": [list(bl) for bl in dag.beliefs],
        "dec_infosets": [list(t) for t in dag.dec_infosets],
        "prescriptions": [list(t) for t in dag.prescriptions],
        "slot_groups": [list(t) for t in dag.slot_groups],
        "stats": {
            "n_edges": dag.stats.n_edges,
            "max_belief": dag.stats.max_belief,
            "max_fanout": dag.stats.max_fanout,
            "dedup_hits": dag.stats.dedup_hits,
            "prescription_bound": dag.stats.prescription_bound,
        },
    }
