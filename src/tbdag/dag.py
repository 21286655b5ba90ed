"""DAG-structured decision problems and the regret machinery on them.

A problem is a bipartite rooted DAG.  *Decision points* hold the acting
side's choices; each choice leads to exactly one *observation point*,
which fans out to the decision points that remain possible and may also
carry a payload of game terminals whose payoffs are collected there.
Observation point 0 is an artificial root feeding the root decision.

Flows move top-down (``dag_cfr_strategy``): a decision point receives
the sum of its parents' flow, multiplies by the local mixed choice, and
deposits the result on each chosen observation point, which forwards it
unchanged to every child.  Values move bottom-up (``dag_cfr_utility``):
an observation point is worth its payload plus the sum of its children,
and a decision point is worth the local average of its choices.  Both
sweeps, and ``best_response``, are vectorized over contiguous per-level
slices.  They read a sweep plan (level bounds, relative ``reduceat``
offsets and per-level index slices) built once when ``freeze_csr``
freezes the problem, so an iteration does no index arithmetic.
``freeze_csr`` is the one constructor: it takes each decision point's
action slots, with a child and payload row per slot, in any decision
point numbering, orders the DAG level by level in whole-array steps and
keeps each frozen decision point's input id as the only map back.
Observation point ``o + 1`` is action slot ``o``, so an action's flow or
value is the view ``x_obs[1:]`` or ``v_obs[1:]`` of its observation
point's and no sweep copies between the two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analysis import coordinator_view, imperfect_recall_at
from .game import BudgetExceededError, GameValidationError, check_budget

__all__ = [
    "DagDecisionProblem",
    "FlowVector",
    "LocalRegretBank",
    "TreeExpansion",
    "best_response",
    "csr_of",
    "dag_cfr_strategy",
    "dag_cfr_utility",
    "expand_to_tree",
    "freeze_csr",
    "sequence_form",
]


class SweepLevel(NamedTuple):
    """Bounds of one nonempty level: decision points ``d0:d1``, their
    action slots ``a0:a1`` and their ``dec_parent_obs`` entries
    ``s0:s1``, with the level's ``reduceat`` offsets relative to
    ``a0`` and ``s0`` and its slices of ``dec_parent_obs``, ``act_dec``
    and ``parent_dec``."""

    d0: int
    d1: int
    a0: int
    a1: int
    s0: int
    s1: int
    act_off: np.ndarray
    parent_off: np.ndarray
    parent_obs: np.ndarray
    act_dec: np.ndarray
    parent_dec: np.ndarray


def _owner_of(off: np.ndarray) -> np.ndarray:
    """Index of the CSR row that owns each entry, for row offsets ``off``."""
    return np.repeat(np.arange(len(off) - 1, dtype=np.int64), np.diff(off))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(eq=False, repr=False, slots=True)
class DagDecisionProblem:
    """Frozen numpy form of one side's decision DAG.

    Decision points are numbered level-contiguously (all parents of a
    decision point live in strictly earlier levels) and actions are flat
    slots in CSR layout.  Action slot ``o`` leads to observation point
    ``o + 1`` and to no other, so ``n_obs`` is ``n_act + 1``.  Only
    :func:`freeze_csr` makes one.

    The sweep plan is built with the problem and is read-only:
    ``levels`` lists each nonempty level top-down; ``act_dec`` is the
    decision point owning each action slot, ``parent_dec`` the one
    owning each ``dec_parent_obs`` entry, and ``payload_owner`` the
    observation point owning each payload entry.  ``dec_old`` gives each
    decision point's id in the tables :func:`freeze_csr` was given.
    """

    side: str
    n_dec: int
    n_obs: int
    n_act: int
    n_slots: int
    dec_aoff: np.ndarray
    obs_coff: np.ndarray
    obs_children: np.ndarray
    obs_poff: np.ndarray
    payload: np.ndarray
    dec_poff: np.ndarray
    dec_parent_obs: np.ndarray
    level_off: np.ndarray
    root_dec: int
    dec_old: np.ndarray
    act_dec: np.ndarray
    parent_dec: np.ndarray
    payload_owner: np.ndarray
    levels: tuple[SweepLevel, ...]

    # -- inspection helpers -------------------------------------------

    @property
    def n_levels(self) -> int:
        return len(self.level_off) - 1

    def action_counts(self) -> np.ndarray:
        return np.diff(self.dec_aoff)

    def uniform_strategy(self) -> np.ndarray:
        counts = self.action_counts()
        return np.repeat(1.0 / counts, counts)

    def __repr__(self) -> str:
        return (
            f"DagDecisionProblem({self.side}: {self.n_dec} dec, "
            f"{self.n_obs - 1} obs, {self.n_act} actions)"
        )


@dataclass
class FlowVector:
    """Realization flow of one mixed strategy over the DAG.  The flow of
    action slot ``a`` is that of observation point ``a + 1``, so
    ``x_act`` is the view ``x_obs[1:]`` and not stored."""

    problem: DagDecisionProblem
    x_dec: np.ndarray
    x_obs: np.ndarray
    terminal_flow: np.ndarray

    @property
    def x_act(self) -> np.ndarray:
        return self.x_obs[1:]

    def scaled(self, c: float) -> "FlowVector":
        return FlowVector(
            self.problem, self.x_dec * c, self.x_obs * c,
            self.terminal_flow * c,
        )

    def add_scaled(self, other: "FlowVector", c: float) -> None:
        self.x_dec += c * other.x_dec
        self.x_obs += c * other.x_obs
        self.terminal_flow += c * other.terminal_flow

    def check_conservation(self, atol: float = 1e-9) -> None:
        """Every decision point must forward exactly what it receives."""
        p = self.problem
        if np.any(self.x_act < -1e-12):
            raise AssertionError("negative flow entry")
        parent_mass = np.add.reduceat(
            self.x_obs[p.dec_parent_obs], p.dec_poff[:-1]
        )
        np.testing.assert_allclose(parent_mass, self.x_dec, atol=atol)
        act_mass = np.add.reduceat(self.x_act, p.dec_aoff[:-1])
        np.testing.assert_allclose(act_mass, self.x_dec, atol=atol)


def _spans(off: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Entry indices of CSR rows ``rows`` (row offsets ``off``), the
    rows' entries concatenated in the order ``rows`` lists them."""
    starts = off[rows]
    lens = off[rows + 1] - starts
    first = starts - np.cumsum(lens) + lens  # minus the entries before
    return np.repeat(first, lens) + np.arange(lens.sum())


def _offsets(off: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row offsets of CSR rows ``rows`` (row offsets ``off``), laid out
    in the order ``rows`` lists them."""
    out = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(np.diff(off)[rows], out=out[1:])
    return out


def csr_of(lists) -> tuple[np.ndarray, np.ndarray]:
    """Concatenation of ``lists`` and its CSR row offsets."""
    off = np.zeros(len(lists) + 1, dtype=np.int64)
    np.cumsum(list(map(len, lists)), out=off[1:])
    flat = np.fromiter(
        itertools.chain.from_iterable(lists), np.int64, count=int(off[-1])
    )
    return flat, off


def freeze_csr(
    side: str,
    n_slots: int,
    aoff: np.ndarray,
    children: tuple[np.ndarray, np.ndarray],
    payloads: tuple[np.ndarray, np.ndarray],
) -> DagDecisionProblem:
    """Freeze a decision DAG given in any decision point numbering.

    ``aoff`` holds each decision point's action slot offsets;
    ``children`` and ``payloads`` are CSR tables with a row for the
    artificial root observation point, then one per action slot for
    the observation point it leads to.  Decision points are renumbered
    by (longest-path level, id) and slots follow their owners, so
    observation point ``o + 1`` is frozen action slot ``o``; the
    problem's ``dec_old`` lists the input id of each decision point.
    """
    kids, coff = children
    payload, poff = payloads
    n_dec, n_obs = len(aoff) - 1, int(aoff[-1]) + 1
    for name, off in (("children", coff), ("payloads", poff)):
        if len(off) - 1 != n_obs:
            raise GameValidationError(
                f"{name} has {len(off) - 1} rows, not {n_obs} (the root "
                f"and one per action slot)"
            )
    if coff[1] - coff[0] != 1:
        raise GameValidationError(
            "the artificial root must feed exactly one decision point"
        )
    counts = np.diff(aoff)
    if not counts.all():
        raise GameValidationError(
            f"decision point {int(np.argmin(counts))} has no actions"
        )
    for what, ids, n in [("decision point", kids, n_dec),
                         ("payload slot", payload, n_slots)]:
        bad = ids[(ids < 0) | (ids >= n)]
        if len(bad):
            raise GameValidationError(
                f"{what} {bad[0]} is out of range: there are {n} {what}s"
            )
    root_child = int(kids[coff[0]])
    # A decision point's parents, in observation point order.
    n_parents = np.bincount(kids, minlength=n_dec)
    if not n_parents.all():
        raise GameValidationError(
            f"decision point {int(np.argmin(n_parents))} is fed by no "
            f"observation point"
        )
    by_kid = np.argsort(kids, kind="stable")
    parents = _owner_of(coff)[by_kid]
    # A point that lists a child twice shows as two equal neighbours.
    twice = (np.diff(kids[by_kid]) == 0) & (np.diff(parents) == 0)
    if twice.any():
        j = int(np.argmax(twice))
        raise GameValidationError(
            f"observation point {parents[j]} lists decision point "
            f"{kids[by_kid[j]]} twice"
        )
    poff_in = np.zeros(n_dec + 1, dtype=np.int64)
    np.cumsum(n_parents, out=poff_in[1:])

    # Longest-path levels, one frontier per level: a decision point
    # joins once every parent's owner has a level.
    lev_dec = np.zeros(n_dec, dtype=np.int64)
    indeg = n_parents.copy()
    indeg[root_child] -= 1  # the artificial root
    ready = np.flatnonzero(indeg == 0)
    lev = seen = 0
    while len(ready):
        lev += 1
        seen += len(ready)
        lev_dec[ready] = lev
        obs = 1 + _spans(aoff, ready)  # the observation points of ready
        freed, times = np.unique(kids[_spans(coff, obs)], return_counts=True)
        indeg[freed] -= times
        ready = freed[indeg[freed] == 0]
    if seen != n_dec:
        raise GameValidationError("decision DAG contains a cycle")

    dec_order = np.argsort(lev_dec, kind="stable")
    dec_new = np.empty(n_dec, dtype=np.int64)
    dec_new[dec_order] = np.arange(n_dec)
    obs_order = np.concatenate(([0], 1 + _spans(aoff, dec_order)))
    obs_new = np.empty(n_obs, dtype=np.int64)
    obs_new[obs_order] = np.arange(n_obs)

    n_levels = (int(lev_dec.max()) if n_dec else 0) + 1
    level_off = np.zeros(n_levels + 1, dtype=np.int64)
    np.cumsum(np.bincount(lev_dec, minlength=n_levels), out=level_off[1:])
    dec_aoff = _offsets(aoff, dec_order)
    dec_poff = _offsets(poff_in, dec_order)
    obs_poff = _offsets(poff, obs_order)
    dec_parent_obs = obs_new[parents[_spans(poff_in, dec_order)]]
    act_dec = _read_only(_owner_of(dec_aoff))
    parent_dec = _read_only(_owner_of(dec_poff))
    sweep = []  # level 0 holds nothing; every later level is nonempty
    for d0, d1 in itertools.pairwise(level_off[1:].tolist()):
        a0, a1 = int(dec_aoff[d0]), int(dec_aoff[d1])
        s0, s1 = int(dec_poff[d0]), int(dec_poff[d1])
        sweep.append(SweepLevel(
            d0, d1, a0, a1, s0, s1,
            _read_only(dec_aoff[d0:d1] - a0),
            _read_only(dec_poff[d0:d1] - s0),
            dec_parent_obs[s0:s1], act_dec[a0:a1], parent_dec[s0:s1],
        ))
    return DagDecisionProblem(
        side=side,
        n_dec=n_dec,
        n_obs=n_obs,
        n_act=n_obs - 1,
        n_slots=n_slots,
        dec_aoff=dec_aoff,
        obs_coff=_offsets(coff, obs_order),
        obs_children=dec_new[kids[_spans(coff, obs_order)]],
        obs_poff=obs_poff,
        payload=payload[_spans(poff, obs_order)],
        dec_poff=dec_poff,
        dec_parent_obs=dec_parent_obs,
        level_off=level_off,
        root_dec=int(dec_new[root_child]),
        dec_old=_read_only(dec_order),
        act_dec=act_dec,
        parent_dec=parent_dec,
        payload_owner=_read_only(_owner_of(obs_poff)),
        levels=tuple(sweep),
    )


# ---------------------------------------------------------------------
# Flow and value sweeps
# ---------------------------------------------------------------------


def dag_cfr_strategy(
    problem: DagDecisionProblem, r: np.ndarray
) -> FlowVector:
    """Top-down sweep turning local mixed choices into a flow."""
    p = problem
    x_dec = np.empty(p.n_dec)
    x_obs = np.empty(p.n_obs)
    x_obs[0] = 1.0
    x_act = x_obs[1:]  # action slot a leads to observation point a + 1
    for d0, d1, a0, a1, *_, parent_off, parent_obs, act_dec, _ in p.levels:
        np.add.reduceat(x_obs[parent_obs], parent_off, out=x_dec[d0:d1])
        np.multiply(x_dec[act_dec], r[a0:a1], out=x_act[a0:a1])
    terminal_flow = np.bincount(
        p.payload, x_obs[p.payload_owner], p.n_slots
    )
    return FlowVector(p, x_dec, x_obs, terminal_flow)


def dag_cfr_utility(
    problem: DagDecisionProblem, r: np.ndarray, pay_obs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bottom-up sweep of action and decision-point values.

    ``pay_obs`` holds each observation point's own payoff (already
    weighted by chance and the opponent); the result pair is the value
    of every action slot and of every decision point, with the acting
    side's own flow above each point deliberately not applied.  The
    action values are the view ``v_obs[1:]`` of the observation values.
    """
    p = problem
    v_obs = np.array(pay_obs, dtype=float, copy=True)
    v_act = v_obs[1:]  # a level's slots are final once deeper levels add in
    v_dec = np.empty(p.n_dec)
    rv = np.empty(p.n_act)
    for d0, d1, a0, a1, _, _, act_off, _, parent_obs, _, parent_dec in (
        reversed(p.levels)
    ):
        np.multiply(r[a0:a1], v_act[a0:a1], out=rv[a0:a1])
        np.add.reduceat(rv[a0:a1], act_off, out=v_dec[d0:d1])
        # Scattering to parents fixes the order in which an observation
        # point sums its children; summing by gather would reorder it.
        np.add.at(v_obs, parent_obs, v_dec[parent_dec])
    return v_act, v_dec


def best_response(
    problem: DagDecisionProblem, pay_obs: np.ndarray
) -> tuple[float, np.ndarray]:
    """Exact value-maximizing pure reply against fixed outside payoffs.

    Returns the reply's expected payoff and its one-hot local strategy;
    ties break toward the lowest action slot.  A payoff that is NaN or
    infinite is rejected, since no slot could then match its maximum.
    """
    p = problem
    v_obs = np.array(pay_obs, dtype=float, copy=True)
    finite = np.isfinite(v_obs)
    if not finite.all():
        o = int(np.argmin(finite))
        raise GameValidationError(
            f"payoff of observation point {o} is not finite ({v_obs[o]})"
        )
    v_act = v_obs[1:]
    v_best = np.empty(p.n_dec)
    for d0, d1, a0, a1, _, _, act_off, _, parent_obs, _, parent_dec in (
        reversed(p.levels)
    ):
        np.maximum.reduceat(v_act[a0:a1], act_off, out=v_best[d0:d1])
        np.add.at(v_obs, parent_obs, v_best[parent_dec])
    # Every slot's value is final once its level is swept, so the
    # lowest best slot of every decision point is picked in one pass.
    hit = v_act == v_best[p.act_dec]
    first = np.minimum.reduceat(
        np.where(hit, np.arange(p.n_act), p.n_act), p.dec_aoff[:-1]
    )
    choice = np.zeros(p.n_act)
    choice[first] = 1.0
    return float(v_obs[0]), choice


# ---------------------------------------------------------------------
# Local regret machinery
# ---------------------------------------------------------------------

_VARIANTS = ("rm", "rm+", "prm+", "mwu")


class LocalRegretBank:
    """Per-decision-point no-regret learners over the flat action slots.

    Variants: plain regret matching (``rm``), its nonnegative variant
    (``rm+``), the predictive variant (``prm+``) that re-adds the last
    instantaneous regret before matching, and multiplicative weights
    (``mwu``) with a slowly decaying learning rate.
    """

    def __init__(
        self,
        problem: DagDecisionProblem,
        variant: str,
        utility_scale: float = 1.0,
    ):
        if variant not in _VARIANTS:
            raise ValueError(f"unknown regret variant {variant!r}")
        self.problem = problem
        self.variant = variant
        self.scale = max(utility_scale, 1e-12)
        self.t = 0
        self.cum = np.zeros(problem.n_act)
        self.prediction = np.zeros(problem.n_act)
        self._act_dec = problem.act_dec
        self._starts = problem.dec_aoff[:-1]
        self._uniform = problem.uniform_strategy()
        self._log_m = np.log(np.maximum(problem.action_counts(), 2))
        self._pos = np.empty(problem.n_act)

    def _normalize(self, weights: np.ndarray) -> np.ndarray:
        pos = np.maximum(weights, 0.0, out=self._pos)
        flat = np.add.reduceat(pos, self._starts)[self._act_dec]
        return np.divide(pos, flat, out=self._uniform.copy(), where=flat > 0)

    def current(self) -> np.ndarray:
        if self.variant == "mwu":
            if self.t == 0:
                return self._uniform.copy()
            eta = np.sqrt(self._log_m / self.t)[self._act_dec] / self.scale
            z = eta * self.cum
            z -= np.maximum.reduceat(z, self._starts)[self._act_dec]
            w = np.exp(z, out=z)
            w /= np.add.reduceat(w, self._starts)[self._act_dec]
            return w
        if self.variant == "prm+":
            return self._normalize(
                np.add(self.cum, self.prediction, out=self._pos)
            )
        return self._normalize(self.cum)

    def observe(self, v_act: np.ndarray, v_dec: np.ndarray) -> None:
        """Feed one iteration's action and baseline values back in."""
        self.t += 1
        if self.variant == "mwu":  # mwu accumulates raw utilities
            self.cum += v_act
            return
        # prm+ keeps this iteration's regret as its next prediction.
        inst = np.subtract(
            v_act,
            v_dec[self._act_dec],
            out=self.prediction if self.variant == "prm+" else None,
        )
        self.cum += inst
        if self.variant != "rm":
            np.maximum(self.cum, 0.0, out=self.cum)

    def average_weight(self) -> float:
        """Iterate weight for the running average under this variant."""
        if self.variant == "rm+":
            return float(self.t)
        if self.variant == "prm+":
            return float(self.t) ** 2
        return 1.0


# ---------------------------------------------------------------------
# Tree expansion (the generic-CFR reference form)
# ---------------------------------------------------------------------


@dataclass
class TreeExpansion:
    """Tree unrolling of a DAG problem with slot maps back to it.

    ``obs_map`` is the many-to-one projection from tree observation
    points onto the originals; pushing a tree flow through it yields a
    flow on the DAG, and composing a DAG payoff with it lifts the
    utility onto the tree.  ``act_map``/``dec_map`` do the same for
    action slots and decision points.
    """

    problem: DagDecisionProblem
    act_map: np.ndarray
    dec_map: np.ndarray
    obs_map: np.ndarray


def expand_to_tree(
    problem: DagDecisionProblem, budget: int = 100_000
) -> TreeExpansion:
    """Duplicate shared decision points until the DAG is a tree.

    Every path to a decision point becomes its own copy.  A learner run
    on the tree with payoffs lifted through ``obs_map`` feeds every copy
    the exact value stream its original sees, so per-copy regret state
    stays in lockstep with the original's and the projected iterates
    coincide — the property the tree serves as an oracle for.  As
    observation point ``o + 1`` is action slot ``o``, ``obs_map`` is the
    root followed by ``act_map + 1``.
    """
    check_budget("tree budget", budget)
    p = problem
    # Copies are made one level at a time, each level's in (owner,
    # action, child) order.  On a tree that is the (level, owner,
    # action) order freeze_csr lays points out in, so the copy order is
    # the frozen numbering and the maps need no remap.
    decs, acts = [], []
    copies = 0
    frontier = p.obs_children[p.obs_coff[0]: p.obs_coff[1]]  # the root
    while len(frontier):
        if copies + len(frontier) > budget:
            raise BudgetExceededError(
                f"tree expansion exceeded {budget} decision points at "
                f"level {len(decs)} ({copies} copied so far)"
            )
        copies += len(frontier)
        decs.append(frontier)
        acts.append(_spans(p.dec_aoff, frontier))
        frontier = p.obs_children[_spans(p.obs_coff, acts[-1] + 1)]
    dec_map, act_map = map(np.concatenate, (decs, acts))
    obs_map = np.concatenate(([0], act_map + 1))
    # Every copy's children are the next copies in order.
    tree = freeze_csr(
        p.side,
        p.n_slots,
        _offsets(p.dec_aoff, dec_map),
        (np.arange(len(dec_map)), _offsets(p.obs_coff, obs_map)),
        (
            p.payload[_spans(p.obs_poff, obs_map)],
            _offsets(p.obs_poff, obs_map),
        ),
    )
    return TreeExpansion(tree, act_map, dec_map, obs_map)


# ---------------------------------------------------------------------
# Native sequence form for perfect-recall sides
# ---------------------------------------------------------------------


def sequence_form(game, side: str) -> DagDecisionProblem:
    """Classic sequence-form decision problem of a perfect-recall side.

    One decision point per information set plus a start decision, one
    observation point per action history; terminals attach to the
    history they complete.  Raises if the side's coordinator would need
    to distinguish members of one information set (imperfect recall).
    """
    view = coordinator_view(game, side)
    i = imperfect_recall_at(game, view)
    if i is not None:
        raise GameValidationError(
            f"side {side!r} lacks perfect recall at infoset {i}"
        )

    # Decision point 0 is the start, with the empty sequence as its one
    # action, then one per infoset in view order.  Row 0 is the
    # artificial root, then one row per sequence in action slot order:
    # perfect recall gives every infoset action its own sequence.
    counts = [1] + [game.infosets[i].num_actions for i in view.infosets]
    aoff = np.concatenate(([0], np.cumsum(counts)))
    first = dict(zip(view.infosets, (aoff[1:-1] + 1).tolist()))
    row_of = [1] + [first[i] + a for _, i, a in view.seq_keys]
    children = [[] for _ in range(aoff[-1] + 1)]
    payloads = [[] for _ in children]
    children[0].append(0)
    for d, i in enumerate(view.infosets, 1):
        children[row_of[view.seq_of[game.infosets[i].members[0]]]].append(d)
    for z in game.terminals:
        payloads[row_of[view.seq_of[z]]].append(z)
    return freeze_csr(
        side, game.num_nodes, aoff, csr_of(children), csr_of(payloads)
    )
