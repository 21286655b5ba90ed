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
sweeps are vectorized over contiguous per-level slices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import BudgetExceededError, GameValidationError

__all__ = [
    "DagDecisionProblem",
    "FlowVector",
    "LocalRegretBank",
    "ProblemBuilder",
    "TreeExpansion",
    "best_response",
    "dag_cfr_strategy",
    "dag_cfr_utility",
    "expand_to_tree",
    "sequence_form",
]


class DagDecisionProblem:
    """Frozen numpy form of one side's decision DAG.

    Decision points are numbered level-contiguously (all parents of a
    decision point live in strictly earlier levels), actions are flat
    slots in CSR layout, and every action slot points at its unique
    child observation point.
    """

    __slots__ = (
        "side",
        "n_dec",
        "n_obs",
        "n_act",
        "n_slots",
        "dec_aoff",
        "act_child_obs",
        "obs_coff",
        "obs_children",
        "obs_poff",
        "payload",
        "dec_poff",
        "dec_parent_obs",
        "level_off",
        "root_dec",
        "dec_meta",
    )

    def __init__(
        self,
        side,
        dec_aoff,
        act_child_obs,
        obs_coff,
        obs_children,
        obs_poff,
        payload,
        dec_poff,
        dec_parent_obs,
        level_off,
        root_dec,
        n_slots,
        dec_meta=None,
    ):
        self.side = side
        self.dec_aoff = dec_aoff
        self.act_child_obs = act_child_obs
        self.obs_coff = obs_coff
        self.obs_children = obs_children
        self.obs_poff = obs_poff
        self.payload = payload
        self.dec_poff = dec_poff
        self.dec_parent_obs = dec_parent_obs
        self.level_off = level_off
        self.root_dec = root_dec
        self.n_dec = len(dec_aoff) - 1
        self.n_obs = len(obs_coff) - 1
        self.n_act = len(act_child_obs)
        self.n_slots = n_slots
        self.dec_meta = dec_meta

    # -- inspection helpers -------------------------------------------

    @property
    def n_levels(self) -> int:
        return len(self.level_off) - 1

    @property
    def n_edges(self) -> int:
        """Action edges plus observation fan-out edges."""
        return self.n_act + len(self.obs_children)

    def action_counts(self) -> np.ndarray:
        return np.diff(self.dec_aoff)

    def dec_actions(self, d: int) -> slice:
        return slice(self.dec_aoff[d], self.dec_aoff[d + 1])

    def obs_payload(self, o: int) -> np.ndarray:
        return self.payload[self.obs_poff[o]: self.obs_poff[o + 1]]

    def uniform_strategy(self) -> np.ndarray:
        counts = self.action_counts()
        return np.repeat(1.0 / counts, counts)

    def __repr__(self) -> str:
        return (
            f"DagDecisionProblem({self.side}: {self.n_dec} dec, "
            f"{self.n_obs - 1} obs, {self.n_edges} edges)"
        )


@dataclass
class FlowVector:
    """Realization flow of one mixed strategy over the DAG."""

    problem: DagDecisionProblem
    x_dec: np.ndarray
    x_act: np.ndarray
    x_obs: np.ndarray
    terminal_flow: np.ndarray

    def scaled(self, c: float) -> "FlowVector":
        return FlowVector(
            self.problem,
            self.x_dec * c,
            self.x_act * c,
            self.x_obs * c,
            self.terminal_flow * c,
        )

    def add_scaled(self, other: "FlowVector", c: float) -> None:
        self.x_dec += c * other.x_dec
        self.x_act += c * other.x_act
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


class ProblemBuilder:
    """Accumulates decision/observation points, then freezes to arrays.

    Observation point 0 (the artificial root) exists from the start;
    attach the root decision to it via ``add_obs_child(0, d)``.
    """

    def __init__(self, side: str, n_slots: int):
        self.side = side
        self.n_slots = n_slots
        self.dec_actions: list[list[int]] = []
        self.obs_children: list[list[int]] = [[]]
        self.obs_payload: list[list[int]] = [[]]
        self.dec_meta: list = []

    def add_dec(self, meta=None) -> int:
        self.dec_actions.append([])
        self.dec_meta.append(meta)
        return len(self.dec_actions) - 1

    def add_obs(self, payload=()) -> int:
        self.obs_children.append([])
        self.obs_payload.append(list(payload))
        return len(self.obs_children) - 1

    def add_action(self, d: int, o: int) -> None:
        self.dec_actions[d].append(o)

    def add_obs_child(self, o: int, d: int) -> None:
        self.obs_children[o].append(d)

    def finalize(self) -> DagDecisionProblem:
        n_dec = len(self.dec_actions)
        n_obs = len(self.obs_children)
        if len(self.obs_children[0]) != 1:
            raise GameValidationError(
                "the artificial root must feed exactly one decision point"
            )

        # Longest-path levels: every parent strictly earlier.
        owner = [0] * n_obs  # decision point owning each obs (root: -1)
        for d, acts in enumerate(self.dec_actions):
            if not acts:
                raise GameValidationError(
                    f"decision point {d} has no actions"
                )
            for o in acts:
                owner[o] = d
        dec_parents: list[list[int]] = [[] for _ in range(n_dec)]
        for o, kids in enumerate(self.obs_children):
            for d in kids:
                dec_parents[d].append(o)
        lev_dec = [0] * n_dec
        lev_obs = [0] * n_obs
        indeg = [len(p) for p in dec_parents]
        from collections import deque

        for d in self.obs_children[0]:
            indeg[d] -= 1  # the artificial root is already resolved
        ready = deque(d for d in range(n_dec) if indeg[d] == 0)
        seen = 0
        while ready:
            d = ready.popleft()
            seen += 1
            lev = 1 + max(
                (lev_obs[o] for o in dec_parents[d]), default=0
            )
            lev_dec[d] = lev
            for o in self.dec_actions[d]:
                lev_obs[o] = lev
                for d2 in self.obs_children[o]:
                    indeg[d2] -= 1
                    if indeg[d2] == 0:
                        ready.append(d2)
        if seen != n_dec:
            raise GameValidationError("decision DAG contains a cycle")

        dec_order = sorted(range(n_dec), key=lambda d: (lev_dec[d], d))
        dec_new = {old: new for new, old in enumerate(dec_order)}
        obs_order = [0] + sorted(
            range(1, n_obs), key=lambda o: (lev_obs[o], owner[o], o)
        )
        obs_new = {old: new for new, old in enumerate(obs_order)}

        dec_aoff = np.zeros(n_dec + 1, dtype=np.int64)
        act_child = []
        for new, old in enumerate(dec_order):
            for o in self.dec_actions[old]:
                act_child.append(obs_new[o])
            dec_aoff[new + 1] = len(act_child)
        obs_coff = np.zeros(n_obs + 1, dtype=np.int64)
        obs_kids = []
        obs_poff = np.zeros(n_obs + 1, dtype=np.int64)
        payload = []
        for new, old in enumerate(obs_order):
            for d in self.obs_children[old]:
                obs_kids.append(dec_new[d])
            obs_coff[new + 1] = len(obs_kids)
            payload.extend(self.obs_payload[old])
            obs_poff[new + 1] = len(payload)
        dec_poff = np.zeros(n_dec + 1, dtype=np.int64)
        parent_obs = []
        for new, old in enumerate(dec_order):
            for o in dec_parents[old]:
                parent_obs.append(obs_new[o])
            dec_poff[new + 1] = len(parent_obs)

        levels = [lev_dec[old] for old in dec_order]
        n_levels = (levels[-1] if levels else 0) + 1
        level_off = np.zeros(n_levels + 1, dtype=np.int64)
        for lv in levels:
            level_off[lv + 1] += 1
        level_off = np.cumsum(level_off)

        meta = [self.dec_meta[old] for old in dec_order]
        return DagDecisionProblem(
            side=self.side,
            dec_aoff=dec_aoff,
            act_child_obs=np.asarray(act_child, dtype=np.int64),
            obs_coff=obs_coff,
            obs_children=np.asarray(obs_kids, dtype=np.int64),
            obs_poff=obs_poff,
            payload=np.asarray(payload, dtype=np.int64),
            dec_poff=dec_poff,
            dec_parent_obs=np.asarray(parent_obs, dtype=np.int64),
            level_off=level_off,
            root_dec=dec_new[self.obs_children[0][0]],
            n_slots=self.n_slots,
            dec_meta=meta,
        )


# ---------------------------------------------------------------------
# Flow and value sweeps
# ---------------------------------------------------------------------


def dag_cfr_strategy(
    problem: DagDecisionProblem, r: np.ndarray
) -> FlowVector:
    """Top-down sweep turning local mixed choices into a flow."""
    p = problem
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
        x_act[a0:a1] = (
            np.repeat(x_dec[d0:d1], counts[d0:d1]) * r[a0:a1]
        )
        x_obs[p.act_child_obs[a0:a1]] = x_act[a0:a1]
    terminal_flow = np.bincount(p.payload, x_obs[_payload_owner(p)], p.n_slots)
    return FlowVector(p, x_dec, x_act, x_obs, terminal_flow)


def _payload_owner(p: DagDecisionProblem) -> np.ndarray:
    return np.repeat(np.arange(p.n_obs, dtype=np.int64), np.diff(p.obs_poff))


def dag_cfr_utility(
    problem: DagDecisionProblem, r: np.ndarray, pay_obs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bottom-up sweep of action and decision-point values.

    ``pay_obs`` holds each observation point's own payoff (already
    weighted by chance and the opponent); the result pair is the value
    of every action slot and of every decision point, with the acting
    side's own flow above each point deliberately not applied.
    """
    p = problem
    v_obs = np.array(pay_obs, dtype=float, copy=True)
    v_act = np.zeros(p.n_act)
    v_dec = np.zeros(p.n_dec)
    for lv in range(p.n_levels - 1, 0, -1):
        d0, d1 = p.level_off[lv], p.level_off[lv + 1]
        if d0 == d1:
            continue
        a0, a1 = p.dec_aoff[d0], p.dec_aoff[d1]
        v_act[a0:a1] = v_obs[p.act_child_obs[a0:a1]]
        v_dec[d0:d1] = np.add.reduceat(
            r[a0:a1] * v_act[a0:a1], p.dec_aoff[d0:d1] - a0
        )
        span = slice(p.dec_poff[d0], p.dec_poff[d1])
        counts = p.dec_poff[d0 + 1: d1 + 1] - p.dec_poff[d0:d1]
        np.add.at(
            v_obs,
            p.dec_parent_obs[span],
            np.repeat(v_dec[d0:d1], counts),
        )
    return v_act, v_dec


def best_response(
    problem: DagDecisionProblem, pay_obs: np.ndarray
) -> tuple[float, np.ndarray]:
    """Exact value-maximizing pure reply against fixed outside payoffs.

    Returns the reply's expected payoff and its one-hot local strategy;
    ties break toward the lowest action slot.
    """
    p = problem
    v_obs = np.array(pay_obs, dtype=float, copy=True)
    v_act = np.zeros(p.n_act)
    choice = np.zeros(p.n_act)
    idx = np.arange(p.n_act)
    for lv in range(p.n_levels - 1, 0, -1):
        d0, d1 = p.level_off[lv], p.level_off[lv + 1]
        if d0 == d1:
            continue
        a0, a1 = p.dec_aoff[d0], p.dec_aoff[d1]
        v_act[a0:a1] = v_obs[p.act_child_obs[a0:a1]]
        offs = p.dec_aoff[d0:d1] - a0
        counts = np.diff(p.dec_aoff[d0: d1 + 1])
        v_best = np.maximum.reduceat(v_act[a0:a1], offs)
        hit = v_act[a0:a1] == np.repeat(v_best, counts)
        first = np.minimum.reduceat(
            np.where(hit, idx[a0:a1], p.n_act), offs
        )
        choice[first] = 1.0
        span = slice(p.dec_poff[d0], p.dec_poff[d1])
        pcounts = p.dec_poff[d0 + 1: d1 + 1] - p.dec_poff[d0:d1]
        np.add.at(
            v_obs, p.dec_parent_obs[span], np.repeat(v_best, pcounts)
        )
    value = float(v_obs[0])
    return value, choice


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
        self._counts = problem.action_counts()
        self._rep = np.repeat(
            np.arange(problem.n_dec), self._counts
        )
        self._log_m = np.log(np.maximum(self._counts, 2))

    def _normalize(self, weights: np.ndarray) -> np.ndarray:
        p = self.problem
        pos = np.maximum(weights, 0.0)
        totals = np.add.reduceat(pos, p.dec_aoff[:-1])
        flat = totals[self._rep]
        uniform = 1.0 / self._counts[self._rep]
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(flat > 0.0, pos / flat, uniform)
        return out

    def current(self) -> np.ndarray:
        if self.variant == "mwu":
            if self.t == 0:
                return self.problem.uniform_strategy()
            eta = np.sqrt(self._log_m / self.t)[self._rep] / self.scale
            z = eta * self.cum
            z -= np.maximum.reduceat(z, self.problem.dec_aoff[:-1])[
                self._rep
            ]
            w = np.exp(z)
            return w / np.add.reduceat(
                w, self.problem.dec_aoff[:-1]
            )[self._rep]
        if self.variant == "prm+":
            return self._normalize(self.cum + self.prediction)
        return self._normalize(self.cum)

    def observe(self, v_act: np.ndarray, v_dec: np.ndarray) -> None:
        """Feed one iteration's action and baseline values back in."""
        self.t += 1
        inst = v_act - v_dec[self._rep]
        if self.variant == "rm":
            self.cum += inst
        elif self.variant == "rm+":
            self.cum = np.maximum(self.cum + inst, 0.0)
        elif self.variant == "prm+":
            self.cum = np.maximum(self.cum + inst, 0.0)
            self.prediction = inst
        else:  # mwu accumulates raw utilities
            self.cum += v_act

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

    def lift_strategy(self, r: np.ndarray) -> np.ndarray:
        return r[self.act_map]

    def lift_payoff(self, pay_obs: np.ndarray) -> np.ndarray:
        return pay_obs[self.obs_map]

    def fold_flow(self, x_obs: np.ndarray, n_obs: int) -> np.ndarray:
        out = np.zeros(n_obs)
        np.add.at(out, self.obs_map, x_obs)
        return out


def expand_to_tree(
    problem: DagDecisionProblem, budget: int = 100_000
) -> TreeExpansion:
    """Duplicate shared decision points until the DAG is a tree.

    Every path to a decision point becomes its own copy.  A learner run
    on the tree with payoffs lifted through ``obs_map`` feeds every copy
    the exact value stream its original sees, so per-copy regret state
    stays in lockstep with the original's and the projected iterates
    coincide — the property the tree serves as an oracle for.
    """
    p = problem
    b = ProblemBuilder(p.side, p.n_slots)
    act_map: list[int] = []
    dec_map: list[int] = []

    def copy_dec(d: int) -> int:
        nd = b.add_dec(meta=d)
        dec_map.append(d)
        if len(dec_map) > budget:
            raise BudgetExceededError(
                f"tree expansion exceeded {budget} decision points"
            )
        for a in range(p.dec_aoff[d], p.dec_aoff[d + 1]):
            o = p.act_child_obs[a]
            no = b.add_obs(payload=p.obs_payload(o))
            b.add_action(nd, no)
            act_map.append(a)
            for d2 in p.obs_children[p.obs_coff[o]: p.obs_coff[o + 1]]:
                b.add_obs_child(no, copy_dec(int(d2)))
        return nd

    b.obs_payload[0] = list(p.obs_payload(0))
    b.add_obs_child(0, copy_dec(p.root_dec))
    tree = b.finalize()
    # finalize() renumbered; rebuild maps in the new numbering using
    # the per-copy originals that rode along as metadata.
    act_map_arr = np.zeros(tree.n_act, dtype=np.int64)
    dec_map_arr = np.asarray(tree.dec_meta, dtype=np.int64)
    for nd in range(tree.n_dec):
        d = dec_map_arr[nd]
        span_new = range(tree.dec_aoff[nd], tree.dec_aoff[nd + 1])
        span_old = range(p.dec_aoff[d], p.dec_aoff[d + 1])
        for na, a in zip(span_new, span_old):
            act_map_arr[na] = a
    obs_map_arr = np.zeros(tree.n_obs, dtype=np.int64)
    obs_map_arr[tree.act_child_obs] = p.act_child_obs[act_map_arr]
    return TreeExpansion(tree, act_map_arr, dec_map_arr, obs_map_arr)


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
    from .analysis import coordinator_view, imperfect_recall_at

    view = coordinator_view(game, side)
    i = imperfect_recall_at(game, view)
    if i is not None:
        raise GameValidationError(
            f"side {side!r} lacks perfect recall at infoset {i}"
        )

    b = ProblemBuilder(side, game.num_nodes)
    obs_of_seq: dict[int, int] = {}

    def obs_for(s: int) -> int:
        if s not in obs_of_seq:
            obs_of_seq[s] = b.add_obs()
        return obs_of_seq[s]

    start = b.add_dec(meta="start")
    b.add_obs_child(0, start)
    b.add_action(start, obs_for(0))
    dec_of_iset = {i: b.add_dec(meta=i) for i in view.infosets}
    seq_index = {seq: s for s, seq in enumerate(view.sequences)}
    for i in view.infosets:
        sid = view.seq_of[game.infosets[i].members[0]]
        b.add_obs_child(obs_for(sid), dec_of_iset[i])
        base = view.sequences[sid]
        for a in range(game.infosets[i].num_actions):
            s = seq_index[base + ((i, a),)]
            b.add_action(dec_of_iset[i], obs_for(s))
    for z in game.terminals:
        b.obs_payload[obs_for(view.seq_of[z])].append(z)
    return b.finalize()
