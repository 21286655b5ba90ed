"""Self-play equilibrium computation on the paired decision DAGs.

Both sides run local no-regret learners over their DAG action slots.
Each iteration every side emits a flow, receives the opponent-and-chance
weighted payoffs gathered at its observation points, and feeds the
resulting action values back into its learners; weighted running
averages of the flows converge to a saddle point.  The certificate is
explicit: at every log point each side's exact best response against
the opponent's average is computed, and their sum — the saddle gap —
bounds the distance from equilibrium.

An enumeration oracle doubles as an independent check: it walks the
original game tree over reduced pure strategies, never touching any DAG
machinery, and must reproduce the DAG best-response values.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .analysis import analyze
from .build import TbDag, build_tbdag
from .dag import (
    FlowVector,
    LocalRegretBank,
    _payload_owner,
    best_response,
    dag_cfr_strategy,
    dag_cfr_utility,
)
from .game import (
    MAX,
    MIN,
    BudgetExceededError,
    ExtensiveFormGame,
    GameValidationError,
)

ALGORITHMS = {
    "cfr": "rm",
    "cfr+": "rm+",
    "pcfr+": "prm+",
    "cfr-mwu": "mwu",
}
MODES = ("simultaneous", "alternating")

_SIGN = {MAX: 1.0, MIN: -1.0}


@dataclass(frozen=True)
class SolveConfig:
    """Solver settings; the loop is deterministic for fixed settings."""

    algorithm: str = "pcfr+"
    eps: float = 1e-3
    max_iters: int = 100_000
    log_every: int = 50
    mode: str = "simultaneous"

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise GameValidationError(
                f"unknown algorithm {self.algorithm!r}; "
                f"pick one of {sorted(ALGORITHMS)}"
            )
        if self.mode not in MODES:
            raise GameValidationError(
                f"unknown update mode {self.mode!r}; pick one of {MODES}"
            )
        if not self.eps > 0:
            raise GameValidationError("eps must be positive")
        if self.max_iters < 1:
            raise GameValidationError("max_iters must be at least 1")
        if self.log_every < 1:
            raise GameValidationError("log_every must be at least 1")


@dataclass(frozen=True)
class LogPoint:
    """One certification row.

    ``bound`` is the analytic rate track |H|·sqrt(k·log b / t) and
    ``regret_cap`` the empirical weighted-regret bound on the gap of
    the running averages (exact in simultaneous mode).
    """

    iteration: int
    time_ms: float
    gap: float
    br_max: float
    br_min: float
    value: float
    bound: float
    regret_cap: float


CSV_COLUMNS = ("iter", "time_ms", "gap", "br_max", "br_min", "value",
               "bound")


@dataclass
class SolveReport:
    """Everything a run produced: the log track, the averaged
    strategies (as realization per terminal), and the certificate."""

    config: SolveConfig
    iterations: int
    converged: bool
    value: float
    gap: float
    log: tuple[LogPoint, ...]
    x_realization: dict[int, float]
    y_realization: dict[int, float]
    dags: dict[str, TbDag]
    averages: dict[str, FlowVector]

    def csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.log:
            lines.append(
                f"{row.iteration},{row.time_ms:.3f},{row.gap:.12g},"
                f"{row.br_max:.12g},{row.br_min:.12g},"
                f"{row.value:.12g},{row.bound:.12g}"
            )
        return "\n".join(lines) + "\n"

    def behavior(self, side: str) -> list[list[float]]:
        """Average local mixed choice at every decision point."""
        flow = self.averages[side]
        p = flow.problem
        out = []
        for d in range(p.n_dec):
            mass = flow.x_dec[d]
            acts = flow.x_act[p.dec_aoff[d]: p.dec_aoff[d + 1]]
            if mass > 0:
                out.append([float(a / mass) for a in acts])
            else:
                out.append([1.0 / len(acts)] * len(acts))
        return out


def terminal_realization(dag: TbDag, flow: FlowVector) -> dict[int, float]:
    """Per-terminal realization of one side's flow.

    Terminals sharing a payload slot share their realization by
    construction, so this is just a slot lookup per terminal.
    """
    return {
        z: float(flow.terminal_flow[s])
        for z, s in dag.slot_of_terminal.items()
    }


class _UtilityAssembler:
    """Precomputed index plumbing from one side's payload slots through
    the shared terminals to the other side's slots."""

    def __init__(
        self, dag_self: TbDag, dag_opp: TbDag, g: ExtensiveFormGame
    ):
        if (
            dag_self.game is not dag_opp.game
            and dag_self.game != dag_opp.game
        ):
            raise GameValidationError(
                "the two dags map terminals of different games"
            )
        if set(dag_self.slot_of_terminal) != set(g.terminals) or set(
            dag_opp.slot_of_terminal
        ) != set(g.terminals):
            raise GameValidationError(
                "dag terminal maps do not cover the game's terminals"
            )
        self.problem = dag_self.problem
        self.opp_problem = dag_opp.problem
        tz = list(g.terminals)
        self._self_slot = np.array(
            [dag_self.slot_of_terminal[z] for z in tz], dtype=np.int64
        )
        self._opp_slot = np.array(
            [dag_opp.slot_of_terminal[z] for z in tz], dtype=np.int64
        )
        self._weight = _SIGN[dag_self.side] * np.array(
            [g.utility[z] * g.chance_reach[z] for z in tz]
        )
        self._owner = _payload_owner(self.problem)

    def __call__(self, y_opp: FlowVector) -> np.ndarray:
        if y_opp.problem is not self.opp_problem:
            raise GameValidationError(
                "opponent flow belongs to a different problem"
            )
        w_slot = np.zeros(self.problem.n_slots)
        np.add.at(
            w_slot,
            self._self_slot,
            self._weight * y_opp.terminal_flow[self._opp_slot],
        )
        pay = np.zeros(self.problem.n_obs)
        np.add.at(pay, self._owner, w_slot[self.problem.payload])
        return pay


def assemble_utility(
    dag_self: TbDag,
    dag_opp: TbDag,
    y_opp: FlowVector,
    g: ExtensiveFormGame,
) -> np.ndarray:
    """Payoff per observation point of ``dag_self`` against one
    opponent flow: each payload slot collects, over the terminals it
    groups, their utility weighted by chance and by the opponent's
    realization of them (max-side sign convention; negated for min)."""
    return _UtilityAssembler(dag_self, dag_opp, g)(y_opp)


def payoffs_from_realization(
    dag_self: TbDag,
    g: ExtensiveFormGame,
    opponent_realization: Mapping[int, float],
) -> np.ndarray:
    """Like :func:`assemble_utility`, but from a bare per-terminal
    opponent realization instead of a live flow."""
    p = dag_self.problem
    sign = _SIGN[dag_self.side]
    w_slot = np.zeros(p.n_slots)
    for z, s in dag_self.slot_of_terminal.items():
        w_slot[s] += (
            sign
            * g.utility[z]
            * g.chance_reach[z]
            * float(opponent_realization.get(z, 0.0))
        )
    pay = np.zeros(p.n_obs)
    np.add.at(pay, _payload_owner(p), w_slot[p.payload])
    return pay


def gap(
    g: ExtensiveFormGame,
    dags: Mapping[str, TbDag],
    x_avg: FlowVector,
    y_avg: FlowVector,
) -> float:
    """Saddle gap of an average pair: the sum of both sides' exact
    best-response values against it (0 exactly at equilibrium)."""
    br_max, _ = best_response(
        dags[MAX].problem, assemble_utility(dags[MAX], dags[MIN], y_avg, g)
    )
    br_min, _ = best_response(
        dags[MIN].problem, assemble_utility(dags[MIN], dags[MAX], x_avg, g)
    )
    return br_max + br_min


def _pair_value(
    g: ExtensiveFormGame,
    dags: Mapping[str, TbDag],
    x: FlowVector,
    y: FlowVector,
) -> float:
    """Expected max-side utility of a flow pair."""
    tz = list(g.terminals)
    uw = np.array([g.utility[z] * g.chance_reach[z] for z in tz])
    xs = x.terminal_flow[
        np.array([dags[MAX].slot_of_terminal[z] for z in tz])
    ]
    ys = y.terminal_flow[
        np.array([dags[MIN].slot_of_terminal[z] for z in tz])
    ]
    return float(np.dot(uw, xs * ys))


def _zero_flow(problem) -> FlowVector:
    return FlowVector(
        problem,
        np.zeros(problem.n_dec),
        np.zeros(problem.n_act),
        np.zeros(problem.n_obs),
        np.zeros(problem.n_slots),
    )


def solve(
    g: ExtensiveFormGame, config: SolveConfig = SolveConfig()
) -> SolveReport:
    """Run self-play to the target gap or the iteration cap.

    Simultaneous mode scores both sides against the opponent's current
    iterate; alternating mode scores the max side against the
    opponent's previous iterate and the min side against the max
    iterate just emitted.
    """
    t_start = time.perf_counter()
    analyses = {MAX: analyze(g, MAX), MIN: analyze(g, MIN)}
    dags = {
        side: build_tbdag(g, side, analysis=analyses[side])
        for side in (MAX, MIN)
    }
    p_x, p_y = dags[MAX].problem, dags[MIN].problem
    variant = ALGORITHMS[config.algorithm]
    bank_x = LocalRegretBank(p_x, variant, g.utility_scale)
    bank_y = LocalRegretBank(p_y, variant, g.utility_scale)

    h = g.num_nodes
    k = max(analyses[MAX].k, analyses[MIN].k, 1)
    log_b = math.log(max(g.branching_factor, 2))

    avg_x, avg_y = _zero_flow(p_x), _zero_flow(p_y)
    cum_pay_x = np.zeros(p_x.n_obs)
    cum_pay_y = np.zeros(p_y.n_obs)
    cum_val_x = cum_val_y = 0.0
    weight_total = 0.0
    y_latest = dag_cfr_strategy(p_y, bank_y.current())

    pay_for_x = _UtilityAssembler(dags[MAX], dags[MIN], g)
    pay_for_y = _UtilityAssembler(dags[MIN], dags[MAX], g)
    log: list[LogPoint] = []
    converged = False
    t = 0
    for t in range(1, config.max_iters + 1):
        r_x = bank_x.current()
        x_t = dag_cfr_strategy(p_x, r_x)
        if config.mode == "simultaneous":
            r_y = bank_y.current()
            y_t = dag_cfr_strategy(p_y, r_y)
            pay_x = pay_for_x(y_t)
            pay_y = pay_for_y(x_t)
        else:
            pay_x = pay_for_x(y_latest)
        va_x, vd_x = dag_cfr_utility(p_x, r_x, pay_x)
        bank_x.observe(va_x, vd_x)
        if config.mode == "alternating":
            r_y = bank_y.current()
            y_t = dag_cfr_strategy(p_y, r_y)
            pay_y = pay_for_y(x_t)
        va_y, vd_y = dag_cfr_utility(p_y, r_y, pay_y)
        bank_y.observe(va_y, vd_y)
        y_latest = y_t

        val_x = float(vd_x[p_x.root_dec])
        val_y = float(vd_y[p_y.root_dec])
        if not (math.isfinite(val_x) and math.isfinite(val_y)):
            raise RuntimeError(
                f"non-finite value at iteration {t}: "
                f"max side {val_x!r}, min side {val_y!r}"
            )

        w = bank_x.average_weight()
        weight_total += w
        avg_x.add_scaled(x_t, w)
        avg_y.add_scaled(y_t, w)
        cum_pay_x += w * pay_x
        cum_pay_y += w * pay_y
        cum_val_x += w * val_x
        cum_val_y += w * val_y

        if t == 1 or t % config.log_every == 0 or t == config.max_iters:
            x_bar = avg_x.scaled(1.0 / weight_total)
            y_bar = avg_y.scaled(1.0 / weight_total)
            br_x, _ = best_response(p_x, pay_for_x(y_bar))
            br_y, _ = best_response(p_y, pay_for_y(x_bar))
            gap_t = br_x + br_y
            value = _pair_value(g, dags, x_bar, y_bar)
            regret_x = best_response(p_x, cum_pay_x)[0] - cum_val_x
            regret_y = best_response(p_y, cum_pay_y)[0] - cum_val_y
            point = LogPoint(
                iteration=t,
                time_ms=(time.perf_counter() - t_start) * 1e3,
                gap=gap_t,
                br_max=br_x,
                br_min=br_y,
                value=value,
                bound=h * math.sqrt(k * log_b / t),
                regret_cap=(regret_x + regret_y) / weight_total,
            )
            log.append(point)
            if not math.isfinite(gap_t):
                raise RuntimeError(
                    f"non-finite gap at iteration {t}: {point!r}"
                )
            if gap_t <= config.eps:
                converged = True
                break

    x_bar = avg_x.scaled(1.0 / weight_total)
    y_bar = avg_y.scaled(1.0 / weight_total)
    return SolveReport(
        config=config,
        iterations=t,
        converged=converged,
        value=log[-1].value,
        gap=log[-1].gap,
        log=tuple(log),
        x_realization=terminal_realization(dags[MAX], x_bar),
        y_realization=terminal_realization(dags[MIN], y_bar),
        dags=dags,
        averages={MAX: x_bar, MIN: y_bar},
    )


def enumeration_oracle(
    g: ExtensiveFormGame,
    side: str,
    opponent_realization: Mapping[int, float] | np.ndarray,
    budget: int = 10**7,
) -> tuple[float, dict[int, int]]:
    """Best pure reduced strategy by exhaustive tree search.

    Walks assignments over the side's infosets depth by depth, branching
    only at infosets its own earlier choices keep reachable, and scores
    each completed assignment directly on the game tree.  Returns the
    best value and the argmax assignment (unreached infosets omitted —
    that is the reduced form).  Independent of all DAG machinery by
    design, which is what makes it a certificate.
    """
    if side not in _SIGN:
        raise GameValidationError(f"unknown side {side!r}")
    if isinstance(opponent_realization, np.ndarray):
        opp = lambda z: float(opponent_realization[z])  # noqa: E731
    else:
        opp = lambda z: float(opponent_realization.get(z, 0.0))  # noqa: E731

    sign = _SIGN[side]
    weight = {
        z: sign * g.utility[z] * g.chance_reach[z] * opp(z)
        for z in g.terminals
    }

    # Own-choice constraints along each node's path.
    constraints: list[tuple[tuple[int, int], ...]] = [()] * g.num_nodes
    for h in range(1, g.num_nodes):
        par = g.parent[h]
        inherited = constraints[par]
        if g.node_side(par) == side:
            inherited = inherited + (
                (g.infoset[par], g.parent_action[h]),
            )
        constraints[h] = inherited

    isets = sorted(
        g.side_infosets(side),
        key=lambda i: (g.depth[g.infosets[i].members[0]], i),
    )
    groups: list[list[int]] = []
    for i in isets:
        d = g.depth[g.infosets[i].members[0]]
        if not groups or d != groups[-1][0]:
            groups.append([d])
        groups[-1].append(i)
    groups = [grp[1:] for grp in groups]
    group_of = {
        i: gi for gi, grp in enumerate(groups) for i in grp
    }

    # Terminal constraints bucketed by the group they bind at.
    zs0 = [z for z in g.terminals if weight[z] != 0.0]
    z_binds: dict[int, dict[int, list[tuple[int, int]]]] = {}
    for z in zs0:
        per: dict[int, list[tuple[int, int]]] = {}
        for i, a in constraints[z]:
            per.setdefault(group_of[i], []).append((i, a))
        z_binds[z] = per

    best_value = -math.inf
    best_assign: dict[int, int] = {}
    count = 0
    assign: dict[int, int] = {}

    def reachable(i: int) -> bool:
        return any(
            all(assign.get(j) == a for j, a in constraints[m])
            for m in g.infosets[i].members
        )

    def rec(gi: int, zs: list[int]) -> None:
        nonlocal count, best_value, best_assign
        if gi == len(groups):
            count += 1
            if count > budget:
                raise BudgetExceededError(
                    f"more than {budget} reduced pure strategies"
                )
            v = math.fsum(weight[z] for z in zs)
            if v > best_value:
                best_value = v
                best_assign = dict(assign)
            return
        live = [i for i in groups[gi] if reachable(i)]
        if not live:
            rec(gi + 1, zs)
            return
        for combo in itertools.product(
            *(range(g.infosets[i].num_actions) for i in live)
        ):
            for i, a in zip(live, combo):
                assign[i] = a
            kept = [
                z
                for z in zs
                if all(
                    assign.get(i) == a
                    for i, a in z_binds[z].get(gi, ())
                )
            ]
            rec(gi + 1, kept)
        for i in live:
            del assign[i]

    rec(0, zs0)
    return best_value, best_assign
