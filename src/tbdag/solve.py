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
    check_budget,
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
    strategies (as realization per terminal), and the certificate.

    ``phase_ms`` splits the run's time: ``build`` (both analyses and
    DAGs), ``iterate`` (the regret loop) and ``certify`` (the best
    responses at log points)."""

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
    phase_ms: dict[str, float]

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


_REAL_TOL = 1e-9


def check_realization(g: ExtensiveFormGame, real: Mapping[int, float]) -> None:
    """Reject a per-terminal realization that is not one: a key that
    names no terminal of ``g``, or a value that is not a finite number
    in [0, 1] (up to 1e-9)."""
    terminals = set(g.terminals)
    for z in real:
        if z not in terminals:
            raise GameValidationError(
                f"realization key {z!r} names no terminal"
            )
    for z, p in real.items():
        try:
            x = float(p)
        except (TypeError, ValueError):
            x = math.nan
        if not -_REAL_TOL <= x <= 1 + _REAL_TOL:
            raise GameValidationError(
                f"realization {p!r} of terminal {z} is not a number "
                f"in [0, 1]"
            )


def _terminal_weights(g: ExtensiveFormGame, side: str) -> list[float]:
    """The side's weight sign·utility·chance_reach of each terminal, in
    ``g.terminals`` order: its payoff there before any realization of
    the players weighs it."""
    sign = _SIGN[side]
    return [sign * (g.utility[z] * g.chance_reach[z]) for z in g.terminals]


class _UtilityAssembler:
    """One side's terminal weights (:func:`_terminal_weights`) and the
    index plumbing from those terminals to the side's payload slots and
    observation points."""

    def __init__(self, dag: TbDag, g: ExtensiveFormGame):
        if set(dag.slot_of_terminal) != set(g.terminals):
            raise GameValidationError(
                "dag terminal maps do not cover the game's terminals"
            )
        self.problem = dag.problem
        self._slot = np.array(
            [dag.slot_of_terminal[z] for z in g.terminals], dtype=np.int64
        )
        self.weight = np.array(_terminal_weights(g, dag.side))

    def reach(self, flow: FlowVector) -> np.ndarray:
        """Per-terminal realization of one of this side's flows."""
        if flow.problem is not self.problem:
            raise GameValidationError(
                "flow belongs to a different problem"
            )
        return flow.terminal_flow[self._slot]

    def __call__(self, opp_reach: np.ndarray) -> np.ndarray:
        """Payoff per observation point against a per-terminal
        opponent realization."""
        p = self.problem
        w_slot = np.bincount(self._slot, self.weight * opp_reach, p.n_slots)
        return np.bincount(p.payload_owner, w_slot[p.payload], p.n_obs)


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
    if dag_self.game is not dag_opp.game and dag_self.game != dag_opp.game:
        raise GameValidationError(
            "the two dags map terminals of different games"
        )
    at_self = _UtilityAssembler(dag_self, g)
    return at_self(_UtilityAssembler(dag_opp, g).reach(y_opp))


def payoffs_from_realization(
    dag_self: TbDag,
    g: ExtensiveFormGame,
    opponent_realization: Mapping[int, float],
) -> np.ndarray:
    """Like :func:`assemble_utility`, but from a bare per-terminal
    opponent realization instead of a live flow."""
    check_realization(g, opponent_realization)
    return _UtilityAssembler(dag_self, g)(
        np.array(
            [float(opponent_realization.get(z, 0.0)) for z in g.terminals]
        )
    )


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

    t_loop = time.perf_counter()
    certify_s = 0.0
    avg_x, avg_y = _zero_flow(p_x), _zero_flow(p_y)
    cum_pay_x = np.zeros(p_x.n_obs)
    cum_pay_y = np.zeros(p_y.n_obs)
    cum_val_x = cum_val_y = 0.0
    weight_total = 0.0
    simultaneous = config.mode == "simultaneous"
    y_prev = dag_cfr_strategy(p_y, bank_y.current())

    at_x = _UtilityAssembler(dags[MAX], g)
    at_y = _UtilityAssembler(dags[MIN], g)
    log: list[LogPoint] = []
    converged = False
    t = 0
    for t in range(1, config.max_iters + 1):
        # The two regret banks are independent, so both iterates can be
        # read first; the modes differ only in the max side's opponent.
        r_x, r_y = bank_x.current(), bank_y.current()
        x_t = dag_cfr_strategy(p_x, r_x)
        y_t = dag_cfr_strategy(p_y, r_y)
        pay_x = at_x(at_y.reach(y_t if simultaneous else y_prev))
        pay_y = at_y(at_x.reach(x_t))
        va_x, vd_x = dag_cfr_utility(p_x, r_x, pay_x)
        bank_x.observe(va_x, vd_x)
        va_y, vd_y = dag_cfr_utility(p_y, r_y, pay_y)
        bank_y.observe(va_y, vd_y)
        y_prev = y_t

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
            t_cert = time.perf_counter()
            x_bar = avg_x.scaled(1.0 / weight_total)
            y_bar = avg_y.scaled(1.0 / weight_total)
            x_reach, y_reach = at_x.reach(x_bar), at_y.reach(y_bar)
            br_x, _ = best_response(p_x, at_x(y_reach))
            br_y, _ = best_response(p_y, at_y(x_reach))
            gap_t = br_x + br_y
            value = float(np.dot(at_x.weight, x_reach * y_reach))
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
            certify_s += time.perf_counter() - t_cert
            if not math.isfinite(gap_t):
                raise RuntimeError(
                    f"non-finite gap at iteration {t}: {point!r}"
                )
            if gap_t <= config.eps:
                converged = True
                break

    loop_s = time.perf_counter() - t_loop
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
        phase_ms={
            "build": (t_loop - t_start) * 1e3,
            "iterate": (loop_s - certify_s) * 1e3,
            "certify": certify_s * 1e3,
        },
    )


def enumeration_oracle(
    g: ExtensiveFormGame,
    side: str,
    opponent_realization: Mapping[int, float],
    budget: int = 10**7,
) -> tuple[float, dict[int, int]]:
    """Best pure reduced strategy by exhaustive tree search.

    Walks assignments over the side's infosets depth by depth, branching
    only at infosets its own earlier choices keep reachable; the nodes
    the choices so far still reach are carried as a bitset over node
    ids.  A strategy's value is the sum of the weights of the terminals
    it reaches, kept exact: every weight is an integer over one
    power-of-two denominator, and each choice adds the weights it
    settles.  The returned value is that exact sum correctly rounded
    (as ``math.fsum`` of the weights would give), and ties go to the
    first strategy in search order.  Returns the best value and the
    argmax assignment (unreached infosets omitted — that is the reduced
    form).  Independent of all DAG machinery by design, which is what
    makes it a certificate.
    """
    if side not in _SIGN:
        raise GameValidationError(f"unknown side {side!r}")
    check_budget("reduced pure-strategy budget", budget)
    check_realization(g, opponent_realization)
    real = opponent_realization
    n = g.num_nodes
    ratios = {}
    for z, w in zip(g.terminals, _terminal_weights(g, side)):
        w *= float(real.get(z, 0.0))
        if w != 0.0:
            ratios[z] = w.as_integer_ratio()
    den = max((q for _, q in ratios.values()), default=1)

    # settled[h]: the exact sum of the terminals below h that no node of
    # the side separates from h (0 at the side's own nodes).  Ids are
    # preorder, so children come after their parent.
    settled = [0] * n
    for z, (p, q) in ratios.items():
        settled[z] = p * (den // q)
    for h in range(n - 1, 0, -1):
        up = g.parent[h]
        if settled[h] and g.node_side(up) != side:
            settled[up] += settled[h]

    # Node sets are int bitsets over node ids.  The subtree of h is the
    # bit range [h, h + size[h]).  ok[i][a] holds the nodes whose path
    # does not pass infoset i with an action other than a; the members
    # of i share a depth, so their subtrees are disjoint.  gains[i] has
    # one (member bit, settled sum per action) row for each member
    # whose children settle anything.
    size = [1] * n
    for h in range(n - 1, 0, -1):
        size[g.parent[h]] += size[h]
    full = (1 << n) - 1
    members: dict[int, int] = {}
    ok: dict[int, list[int]] = {}
    gains: dict[int, list[tuple[int, list[int]]]] = {}
    for i in g.side_infosets(side):
        iset = g.infosets[i]
        members[i] = sum(1 << m for m in iset.members)
        through = [
            sum(((1 << size[c]) - 1) << c for c in cs)
            for cs in zip(*(g.children[m] for m in iset.members))
        ]
        ok[i] = [full ^ sum(through) ^ t for t in through]
        rows = ((m, [settled[c] for c in g.children[m]]) for m in iset.members)
        gains[i] = [(1 << m, row) for m, row in rows if any(row)]

    level = {i: g.depth[g.infosets[i].members[0]] for i in members}
    groups = [
        (d, list(grp))
        for d, grp in itertools.groupby(
            sorted(level, key=lambda i: (level[i], i)), key=level.get
        )
    ]

    best_value = -math.inf
    best_acc: int | float = -math.inf
    best_assign: dict[int, int] = {}
    count = 0
    assign: dict[int, int] = {}

    def action_gains(i: int, alive: int) -> list[int]:
        hit = [row for bit, row in gains[i] if alive & bit]
        if not hit:
            return [0] * g.infosets[i].num_actions
        return [sum(col) for col in zip(*hit)]

    def rec(gi: int, alive: int, acc: int, depth: int) -> None:
        # acc is the exact value of the terminals the choices so far
        # have settled for good; depth is that of the last group that
        # branched.
        nonlocal count, best_value, best_acc, best_assign
        live: list[int] = []
        while not live and gi < len(groups):
            d, grp = groups[gi]
            gi += 1
            live = [i for i in grp if alive & members[i]]
        if live:
            depth = d
        sums = [action_gains(i, alive) for i in live]
        if gi < len(groups):
            for combo in itertools.product(
                *(range(g.infosets[i].num_actions) for i in live)
            ):
                kept = alive
                tot = acc
                for i, s, a in zip(live, sums, combo):
                    assign[i] = a
                    kept &= ok[i][a]
                    tot += s[a]
                rec(gi, kept, tot, depth)
            for i in live:
                del assign[i]
            return
        # No group is left after this one, so its combos (or the one
        # empty combo) are leaves, scored in place.  Int true division
        # rounds correctly and rounding is monotone, so a leaf no better
        # than best_acc cannot beat best_value.
        left = budget - count - 1  # leaf k here is leaf count + k + 1
        for k, combo in enumerate(itertools.product(*sums)):
            if k > left:
                raise BudgetExceededError(
                    f"more than {budget} reduced pure strategies "
                    f"(expanding the infoset group at depth {depth}; "
                    f"best value so far {best_value:.12g})"
                )
            tot = acc + sum(combo)
            if tot > best_acc:
                v = tot / den
                if v > best_value:
                    best_value, best_acc = v, tot
                    best_assign = dict(assign)
                    best_assign.update(zip(live, _unrank(k, sums)))
        count += math.prod(len(s) for s in sums)

    rec(0, full, settled[g.root], 0)
    return best_value, best_assign


def _unrank(k: int, lists: list[list]) -> list[int]:
    """Indices of the ``k``-th tuple of ``itertools.product(*lists)``."""
    out = []
    for s in reversed(lists):
        k, a = divmod(k, len(s))
        out.append(a)
    return out[::-1]
