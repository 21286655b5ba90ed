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

import functools
import itertools
import math
import operator
import time
from dataclasses import dataclass
from numbers import Real
from typing import Mapping

import numpy as np

from .analysis import analyze
from .build import TbDag, build_tbdag, phase_clock
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
    _is_id,
    check_budget,
    check_side,
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
        if isinstance(self.eps, bool) or not isinstance(self.eps, Real):
            raise GameValidationError(f"eps must be a number, not {self.eps!r}")
        if not self.eps > 0:
            raise GameValidationError("eps must be positive")
        if self.eps == math.inf:
            raise GameValidationError("eps must be finite, not inf")
        for name in ("max_iters", "log_every"):
            value = getattr(self, name)
            if not _is_id(value):
                raise GameValidationError(f"{name} must be an int, not {value!r}")
            if value < 1:
                raise GameValidationError(f"{name} must be at least 1")


@dataclass(frozen=True)
class LogPoint:
    """One certification row; ``bound`` is the analytic rate track
    |H|·sqrt(k·log b / t)."""

    iteration: int
    time_ms: float
    gap: float
    br_max: float
    br_min: float
    value: float
    bound: float


CSV_COLUMNS = ("iter", "time_ms", "gap", "br_max", "br_min", "value",
               "bound")


@dataclass
class SolveReport:
    """Everything a run produced: the log track, the averaged
    strategies (as realization per terminal), and the certificate.

    ``phase_ms`` splits the run's time, laps of one
    :func:`~tbdag.build.phase_clock`: ``build`` (both analyses and
    DAGs), ``iterate`` (the regret loop) and ``certify`` (the best
    responses at log points)."""

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
    """Per-terminal realization of one side's flow, in ``g.terminals``
    order (terminals sharing a payload slot share their realization)."""
    return dict(zip(
        dag.game.terminals, _UtilityAssembler(dag).reach(flow).tolist()
    ))


_REAL_TOL = 1e-9


def check_realization(g: ExtensiveFormGame, real: Mapping[int, float]) -> None:
    """Reject a per-terminal realization that is not one: a key that
    is not the int id of a terminal of ``g``, or a value that is not a
    real number (a bool is not one) in [0, 1] (up to 1e-9)."""
    terminals = set(g.terminals)
    for z in real:
        if not (_is_id(z) and z in terminals):
            raise GameValidationError(
                f"realization key {z!r} names no terminal"
            )
    for z, p in real.items():
        if (
            isinstance(p, bool)
            or not isinstance(p, Real)
            or not -_REAL_TOL <= p <= 1 + _REAL_TOL
        ):
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
    index plumbing from its game's terminals to the side's payload
    slots and observation points."""

    def __init__(self, dag: TbDag):
        g = dag.game
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


def _assemblers(dag_self, dag_opp):
    """Both DAGs' assemblers, once they are known to share one game."""
    if dag_self.game != dag_opp.game:
        raise GameValidationError(
            "the two dags map terminals of different games"
        )
    return _UtilityAssembler(dag_self), _UtilityAssembler(dag_opp)


def assemble_utility(
    dag_self: TbDag, dag_opp: TbDag, y_opp: FlowVector
) -> np.ndarray:
    """Payoff per observation point of ``dag_self`` against one
    opponent flow: each payload slot collects, over the terminals it
    groups, their utility weighted by chance and by the opponent's
    realization of them (max-side sign convention; negated for min)."""
    at_self, at_opp = _assemblers(dag_self, dag_opp)
    return at_self(at_opp.reach(y_opp))


def payoffs_from_realization(
    dag_self: TbDag, opponent_realization: Mapping[int, float]
) -> np.ndarray:
    """Like :func:`assemble_utility`, but from a bare per-terminal
    opponent realization (over the DAG's game) instead of a live flow."""
    g = dag_self.game
    check_realization(g, opponent_realization)
    return _UtilityAssembler(dag_self)(
        np.array(
            [float(opponent_realization.get(z, 0.0)) for z in g.terminals]
        )
    )


def _certify(at_x, at_y, x_bar, y_bar) -> tuple[float, float, float]:
    """Each side's exact best-response value against the other's flow,
    and the value of the pair (max side's payoff)."""
    x_reach, y_reach = at_x.reach(x_bar), at_y.reach(y_bar)
    br_x, _ = best_response(at_x.problem, at_x(y_reach))
    br_y, _ = best_response(at_y.problem, at_y(x_reach))
    return br_x, br_y, float(np.dot(at_x.weight, x_reach * y_reach))


def gap(
    dags: Mapping[str, TbDag], x_avg: FlowVector, y_avg: FlowVector
) -> float:
    """Saddle gap of an average pair: the sum of both sides' exact
    best-response values against it (0 exactly at equilibrium)."""
    br_max, br_min, _ = _certify(
        *_assemblers(dags[MAX], dags[MIN]), x_avg, y_avg
    )
    return br_max + br_min


def _zero_flow(problem) -> FlowVector:
    return FlowVector(
        problem,
        np.zeros(problem.n_dec),
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
    phase_ms, lap = phase_clock(("build", "iterate", "certify"))
    dags = {
        side: build_tbdag(g, side, analysis=analyze(g, side))
        for side in (MAX, MIN)
    }
    p_x, p_y = dags[MAX].problem, dags[MIN].problem
    variant = ALGORITHMS[config.algorithm]
    bank_x = LocalRegretBank(p_x, variant, g.utility_scale)
    bank_y = LocalRegretBank(p_y, variant, g.utility_scale)

    h = g.num_nodes
    k = max(dags[MAX].k, dags[MIN].k, 1)
    log_b = math.log(max(g.branching_factor, 2))

    lap("build")
    avg_x, avg_y = _zero_flow(p_x), _zero_flow(p_y)
    weight_total = 0.0
    simultaneous = config.mode == "simultaneous"
    y_prev = dag_cfr_strategy(p_y, bank_y.current())

    at_x, at_y = _assemblers(dags[MAX], dags[MIN])
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

        if t == 1 or t % config.log_every == 0 or t == config.max_iters:
            lap("iterate")
            x_bar = avg_x.scaled(1.0 / weight_total)
            y_bar = avg_y.scaled(1.0 / weight_total)
            br_x, br_y, value = _certify(at_x, at_y, x_bar, y_bar)
            gap_t = br_x + br_y
            point = LogPoint(
                iteration=t,
                time_ms=(time.perf_counter() - t_start) * 1e3,
                gap=gap_t,
                br_max=br_x,
                br_min=br_y,
                value=value,
                bound=h * math.sqrt(k * log_b / t),
            )
            log.append(point)
            lap("certify")
            if not math.isfinite(gap_t):
                raise RuntimeError(
                    f"non-finite gap at iteration {t}: {point!r}"
                )
            if gap_t <= config.eps:
                converged = True
                break

    # The last iteration is always logged, so x_bar and y_bar are the
    # final averages.
    lap("iterate")
    return SolveReport(
        iterations=t,
        converged=converged,
        value=log[-1].value,
        gap=log[-1].gap,
        log=tuple(log),
        x_realization=terminal_realization(dags[MAX], x_bar),
        y_realization=terminal_realization(dags[MIN], y_bar),
        dags=dags,
        averages={MAX: x_bar, MIN: y_bar},
        phase_ms=phase_ms,
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
    first strategy in search order.  The search below a depth group
    depends only on the group and the alive nodes from it on, so each
    such state is searched once, kept as a strategy count and records:
    the strategies exactly better than all before them.  The first one
    to round to the best value is a record, as rounding is monotone.
    Returns the best value and the argmax assignment (unreached infosets
    omitted — that is the reduced form).  Independent of all DAG
    machinery by design, which is what makes it a certificate.
    """
    check_side(side)
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
    own = g.own_infoset(side)
    for h in range(n - 1, 0, -1):
        up = g.parent[h]
        if settled[h] and own[up] < 0:
            settled[up] += settled[h]

    # Node sets are int bitsets over node ids.  The subtree of h is the
    # bit range [h, h + size[h]).  ok[i][a] holds the nodes whose path
    # does not pass infoset i with an action other than a; the members
    # of i share a depth, so their subtrees are disjoint.  gains[i] has
    # one (member bit, settled sum per action) row for each member.
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
            for cs in zip(*map(g.children, iset.members))
        ]
        ok[i] = [full ^ sum(through) ^ t for t in through]
        rows = ((m, [settled[c] for c in g.children(m)]) for m in iset.members)
        gains[i] = [(1 << m, row) for m, row in rows]

    level = {i: g.depth[g.infosets[i].members[0]] for i in members}
    by_level = sorted(level, key=lambda i: (level[i], i))
    groups = [list(grp) for _, grp in itertools.groupby(by_level, level.get)]
    group_mask = [sum(members[i] for i in grp) for grp in groups]
    # suffix[gi]: the members of groups gi on, all the search below reads
    # (the groups are disjoint, so their sum is their union).
    suffix = [*itertools.accumulate(group_mask[::-1], initial=0)][::-1]
    # states[gi]: alive members of groups gi on -> (leaf count, records)
    # of the search below.  It and choices follow the realization, so
    # they last one call.
    states: list[dict[int, tuple]] = [{} for _ in suffix]
    count = 0  # leaves counted so far, in search order
    top = -math.inf  # the exact value of the best of them

    @functools.cache
    def choices(i: int, live: int) -> list[tuple]:
        # ((i, action), ok row, gain) per action of i, live its alive members.
        sums = map(sum, zip(*(r for b, r in gains[i] if live & b)))
        return [((i, a), o, s) for a, (o, s) in enumerate(zip(ok[i], sums))]

    def rec(gi: int, alive: int, acc: int, depth: int) -> tuple:
        # The leaf count and records of the search below: each record is
        # a leaf's exact value (less acc) that beats every leaf before it,
        # with its (infoset, action) pairs.  acc is the exact value the
        # choices so far have settled for good; depth is that of the last
        # group that branched.
        nonlocal count, top
        key = alive & suffix[gi]
        hit = states[gi].get(key)
        if hit and count + hit[0] <= budget:
            count += hit[0]
            n, recs = hit
        else:
            # Expand the state: new, or a repeat the budget ends inside.
            start, opts = gi, []
            while not opts and gi < len(groups):
                opts = [
                    choices(i, live)
                    for i in groups[gi] if (live := alive & members[i])
                ]
                gi += 1
            depth = level[groups[gi - 1][0]] if opts else depth
            if gi < len(groups):
                n, recs = 0, []  # combos fold flat: no stack per infoset
                for combo in itertools.product(*opts):
                    pairs, oks, sums = zip(*combo)
                    kept = functools.reduce(operator.and_, oks, alive)
                    gain = sum(sums)
                    m, below = rec(gi, kept, acc + gain, depth)
                    n += m
                    if not recs or gain + below[-1][0] > recs[-1][0]:
                        _extend(recs, gain, pairs, below)
            else:
                # The last group's choices add independently, so the
                # records of its infosets t on extend those of t + 1 on.
                n = math.prod(map(len, opts))
                if count + n > budget:
                    leaves = itertools.product(*opts)
                    for combo in itertools.islice(leaves, int(budget - count)):
                        top = max(top, acc + sum(s for _, _, s in combo))
                    raise BudgetExceededError(
                        f"more than {budget} reduced pure strategies "
                        f"(expanding the infoset group at depth {depth}; "
                        f"best value so far {top / den:.12g})"
                    )
                count += n
                recs = [(0, ())]
                for row in reversed(opts):
                    recs, later = [], recs
                    for pair, _, s in row:
                        _extend(recs, s, (pair,), later)
            states[start][key] = n, recs
        top = max(top, acc + recs[-1][0])
        return n, recs

    acc = settled[g.root]
    _, recs = rec(0, full, acc, 0)
    # Int true division rounds correctly: best is the best exact value
    # rounded, and its first record is the first plan rounding to it.
    best = top / den
    return best, dict(next(p for v, p in recs if (acc + v) / den == best))


def _extend(recs: list, gain: int, pairs: tuple, later: list) -> None:
    """Append to ``recs`` each record of a later run of leaves that beats
    every leaf before it, shifted by ``gain`` and led by ``pairs``."""
    for v, tail in later:
        if not recs or gain + v > recs[-1][0]:
            recs.append((gain + v, pairs + tail))
