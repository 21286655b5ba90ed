"""Spans around tbdag's public functions, for the traced run only.

``install`` replaces each traced function by name in every module that
calls it (for example ``tbdag.build.split_observation`` and
``tbdag.belief.analyze``) with a wrapper that records a span; untraced
runs never call it.  A span is ``[name, start, end, parent]`` with the
parent's index in ``Tracer.spans`` (or -1).  A span's self time is its
duration minus the time its child spans cover; self times of all spans
plus the self time of the pass span add up to the pass's wall time.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable

PASS = "pass"


class Tracer:
    """In-memory span log and counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        top = self._open.pop()
        if top != index:
            raise RuntimeError(f"span {index} closed while {top} is open")

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


def _count_build(tracer, dag):
    tracer.add("build.edges", dag.stats.n_edges)
    tracer.add("build.dedup_hits", dag.stats.dedup_hits)
    # Only observation-split builds call ``split_observation``, so only
    # their points enter ``build.kept_obs_ratio``.
    if dag.split == "observation":
        tracer.add("build.kept_obs", dag.stats.n_obs)


def _count_count(tracer, triple):
    tracer.add("build.count_edges", triple[2])


def _count_solve(tracer, rep):
    tracer.add("solve.iterations", rep.iterations)
    tracer.add("solve.log_points", len(rep.log))
    first, last = rep.log[0], rep.log[-1]
    tracer.add("solve.timed_iterations", last.iteration - first.iteration)
    tracer.add("solve.timed_ms", last.time_ms - first.time_ms)


def _count_belief(tracer, bg):
    tracer.add("belief.nodes", bg.game.num_nodes)


@dataclass(frozen=True)
class Traced:
    """One traced public function: where it is called from, and what
    its span reports."""

    span: str
    targets: tuple[str, ...]  # "module:attribute" or "module:Class.method"
    time_metric: str
    calls_metric: str | None = None
    counter: Callable | None = None


TRACED = (
    Traced("game.parse", ("tbdag:parse_game", "tbdag.cli:parse_game"),
           "game.parse_s", "game.parse_calls"),
    Traced("game.build_game", ("tbdag.belief:build_game",),
           "game.build_game_s"),
    Traced("game.pure_strategy_value", ("tbdag:pure_strategy_value",),
           "game.pure_strategy_value_s"),
    Traced("analysis.analyze",
           ("tbdag:analyze", "tbdag.build:analyze", "tbdag.solve:analyze",
            "tbdag.belief:analyze", "tbdag.cli:analyze"),
           "analysis.analyze_s", "analysis.analyze_calls"),
    Traced("analysis.split_observation",
           ("tbdag.build:split_observation",
            "tbdag.belief:split_observation"),
           "analysis.split_observation_s",
           "analysis.split_observation_calls"),
    Traced("build.build_tbdag",
           ("tbdag:build_tbdag", "tbdag.solve:build_tbdag",
            "tbdag.cli:build_tbdag"),
           "build.build_tbdag_s", counter=_count_build),
    Traced("build.count_tbdag", ("tbdag:count_tbdag",),
           "build.count_tbdag_s", counter=_count_count),
    Traced("build.dag_signature", ("tbdag:dag_signature",),
           "build.dag_signature_s"),
    Traced("dag.strategy_sweep", ("tbdag.solve:dag_cfr_strategy",),
           "dag.strategy_sweep_s"),
    Traced("dag.utility_sweep", ("tbdag.solve:dag_cfr_utility",),
           "dag.utility_sweep_s"),
    Traced("dag.regret_update",
           ("tbdag.dag:LocalRegretBank.current",
            "tbdag.dag:LocalRegretBank.observe"),
           "dag.regret_update_s"),
    Traced("dag.best_response",
           ("tbdag.solve:best_response", "tbdag.cli:best_response"),
           "dag.best_response_s", "dag.best_response_calls"),
    Traced("solve.solve", ("tbdag:solve", "tbdag.cli:solve"),
           "solve.self_s", counter=_count_solve),
    Traced("solve.oracle", ("tbdag.cli:enumeration_oracle",),
           "solve.oracle_s", "solve.oracle_calls"),
    Traced("belief.make_belief_game", ("tbdag:make_belief_game",),
           "belief.make_belief_game_s", counter=_count_belief),
    Traced("belief.map_pure_strategy", ("tbdag:map_pure_strategy",),
           "belief.map_pure_strategy_s"),
    Traced("cli.main", ("tbdag.cli:main",), "cli.self_s"),
)

COUNTERS = (
    "build.edges", "build.count_edges", "build.dedup_hits",
    "solve.iterations", "solve.log_points", "belief.nodes",
)


def _wrap(tracer: Tracer, t: Traced, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(t.span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if t.counter is not None:
            t.counter(tracer, result)
        return result

    return traced


def _owner(target: str):
    module, _, path = target.partition(":")
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def install(tracer: Tracer) -> list:
    """Wrap every traced function; returns what ``uninstall`` restores."""
    patches = []
    for t in TRACED:
        for target in t.targets:
            owner, attr = _owner(target)
            original = getattr(owner, attr)
            patches.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, t, original))
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus its children's."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def pass_metrics(spans: list[list], counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``spans`` holds exactly the pass span (first) and its descendants,
    ``counts`` the counters recorded during the pass.
    """
    assert spans[0][0] == PASS and spans[0][3] == -1
    by_span = {t.span: t for t in TRACED}
    out: dict[str, float] = {}
    for t in TRACED:
        out[t.time_metric] = 0.0
        if t.calls_metric:
            out[t.calls_metric] = 0
    build_splits = 0
    own = self_times(spans)
    for (name, _, _, parent), s in zip(spans, own):
        if name == PASS:
            continue
        t = by_span[name]
        out[t.time_metric] += s
        if t.calls_metric:
            out[t.calls_metric] += 1
        if (name == "analysis.split_observation"
                and spans[parent][0] == "build.build_tbdag"):
            build_splits += 1
    for key in COUNTERS:
        out[key] = counts.get(key, 0)
    out["build.kept_obs_ratio"] = (
        counts.get("build.kept_obs", 0) / build_splits
        if build_splits else 0.0
    )
    timed = counts.get("solve.timed_iterations", 0)
    out["solve.iter_ms"] = (
        counts.get("solve.timed_ms", 0.0) / timed if timed else 0.0
    )
    wall = spans[0][2] - spans[0][1]
    out["trace.uncovered_share"] = own[0] / wall
    out["trace.wall_s"] = wall
    return out
