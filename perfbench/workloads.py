"""The benchmark workloads: inputs made in set-up, then one checked pass.

Every workload is a closed loop with one caller: a pass starts only after
the previous one has finished.  Set-up generates the games from
``tbdag.zoo`` and writes them as JSON documents; a pass sees only those
documents (and, for ``belief-fig9``, the seeded pure profiles).

Calls into tbdag go through module attributes (``tbdag.solve(...)``,
``tbdag.cli.main(...)``) so that the traced run can replace them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import time
from dataclasses import dataclass
from pathlib import Path

import tbdag
import tbdag.cli
from tbdag import MAX, MIN, ZooSpec


class CheckFailed(Exception):
    """A pass produced output that differs from what was expected."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class Checks:
    """Counts checked operations; a failed one is recorded, never fatal.

    With ``pins=None`` the checks record what they observe instead of
    comparing it, which is how ``pin.py`` writes ``pins.json``.
    """

    def __init__(self, pins: dict | None):
        self.pins = pins
        self.recorded: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    @contextlib.contextmanager
    def op(self, label: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # wrong output, error or budget abort
            self.failed += 1
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")

    def pinned(self, key: str):
        expect(key in self.pins, f"no pin recorded for {key}")
        return self.pins[key]

    def pin(self, key: str, value) -> None:
        """Check that ``value`` equals its pin exactly."""
        value = json.loads(json.dumps(value))
        if self.pins is None:
            self.recorded[key] = value
            return
        want = self.pinned(key)
        expect(value == want, f"{key}: got {value!r}, pinned {want!r}")

    def pin_value(self, key: str, value: float, gap: float,
                  reference) -> None:
        """Check a game value certified to within ``gap``.

        The pin is ``{"value", "gap"}`` from a solve to a much smaller
        gap; both lie within their gaps of the true value, so they may
        differ by the sum of the gaps.  When recording, ``reference()``
        makes that solve.
        """
        if self.pins is None:
            self.recorded[key] = reference()
            return
        want = self.pinned(key)
        expect(
            abs(value - want["value"]) <= gap + want["gap"],
            f"{key}: got {value!r} with gap {gap:.3g}, pinned "
            f"{want['value']!r} with gap {want['gap']:.3g}",
        )


def game_spec(name: str) -> ZooSpec:
    """A zoo preset, or ``fig9-C<n>`` for any column count."""
    presets = tbdag.list_presets()
    if name in presets:
        return presets[name]
    m = re.fullmatch(r"fig9-C(\d+)", name)
    if m is None:
        raise KeyError(f"unknown game {name!r}")
    return ZooSpec("inflation_counterexample_fig9", columns=int(m.group(1)))


def _file_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name) + ".json"


class Workload:
    """One workload: the games it needs and how one pass uses them."""

    name = ""

    def games(self) -> tuple[str, ...]:
        raise NotImplementedError

    def make_inputs(self, seed: int, workdir: Path, generate_s: list) -> dict:
        """Generate and write every input; append generation time."""
        files, games = {}, {}
        for name in self.games():
            t0 = time.perf_counter()
            g = games[name] = tbdag.generate(game_spec(name))
            generate_s.append(time.perf_counter() - t0)
            path = workdir / _file_name(name)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(tbdag.serialize_game(g), fh)
            files[name] = str(path)
        return {"files": files, **self.extra_inputs(seed, games)}

    def extra_inputs(self, seed: int, games: dict) -> dict:
        return {}

    def load(self, inputs: dict, workdir: Path) -> dict:
        """Read the inputs once, before any pass is timed."""
        docs = {}
        for name, path in inputs["files"].items():
            with open(path, "r", encoding="utf-8") as fh:
                docs[name] = json.load(fh)
        return {"docs": docs, "files": inputs["files"], "workdir": workdir}

    def run_pass(self, state: dict, checks: Checks) -> None:
        raise NotImplementedError


@dataclass
class SolveWorkload(Workload):
    game: str = "3L122[3]"

    name = "solve-leduc"
    EPS = 1e-3
    # The pinned value comes from a solve to this gap (``pin.py``).
    REFERENCE_EPS = 1e-7

    def games(self):
        return (self.game,)

    @staticmethod
    def solve(doc: dict, eps: float):
        g = tbdag.parse_game(doc)
        config = tbdag.SolveConfig(
            algorithm="pcfr+", eps=eps, mode="simultaneous"
        )
        return tbdag.solve(g, config)

    def reference(self, doc: dict) -> dict:
        rep = self.solve(doc, self.REFERENCE_EPS)
        expect(rep.converged, f"reference stopped at gap {rep.gap:.3g}")
        return {"value": rep.value, "gap": rep.gap}

    def run_pass(self, state, checks):
        key = f"solve/{self.game}"
        doc = state["docs"][self.game]
        with checks.op(key):
            rep = self.solve(doc, self.EPS)
            expect(rep.converged, f"{key}: stopped at gap {rep.gap:.3g}")
            expect(rep.gap <= self.EPS, f"{key}: gap {rep.gap:.3g}")
            checks.pin_value(
                f"{key}/value", rep.value, rep.gap,
                lambda: self.reference(doc),
            )


@dataclass
class BuildWorkload(Workload):
    builds: tuple[str, ...] = ("3L122[1]", "3L122[3]")
    count: str = "fig9-C11"
    count_check: str = "fig9-C8"

    name = "build-sweep"

    def games(self):
        return (*self.builds, self.count, self.count_check)

    def run_pass(self, state, checks):
        docs = state["docs"]
        for name in self.builds:
            for side in (MAX, MIN):
                key = f"build/{name}/{side}"
                with checks.op(key):
                    g = tbdag.parse_game(docs[name])
                    analysis = tbdag.analyze(g, side)
                    dag = tbdag.build_tbdag(
                        g, side, split="observation", reduce=True,
                        analysis=analysis,
                    )
                    tbdag.check_size_bounds(dag, analysis)
                    checks.pin(key, {
                        "n_dec": dag.stats.n_dec,
                        "n_obs": dag.stats.n_obs,
                        "n_edges": dag.stats.n_edges,
                        "signature": tbdag.dag_signature(dag),
                    })
        key = f"count/{self.count}/{MAX}/public"
        with checks.op(key):
            g = tbdag.parse_game(docs[self.count])
            checks.pin(key, tbdag.count_tbdag(g, MAX, split="public"))
        key = f"count-vs-build/{self.count_check}/{MAX}/public"
        with checks.op(key):
            g = tbdag.parse_game(docs[self.count_check])
            counted = tbdag.count_tbdag(g, MAX, split="public")
            raw = tbdag.build_tbdag(g, MAX, split="public", reduce=False)
            built = (raw.stats.n_dec, raw.stats.n_obs, raw.stats.n_edges)
            expect(counted == built, f"{key}: count {counted} != build {built}")


@dataclass
class BeliefWorkload(Workload):
    game: str = "fig9-C10"
    profiles: int = 100

    name = "belief-fig9"

    def games(self):
        return (self.game,)

    def extra_inputs(self, seed, games):
        g = games[self.game]
        rng = random.Random(seed)
        profiles = []
        for _ in range(self.profiles):
            profiles.append({
                side: [
                    [i, rng.randrange(g.infosets[i].num_actions)]
                    for i in g.side_infosets(side)
                ]
                for side in (MAX, MIN)
            })
        return {"profiles": profiles}

    def load(self, inputs, workdir):
        state = super().load(inputs, workdir)
        state["profiles"] = [
            {side: {i: a for i, a in prof[side]} for side in (MAX, MIN)}
            for prof in inputs["profiles"]
        ]
        return state

    def run_pass(self, state, checks):
        key = f"belief/{self.game}"
        bg = None
        with checks.op(key):
            g = tbdag.parse_game(state["docs"][self.game])
            bg = tbdag.make_belief_game(g)
            checks.pin(f"{key}/nodes", bg.game.num_nodes)
        for n, pis in enumerate(state["profiles"]):
            with checks.op(f"{key}/profile {n}"):
                expect(bg is not None, "no belief game to map into")
                u_src = tbdag.pure_strategy_value(g, {**pis[MAX], **pis[MIN]})
                rho = {}
                for side in (MAX, MIN):
                    rho.update(tbdag.map_pure_strategy(bg, side, pis[side]))
                u_bg = tbdag.pure_strategy_value(bg.game, rho)
                expect(u_bg == u_src, f"value {u_bg!r} != source {u_src!r}")


@dataclass
class CertifyWorkload(Workload):
    presets: tuple[str, ...] = ("3K3[3]", "3K3[1,2]")

    name = "certify-kuhn"
    EPS = 1e-4
    # Largest allowed distance of a DAG best response from the oracle.
    TOLERANCE = 1e-6

    def games(self):
        return self.presets

    def run_pass(self, state, checks):
        for name in self.presets:
            key = f"certify/{name}"
            with checks.op(key):
                path = state["files"][name]
                avg = str(state["workdir"] / (_file_name(name) + ".avg"))
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc_solve = tbdag.cli.main(
                        ["solve", path, "--eps", f"{self.EPS:g}",
                         "--save-avg", avg]
                    )
                expect(rc_solve == 0, f"solve exited {rc_solve}")
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc_check = tbdag.cli.main(
                        ["oracle-check", path, "--avg", avg, "--json"]
                    )
                expect(rc_check == 0, f"oracle-check exited {rc_check}")
                report = json.loads(out.getvalue())
                for side in (MAX, MIN):
                    diff = report["sides"][side]["abs_diff"]
                    expect(
                        diff <= self.TOLERANCE,
                        f"side {side}: DAG best response {diff:.3g} "
                        f"from the oracle",
                    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        SolveWorkload(),
        BuildWorkload(),
        BeliefWorkload(),
        CertifyWorkload(),
    )
}

# The same workloads on inputs small enough for the self-test.
TINY: dict[str, Workload] = {
    w.name: w
    for w in (
        SolveWorkload(game="fig2"),
        BuildWorkload(builds=("fig2", "2K3"), count="fig9-C6",
                      count_check="fig9-C4"),
        BeliefWorkload(game="fig9-C4", profiles=10),
        CertifyWorkload(presets=("2K3",)),
    )
}
