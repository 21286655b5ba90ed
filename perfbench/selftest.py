"""Self-test of the benchmark on small inputs.

    PYTHONPATH=src python3 perfbench/selftest.py

Runs every workload on tiny games (fig2, 2K3, fig9-C4, fig9-C6) and
checks the output checks, the failure accounting and the traced spans.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import tbdag
import tbdag.cli
import tracing
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SECONDS = 0.2


def load_pins() -> dict:
    with open(HERE / "pins.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


class TinyRun(unittest.TestCase):
    def setUp(self):
        WORK.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK))

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def measure(self, name, pins=None, trace=0, seed=7, trace_out=None):
        workload = workloads.TINY[name]
        workdir = self.tmp / f"{name}-{seed}-{trace}"
        workdir.mkdir(exist_ok=True)
        inputs = workload.make_inputs(seed, workdir, [])
        state = workload.load(inputs, workdir)
        return worker.measure(
            workload, state, load_pins() if pins is None else pins,
            SECONDS, trace, trace_out,
        )


class TestChecks(TinyRun):
    def test_every_check_passes(self):
        for name in workloads.TINY:
            with self.subTest(workload=name):
                raw = self.measure(name)
                self.assertGreaterEqual(raw["attempted"], 2)
                self.assertEqual(raw["failed"], 0, raw["failures"])

    def test_wrong_pins_are_counted_not_fatal(self):
        pins = load_pins()
        pins["build/fig2/max"] = dict(pins["build/fig2/max"], n_edges=-1)
        pins["solve/fig2/value"] = dict(
            pins["solve/fig2/value"],
            value=pins["solve/fig2/value"]["value"] + 1.0,
        )
        pins["belief/fig9-C4/nodes"] += 1
        for name, key in (("build-sweep", "build/fig2/max"),
                          ("solve-leduc", "solve/fig2"),
                          ("belief-fig9", "belief/fig9-C4")):
            with self.subTest(workload=name):
                good = self.measure(name)
                bad = self.measure(name, pins)
                good_ops = good["attempted"] // (len(good["walls"]) + 1)
                passes = len(bad["walls"]) + 1
                # One wrong pin per pass fails one operation per pass;
                # every other operation still runs.
                self.assertEqual(bad["failed"], passes)
                self.assertEqual(bad["attempted"], good_ops * passes)
                self.assertTrue(
                    all(line.startswith(key) for line in bad["failures"]),
                    bad["failures"],
                )

    def test_missing_pin_is_a_failure(self):
        raw = self.measure("build-sweep", pins={})
        passes = len(raw["walls"]) + 1
        # Four pinned builds and one pinned count per pass; the
        # count-vs-build check needs no pin.
        self.assertEqual(raw["failed"], 5 * passes)

    def test_seed_draws_the_belief_profiles(self):
        workload = workloads.TINY["belief-fig9"]
        a = workload.make_inputs(1, self.tmp, [])["profiles"]
        b = workload.make_inputs(1, self.tmp, [])["profiles"]
        c = workload.make_inputs(2, self.tmp, [])["profiles"]
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)


class TestTrace(TinyRun):
    def test_untraced_runs_install_no_wrappers(self):
        originals = {
            target: getattr(*tracing._owner(target))
            for t in tracing.TRACED for target in t.targets
        }
        self.measure("certify-kuhn")
        self.measure("certify-kuhn", trace=1)
        for target, fn in originals.items():
            self.assertIs(getattr(*tracing._owner(target)), fn, target)
        self.assertIs(tbdag.cli.analyze, tbdag.analysis.analyze)

    def test_spans_nest_and_self_times_add_up(self):
        for name in workloads.TINY:
            with self.subTest(workload=name):
                out = self.tmp / f"trace-{name}.json"
                raw = self.measure(name, trace=1, trace_out=out)
                self.assertEqual(raw["failed"], 0, raw["failures"])
                with open(out, "r", encoding="utf-8") as fh:
                    passes = json.load(fh)["passes"]
                self.assertEqual(len(passes), len(raw["traced_walls"]))
                for spans, wall in zip(passes, raw["traced_walls"]):
                    self.assertEqual(spans[0][0], tracing.PASS)
                    self.assertEqual(spans[0][3], -1)
                    for i, (_, start, end, parent) in enumerate(spans):
                        self.assertLessEqual(start, end)
                        if i == 0:
                            continue
                        self.assertLess(parent, i)
                        _, p_start, p_end, _ = spans[parent]
                        self.assertLessEqual(p_start, start)
                        self.assertLessEqual(end, p_end)
                    own = tracing.self_times(spans)
                    self.assertTrue(all(s >= -1e-9 for s in own))
                    self.assertAlmostEqual(sum(own), wall, delta=1e-9)

    def test_layer_metrics_and_counts(self):
        with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        names = {m["name"] for m in spec["per_layer"]} - {"zoo.generate_s"}
        counts = [m["name"] for m in spec["per_layer"]
                  if m["unit"] == "count"]
        for name in workloads.TINY:
            with self.subTest(workload=name):
                first = self.measure(name, trace=1)["layers"]
                second = self.measure(name, trace=1, seed=8)["layers"]
                self.assertLessEqual(names, set(first))
                self.assertGreater(first["game.parse_calls"], 0)
                self.assertGreater(first["analysis.analyze_s"], 0)
                self.assertGreater(first["trace.uncovered_share"], 0)
                self.assertLess(first["trace.uncovered_share"], 1)
                for key in counts:
                    self.assertEqual(first[key], second[key], key)

    def test_kept_obs_ratio_counts_observation_builds_only(self):
        # The public-split build of the count-vs-build check calls no
        # ``split_observation`` and must not add to the kept points.
        workload = workloads.TINY["build-sweep"]
        pins = load_pins()
        kept = sum(pins[f"build/{name}/{side}"]["n_obs"]
                   for name in workload.builds
                   for side in (tbdag.MAX, tbdag.MIN))
        out = self.tmp / "trace-build-sweep.json"
        layers = self.measure("build-sweep", trace=1, trace_out=out)["layers"]
        with open(out, "r", encoding="utf-8") as fh:
            spans = json.load(fh)["passes"][0]
        splits = sum(1 for name, _, _, parent in spans
                     if name == "analysis.split_observation"
                     and spans[parent][0] == "build.build_tbdag")
        self.assertGreater(splits, 0)
        self.assertAlmostEqual(layers["build.kept_obs_ratio"], kept / splits)

    def test_layers_seen_by_each_workload(self):
        expected = {
            "solve-leduc": ("dag.strategy_sweep_s", "solve.iterations",
                            "build.edges"),
            "build-sweep": ("build.count_edges", "build.dag_signature_s",
                            "build.kept_obs_ratio"),
            "belief-fig9": ("belief.nodes", "game.build_game_s",
                            "belief.map_pure_strategy_s"),
            "certify-kuhn": ("cli.self_s", "solve.oracle_calls",
                             "dag.best_response_calls"),
        }
        for name, keys in expected.items():
            with self.subTest(workload=name):
                layers = self.measure(name, trace=1)["layers"]
                for key in keys:
                    self.assertGreater(layers[key], 0, key)


class TestCommand(unittest.TestCase):
    def test_peak_rss_is_the_workers_own(self):
        # A worker started by a parent that holds much memory reports
        # its own peak, not the parent's.
        held = bytearray(256 * 2**20)
        for i in range(0, len(held), 4096):
            held[i] = 1
        proc = subprocess.run(
            [sys.executable, "-c",
             "import worker; print(worker.peak_rss_mb())"],
            cwd=HERE, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True, timeout=60,
        )
        del held
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertLess(float(proc.stdout), 200)

    def test_fails_without_the_program_sources(self):
        WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "build-sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
