"""Run one benchmark workload, or all of them in turn, and print metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the repository root.  Set-up generates the workload's games
several times (``setup_s`` is the median), then a fresh worker process
runs one warm-up pass and timed passes for ``--seconds``.  With
``--trace 1`` the worker spends half the time untraced and half with
spans around tbdag's public functions, and the result holds the
per-layer metrics instead of the end-to-end ones; every span is written
to ``.perfbench/trace-<workload>-seed<N>.json``.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (with ``--workload all``, each
workload's report ends with such a line).  Metric names and units come
from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# Set-up is repeated until both minimums are met; ``setup_s`` is the
# median, so that short set-ups are timed as steadily as long ones.
SETUP_MIN_REPS = 9
SETUP_MIN_S = 3.0
SETUP_ROUND_S = 0.5
# A run must end within 180 s; set-up and a warm-up pass come first.
DEADLINE_S = 170


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def set_up(workload, seed: int, workdir: Path):
    """Generate and write the inputs repeatedly; the last copy is the
    one the worker reads.

    Repetitions come in rounds of about ``SETUP_ROUND_S``; each round is
    bracketed by speed-probe samples and its times are scaled by them.
    Returns the inputs path and the raw and scaled set-up times and the
    raw generation times, one per repetition.
    """
    raw, scaled, generate_s = [], [], []
    probe = speed.SpeedProbe()
    while len(raw) < SETUP_MIN_REPS or sum(raw) < SETUP_MIN_S:
        round_start = time.perf_counter()
        group = []
        while not group or time.perf_counter() - round_start < SETUP_ROUND_S:
            rep_dir = workdir / f"setup{len(raw) + len(group)}"
            rep_dir.mkdir()
            gen: list[float] = []
            t0 = time.perf_counter()
            inputs = workload.make_inputs(seed, rep_dir, gen)
            path = rep_dir / "inputs.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(inputs, fh)
            group.append(time.perf_counter() - t0)
            generate_s.append(sum(gen))
        factor = probe.scale()
        raw.extend(group)
        scaled.extend(t * factor for t in group)
    return path, raw, scaled, generate_s


def run_worker(args, inputs: Path, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # One caller: keep NumPy's native libraries to one thread as well.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--inputs", str(inputs),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--trace-out", str(trace_path(args))]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def trace_path(args) -> Path:
    return WORK / f"trace-{args.workload}-seed{args.seed}.json"


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return f"n={n}, too few passes for a tail percentile"
    return (f"p{100 * (n - 10) / n:.0f} {sorted(values)[n - 11]:.4f} s "
            f"(n={n})")


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*names, "all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tbdag" / "__init__.py").is_file():
        print(f"perfbench: no tbdag sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in names if args.workload == "all" else [args.workload]:
        run_workload(spec, argparse.Namespace(**{**vars(args),
                                                 "workload": name}))
    return 0


def run_workload(spec: dict, args) -> None:
    """Set up, run and report one workload."""
    import workloads

    t_start = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        inputs, setup_raw, setup_scaled, generate_s = set_up(
            workloads.WORKLOADS[args.workload], args.seed, workdir
        )
        timeout = DEADLINE_S - (time.perf_counter() - t_start)
        raw = run_worker(args, inputs, timeout)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = raw["walls"]
    end_to_end = {
        "wall_s": statistics.median(raw["scaled"]),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    print(f"perfbench {args.workload} seed {args.seed}: closed loop, one "
          f"caller; {len(walls)} timed passes after one warm-up pass")
    print(f"  wall_s       {end_to_end['wall_s']:.4f} s at nominal speed "
          f"({tail_percentile(raw['scaled'])}); raw median "
          f"{statistics.median(walls):.4f} s")
    print(f"  setup_s      {end_to_end['setup_s']:.4f} s at nominal speed; "
          f"raw median {statistics.median(setup_raw):.4f} s of "
          f"{len(setup_raw)} set-ups")
    print(f"  peak_rss_mb  {end_to_end['peak_rss_mb']:.1f} MB")
    print(f"  fail_ratio   {raw['failed'] / raw['attempted']:.4g} ratio "
          f"({raw['failed']} of {raw['attempted']} checked operations "
          f"failed)")
    for line in raw["failures"]:
        print(f"  FAILED {line}")

    if args.trace:
        values = dict(raw["layers"])
        values["zoo.generate_s"] = statistics.median(generate_s)
        print(f"  traced: {len(raw['traced_walls'])} passes, raw median "
              f"{statistics.median(raw['traced_walls']):.4f} s; spans in "
              f"{trace_path(args).relative_to(ROOT)}")
        for key in sorted(values):
            print(f"  {key:36s} {values[key]:.6g}")
        wanted = spec["per_layer"]
    else:
        values = end_to_end
        wanted = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    sys.exit(main())
