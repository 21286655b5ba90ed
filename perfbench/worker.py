"""Runs one workload's timed passes in a fresh process.

``run.py`` starts this script after set-up, with ``src`` on the path and
the inputs already written; it prints one JSON object with the raw
measurements as its last line of output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB.

    ``VmHWM`` counts this process alone.  ``ru_maxrss`` is only the
    fallback where there is no ``/proc``: on Linux it also keeps the
    resident size of the parent that started the process, so a large
    set-up in ``run.py`` would show in it.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_passes(workload, state, checks, seconds, tracer=None):
    """Run passes for about ``seconds``.

    A pass starts only if one more pass of median length still fits, so
    the run ends near ``seconds`` instead of up to one pass later.  Each
    pass's raw wall time is also scaled to nominal machine speed (see
    ``speed``).  With a tracer, each pass is a root span and is followed
    by its per-layer metrics; its spans are kept in ``archive``.
    """
    out = {"walls": [], "scaled": [], "layers": [], "archive": []}
    walls = out["walls"]
    probe = speed.SpeedProbe()
    t_end = time.perf_counter() + seconds
    while not walls or time.perf_counter() + statistics.median(walls) <= t_end:
        if tracer is None:
            t0 = time.perf_counter()
            workload.run_pass(state, checks)
            walls.append(time.perf_counter() - t0)
        else:
            tracer.spans, tracer.counts = [], {}
            index = tracer.begin(tracing.PASS)
            workload.run_pass(state, checks)
            tracer.end(index)
            metrics = tracing.pass_metrics(tracer.spans, tracer.counts)
            walls.append(metrics.pop("trace.wall_s"))
            out["layers"].append(metrics)
            out["archive"].append(tracer.spans)
        out["scaled"].append(walls[-1] * probe.scale())
    return out


def measure(workload, state, pins, seconds, trace, trace_out=None):
    """Warm up with one pass, then time passes (half untraced and half
    traced when ``trace`` is set) and report the raw measurements."""
    checks = workloads.Checks(pins)
    workload.run_pass(state, checks)
    if not trace:
        plain = timed_passes(workload, state, checks, seconds)
        result = {"walls": plain["walls"], "scaled": plain["scaled"]}
    else:
        plain = timed_passes(workload, state, checks, seconds / 2)
        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
        try:
            traced = timed_passes(
                workload, state, checks, seconds / 2, tracer
            )
        finally:
            tracing.uninstall(patches)
        layers = traced["layers"]
        result = {
            "walls": plain["walls"],
            "scaled": plain["scaled"],
            "traced_walls": traced["walls"],
            "layers": {
                key: statistics.median_low(m[key] for m in layers)
                for key in layers[0]
            },
        }
        result["layers"]["trace.overhead_s"] = (
            statistics.median(traced["scaled"])
            - statistics.median(plain["scaled"])
        )
        if trace_out is not None:
            with open(trace_out, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent"],
                           "passes": traced["archive"]}, fh)
    result.update(
        attempted=checks.attempted,
        failed=checks.failed,
        failures=checks.failures[:20],
        peak_rss_mb=peak_rss_mb(),
    )
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", type=Path, default=None)
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    with open(args.inputs, "r", encoding="utf-8") as fh:
        inputs = json.load(fh)
    with open(Path(__file__).with_name("pins.json"), "r",
              encoding="utf-8") as fh:
        pins = json.load(fh)
    state = workload.load(inputs, args.inputs.parent)
    result = measure(
        workload, state, pins, args.seconds, args.trace, args.trace_out
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
