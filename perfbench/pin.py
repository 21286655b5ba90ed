"""Record the output pins that every benchmark pass is checked against.

    PYTHONPATH=src python3 perfbench/pin.py

Runs one pass of each workload, on its benchmark inputs and on the small
self-test inputs, and writes what the checks observed to
``perfbench/pins.json``.  ``solve-leduc``'s value is pinned from one more
solve to a gap of 1e-7 (about 80 s on a 2-core machine).  Re-run it only
when a change is meant to alter these outputs, and say so in that change.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"
WORK = HERE.parent / ".perfbench"


def record() -> dict:
    pins: dict = {}
    WORK.mkdir(exist_ok=True)
    for table in (workloads.WORKLOADS, workloads.TINY):
        for workload in table.values():
            with tempfile.TemporaryDirectory(dir=WORK) as tmp:
                workdir = Path(tmp)
                inputs = workload.make_inputs(0, workdir, [])
                checks = workloads.Checks(None)
                workload.run_pass(workload.load(inputs, workdir), checks)
            if checks.failed:
                raise SystemExit("\n".join(checks.failures))
            pins.update(checks.recorded)
    return pins


if __name__ == "__main__":
    pins = record()
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(pins)} pins to {PINS}")
