"""Pin the reference outputs that run.py compares against at seed 0.

    PYTHONPATH=src python3 perfbench/pin_reference.py

Runs each workload once at full size and seed 0 with the program in ./src,
checks the output's invariants, and rewrites perfbench/reference.json. Run
it only when a change to the program's results is intended and reviewed.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import inputs
import workloads

HERE = Path(__file__).resolve().parent
RUN_DIR = HERE.parent / ".perfbench-work" / "pin"


def main() -> int:
    pinned = {}
    for name in inputs.WORKLOADS:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
        spec = inputs.prepare(name, 0, "full", RUN_DIR)
        workload = workloads.WORKLOADS[name](spec)
        workload.before()
        out = workload.call()
        attempted, failed, errors = workload.check(out, None)
        if failed or errors:
            print(f"{name}: {failed}/{attempted} rows fail: {errors[:3]}", file=sys.stderr)
            return 1
        pinned[name] = workload.reference_of(out)
        print(f"{name}: pinned {attempted} rows")
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
