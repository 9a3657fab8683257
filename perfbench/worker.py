"""One measuring process: set up a workload, run it in a closed loop, check outputs.

run.py starts this script in a fresh interpreter:

    worker.py RUN_DIR --setup-only
    worker.py RUN_DIR --seconds S --trace 0|1 --spans PATH

It prints one JSON object as its last line of standard output. `ready` is
the CLOCK_MONOTONIC reading just before the first timed call, so the parent
can measure set-up from the moment it started the process. Calls repeat
(one caller, closed loop) until `--seconds` have passed and at least
MIN_CALLS have run. With `--trace 1` calls alternate untraced and traced,
and the per-layer numbers are medians over the traced calls.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads

MIN_CALLS = 3
REFERENCE_SEED = 0
MAX_ERRORS_KEPT = 20


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, if it exports the query."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance() -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError):
        blas_name = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "pdslab_threads_in_worker": os.environ.get("PDSLAB_THREADS"),
    }


def _timed(workload, tracer: tracing.Tracer | None):
    workload.before()
    if tracer is not None:
        tracer.install(workloads.MODULES)
    try:
        start = time.perf_counter()
        out = workload.call()
        return time.perf_counter() - start, out
    finally:
        if tracer is not None:
            tracer.uninstall()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("run_dir", type=Path)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", type=Path)
    args = p.parse_args(argv)

    spec = json.loads((args.run_dir / "spec.json").read_text())
    workload = workloads.WORKLOADS[spec["workload"]](spec)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    reference = None
    if spec["size"] == "full" and spec["seed"] == REFERENCE_SEED:
        pinned = json.loads((Path(__file__).parent / "reference.json").read_text())
        reference = pinned[spec["workload"]]

    walls = {False: [], True: []}
    tracers: list[tracing.Tracer] = []
    attempted = failed = 0
    errors: list[str] = []
    start = time.perf_counter()
    calls = 0
    while calls < MIN_CALLS or time.perf_counter() - start < args.seconds:
        traced = bool(args.trace) and calls % 2 == 1
        tracer = tracing.Tracer() if traced else None
        wall = None
        try:
            wall, out = _timed(workload, tracer)
            a, f, errs = workload.check(out, reference)
        except Exception:  # a crashed call fails its rows; the run goes on
            a = f = workload.expected_rows
            errs = [traceback.format_exc()]
        calls += 1
        attempted += a
        failed += f
        errors += errs[:MAX_ERRORS_KEPT - len(errors)]
        if wall is not None:
            walls[traced].append(wall)
        if tracer is not None:
            tracers.append(tracer)

    result = {
        "ready": ready,
        "walls": walls[False],
        "traced_walls": walls[True],
        "rows_per_call": workload.expected_rows,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": provenance(),
    }
    if tracers:
        per_call = [t.metrics() for t in tracers]
        result["per_layer"] = {k: statistics.median(m[k] for m in per_call)
                               for k in per_call[0]}
        result["self_s"] = {name: row["self_s"] for name, row in tracers[-1].totals().items()}
        with args.spans.open("w") as fh:
            for call, t in enumerate(tracers):
                for name, s, e, parent in t.spans:
                    fh.write(json.dumps({"call": call, "name": name, "start": s,
                                         "end": e, "parent": parent}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
