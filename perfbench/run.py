"""pdslab benchmark: three seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload chain_sweep --seed 0 --seconds 30 --trace 0

Workloads (closed loop, one caller; see BENCHMARK.json for why each exists):
    chain_sweep    pipeline.sweep on the acceptance chain MDP, 150 rows
    large_lowrank  `pdslab run` on an S=400 lowrank config, 2 rows
    jsonl_relabel  `pdslab fit-ensemble` + `pdslab relabel --k auto` on 3e5 lines

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. `--trace 0` reports the end-to-end metrics
(wall_s, rows_per_s, setup_s, peak_rss_mb, ok_frac); `--trace 1` reports the
per-layer metrics of tracing.PER_LAYER, taken around pdslab's public
functions. The line before it holds the timing quartiles, sample counts,
errors and provenance; both are also saved under .perfbench-work/results/.

Set-up time is measured in SETUP_SAMPLES fresh interpreters, each from
process start to the moment its first timed call would begin. Workers run
with PDSLAB_THREADS unset. `--size smoke` shrinks every workload for
smoke.py. The program is imported from ./src; without it the command fails
with exit code 2 before measuring anything.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
UNITS = {"wall_s": "s", "rows_per_s": "rows/s", "setup_s": "s", "peak_rss_mb": "MB",
         "ok_frac": "frac"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _worker(run_dir: Path, extra: list, deadline: float) -> tuple[float, dict]:
    """Start worker.py in a fresh interpreter; return (start time, its result)."""
    env = {k: v for k, v in os.environ.items() if k != "PDSLAB_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), str(run_dir)] + extra
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return started, json.loads(proc.stdout.splitlines()[-1])


def _summary(values: list) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def measure(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{workload}-s{seed}-t{trace}" + ("" if size == "full" else f"-{size}")
    run_dir = WORK / "runs" / tag
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        inputs.prepare(workload, seed, size, run_dir)
        setups = []
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                started, probe = _worker(run_dir, ["--setup-only"], deadline)
                setups.append(probe["ready"] - started)
        started, res = _worker(
            run_dir, ["--seconds", str(seconds), "--trace", str(trace),
                      "--spans", str(results_dir / f"{tag}.spans.jsonl")], deadline)
        setups.append(res["ready"] - started)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if not res["walls"] or (trace and not res["traced_walls"]):
        raise BenchError("no call completed: " + "".join(res["errors"][:1]))
    wall = _summary(res["walls"])
    if trace:
        metrics = dict(res["per_layer"])
        metrics["trace.overhead_s"] = (statistics.median(res["traced_walls"])
                                       - wall["median"])
        units = dict(tracing.PER_LAYER)
    else:
        metrics = {
            "wall_s": wall["median"],
            "rows_per_s": res["rows_per_call"] / wall["median"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": (res["attempted"] - res["failed"]) / res["attempted"],
        }
        units = UNITS
    detail = {
        "workload": workload, "seed": seed, "size": size, "trace": trace,
        "seconds": seconds, "wall_s": wall, "setup_s": _summary(setups),
        "errors": res["errors"],
        "provenance": dict(res["provenance"], git_revision=_git_revision(),
                           pdslab_threads_set=os.environ.get("PDSLAB_THREADS") is not None),
    }
    if trace:
        detail["traced_wall_s"] = _summary(res["traced_walls"])
        total = statistics.median(res["traced_walls"])
        detail["self_share"] = {name: s / total for name, s in sorted(
            res["self_s"].items(), key=lambda kv: -kv[1])}
    result = {
        "correct": res["failed"] == 0 and not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (results_dir / f"{tag}.json").write_text(
        json.dumps({"result": result, "detail": detail}, indent=1) + "\n")
    for err in res["errors"]:
        print(err, file=sys.stderr)
    print(json.dumps(detail))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=inputs.SIZES, default="full")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "pdslab" / "__init__.py").is_file():
        print(f"error: no pdslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace, args.size)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
