"""The three workloads: in-memory set-up, the timed call, and the output check.

Each workload is built from the spec that inputs.prepare wrote. `call` is
the timed region; `before` runs untimed ahead of each call; `check` returns
(attempted, failed, errors) for one call's output, where an operation is one
output row: a CSV result row for the sweeps, one written line for the
relabeled file. At the reference seed the rows are also compared with the
values pinned in reference.json.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from pdslab import cli, pipeline
from pdslab.mdp import FeatureMap, LinearMdp

# the traced modules, by the names tracing.WRAPPED uses
MODULES = {"pipeline": pipeline, "cli": cli}

CSV_HEADER = "method,n0,n1,c0,c1,gamma,d,seed,subopt_mean,subopt_max,vhat_start,wall_ms"
EXACT_COLUMNS = (0, 1, 2, 5, 6, 7)      # method, n0, n1, gamma, d, seed
NUMERIC_COLUMNS = (3, 4, 8, 9, 10)      # c0, c1, subopt_mean, subopt_max, vhat_start
TOLERANCE = 1e-9
SUBOPT_SLACK = 1e-8  # RunResult's own tolerance for negative suboptimality


def chain_mdp() -> LinearMdp:
    """The acceptance suite's four-state chain: start at the left end, actions
    trade off the chance of stepping right, and the far end pays most."""
    S, A = 4, 3
    p = np.array([0.1, 0.5, 0.9])
    phi = np.zeros((S, A, 2 * S))
    mu = np.zeros((2 * S, S))
    for s in range(S):
        phi[s, :, 2 * s] = p
        phi[s, :, 2 * s + 1] = 1.0 - p
        mu[2 * s, min(s + 1, S - 1)] = 1.0
        mu[2 * s + 1, max(s - 1, 0)] = 1.0
    theta = np.zeros(2 * S)
    theta[0::2] = [0.1, 0.3, 0.6, 1.0]
    init = np.zeros(S)
    init[0] = 1.0
    return LinearMdp(FeatureMap(phi), mu, theta, gamma=0.9, r_max=1.0, init_dist=init)


def _row_key(parts) -> str:
    return ",".join([parts[0], parts[1], parts[2], parts[7]])  # method,n0,n1,seed


def csv_reference(text: str) -> dict:
    """Result rows keyed by method,n0,n1,seed with the wall_ms column dropped."""
    rows = {}
    for line in text.splitlines()[1:]:
        parts = line.split(",")
        rows[_row_key(parts)] = ",".join(parts[:-1])
    return {"rows": rows}


def grid_keys(spec: dict) -> set:
    return {f"{m},{spec['n0']},{n1},{seed}"
            for m in spec["methods"] for n1 in spec["n1"] for seed in spec["seeds"]}


def check_csv(text: str | None, spec: dict, reference: dict | None):
    """Check sweep CSV rows against the grid, value ranges and the reference."""
    keys = grid_keys(spec)
    if text is None:
        return len(keys), len(keys), ["no csv output"]
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return len(keys), len(keys), ["csv header mismatch"]
    v_max = spec["r_max"] / (1.0 - spec["gamma"])
    ref_rows = reference["rows"] if reference else None
    seen, errors = set(), []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 12:
            errors.append(f"malformed row {line!r}")
            continue
        key = _row_key(parts)
        if key not in keys or key in seen:
            errors.append(f"unexpected or repeated row {key}")
            continue
        c0, c1, sub_mean, sub_max, v_hat = (float(parts[i]) for i in NUMERIC_COLUMNS)
        ok = (
            float(parts[5]) == spec["gamma"] and int(parts[6]) == spec["dim"]
            and c0 >= 0 and c1 >= 0
            and -SUBOPT_SLACK <= sub_mean <= sub_max <= v_max
            and 0.0 <= v_hat <= v_max
        )
        if ok and ref_rows is not None:
            ref = ref_rows[key].split(",")
            ok = all(parts[i] == ref[i] for i in EXACT_COLUMNS) and all(
                abs(float(parts[i]) - float(ref[i])) <= TOLERANCE for i in NUMERIC_COLUMNS)
        if ok:
            seen.add(key)
        else:
            errors.append(f"row {key} fails its check: {line}")
    attempted = max(len(keys), len(lines) - 1)
    return attempted, attempted - len(seen), errors


class ChainSweep:
    """pipeline.sweep on the chain MDP, then the CSV and markdown renderers."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.expected_rows = len(grid_keys(spec))
        self.mdp = chain_mdp()
        self.grid = pipeline.SweepGrid(
            n0_values=(spec["n0"],), n1_values=tuple(spec["n1"]),
            methods=(pipeline.MethodId.PDS,), seeds=tuple(spec["seeds"]),
            labeled_quality="medium", unlabeled_quality="medium",
            reward=pipeline.RewardSettings(), pevi=pipeline.PeviSettings(c=0.02),
        )

    def before(self) -> None:
        pass

    def call(self):
        report = pipeline.sweep(self.mdp, self.grid)
        return (report, pipeline.results_to_csv(report.results),
                pipeline.markdown_summary(report.results))

    def reference_of(self, out) -> dict:
        return csv_reference(out[1])

    def check(self, out, reference):
        report, text, summary = out
        attempted, failed, errors = check_csv(text, self.spec, reference)
        errors += [f"sweep failure {f}" for f in report.failures]
        # one row per method plus the header and separator lines
        if len(summary.splitlines()) != len(self.spec["methods"]) + 2:
            errors.append("markdown summary has the wrong shape")
            failed = attempted
        return attempted, failed, errors


class LargeLowrank:
    """`pdslab run` on the S=400 lowrank config, in-process."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.expected_rows = len(grid_keys(spec))
        self.output = Path(spec["output"])

    def before(self) -> None:
        self.output.unlink(missing_ok=True)
        self.output.with_suffix(".md").unlink(missing_ok=True)

    def call(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.entrypoint(["run", "--config", self.spec["config"]])

    def _csv(self) -> str | None:
        return self.output.read_text() if self.output.exists() else None

    def reference_of(self, out) -> dict:
        return csv_reference(self._csv())

    def check(self, out, reference):
        attempted, failed, errors = check_csv(self._csv(), self.spec, reference)
        if out != 0 or not self.output.with_suffix(".md").exists():
            errors.append(f"pdslab run exited {out}")
            failed = attempted
        return attempted, failed, errors


class JsonlRelabel:
    """`pdslab fit-ensemble` then `pdslab relabel --k auto`, in-process."""

    SUMMARY_VALUES = ("k", "reward_mean", "reward_min", "reward_max")

    def __init__(self, spec: dict):
        self.spec = spec
        self.expected_rows = spec["lines"]
        self.filled = Path(spec["filled"])
        self.model = Path(spec["model"])

    def before(self) -> None:
        self.filled.unlink(missing_ok=True)
        self.model.unlink(missing_ok=True)

    def call(self):
        s = self.spec
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            fit = cli.entrypoint(["fit-ensemble", "--in", s["labeled"], "--mdp", s["mdp"],
                                  "--L", str(s["ensemble_size"]), "--out", s["model"]])
            relabeled = cli.entrypoint(["relabel", "--in", s["raw"], "--out", s["filled"],
                                        "--model", s["model"], "--k", "auto"])
        lines = buf.getvalue().splitlines()
        return fit, relabeled, json.loads(lines[-1]) if relabeled == 0 else None

    def reference_of(self, out) -> dict:
        return {"summary": out[2]}

    def _bad_lines(self) -> int:
        """Lines whose passthrough changed or whose filled reward is out of range."""
        bad, r_max = 0, self.spec["r_max"]
        with open(self.spec["raw"]) as raw, self.filled.open() as filled:
            for before, after in zip(raw, filled):
                head, null, tail = before.partition('"r": null')
                if not null:
                    bad += after != before
                    continue
                head += '"r": '
                ok = after.startswith(head) and after.endswith(tail)
                try:
                    ok = ok and 0.0 <= float(after[len(head):len(after) - len(tail)]) <= r_max
                except ValueError:
                    ok = False
                bad += not ok
        return bad

    def check(self, out, reference):
        fit, relabeled, summary = out
        n = self.spec["lines"]
        if fit != 0 or relabeled != 0:
            return n, n, [f"pdslab exited {fit} (fit-ensemble), {relabeled} (relabel)"]
        passthrough = self.spec["passthrough"]
        expect = {"count": n, "relabeled": n - passthrough, "passthrough": passthrough}
        errors = [f"summary {k}={summary[k]}, want {v}"
                  for k, v in expect.items() if summary[k] != v]
        if reference:
            ref = reference["summary"]
            errors += [f"summary {k}={summary[k]}, reference {ref[k]}"
                       for k in self.SUMMARY_VALUES
                       if not math.isclose(summary[k], ref[k], rel_tol=TOLERANCE,
                                           abs_tol=TOLERANCE)]
        with self.filled.open() as fh:
            written = sum(1 for _ in fh)
        if written != n:
            errors.append(f"{written} lines written, want {n}")
        if errors:
            return n, n, errors
        bad = self._bad_lines()
        return n, bad, [f"{bad} relabeled lines fail their check"] if bad else []


WORKLOADS = {
    "chain_sweep": ChainSweep,
    "large_lowrank": LargeLowrank,
    "jsonl_relabel": JsonlRelabel,
}
