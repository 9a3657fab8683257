"""Span tracing of pdslab's public functions, installed from outside the package.

Each traced function is wrapped under the name its caller looks it up by:
`pipeline` and `cli` bind their dependencies with `from ... import`, so the
wrapper replaces `pdslab.pipeline.sample_dataset`, not
`pdslab.data.sample_dataset`. Spans (name, start, end, parent) are kept in
memory; counts that need a function's arguments or result are taken after
the span closes, so they add to the tracing overhead but not to the span.
"""
from __future__ import annotations

import hashlib
import inspect
import time
from collections import defaultdict

# span name -> (module, attribute) pairs where callers look the function up
WRAPPED = {
    "data.sample_dataset": [("pipeline", "sample_dataset")],
    "data.coverage_coefficient": [("pipeline", "coverage_coefficient")],
    "data.mix_datasets": [("pipeline", "mix_datasets")],
    "data.read_jsonl": [("cli", "read_jsonl")],
    "reward.fit_reward": [("pipeline", "fit_reward")],
    "reward.relabel": [("pipeline", "relabel")],
    "pevi.pevi_solve": [("pipeline", "pevi_solve")],
    "mdp.solve_optimal": [("pipeline", "solve_optimal")],
    "mdp.evaluate_policy": [("pipeline", "evaluate_policy")],
    "ensemble.fit_ensemble": [("cli", "fit_ensemble")],
    "ensemble.relabel_file": [("cli", "relabel_file")],
    "pipeline.sweep": [("pipeline", "sweep"), ("cli", "sweep")],
    "pipeline.run_method": [("pipeline", "run_method")],
    "pipeline.results_to_csv": [("pipeline", "results_to_csv"), ("cli", "results_to_csv")],
    "pipeline.markdown_summary": [("pipeline", "markdown_summary"), ("cli", "markdown_summary")],
    "cli.load_config": [("cli", "load_config")],
    "cli.run_config": [("cli", "run_config")],
    "cli.entrypoint": [("cli", "entrypoint")],
}

# (metric, unit) in the order they are reported
PER_LAYER = [
    ("data.sample_dataset.calls", "count"),
    ("data.sample_dataset.s", "s"),
    ("data.sample_dataset.transitions", "count"),
    ("data.sample_dataset.ns_per_transition", "ns"),
    ("data.coverage_coefficient.calls", "count"),
    ("data.coverage_coefficient.s", "s"),
    ("data.coverage_coefficient.solves", "count"),
    ("data.coverage_coefficient.distinct_ratio", "ratio"),
    ("pevi.pevi_solve.calls", "count"),
    ("pevi.pevi_solve.s", "s"),
    ("pevi.sweeps", "count"),
    ("pevi.row_sweeps", "count"),
    ("pevi.ns_per_row_sweep", "ns"),
    ("pevi.nonconverged", "count"),
    ("mdp.solve_optimal.calls", "count"),
    ("mdp.solve_optimal.s", "s"),
    ("mdp.evaluate_policy.calls", "count"),
    ("mdp.evaluate_policy.s", "s"),
    ("reward.fit_reward.calls", "count"),
    ("reward.fit_reward.s", "s"),
    ("reward.fit_reward.distinct_ratio", "ratio"),
    ("reward.relabel.calls", "count"),
    ("reward.relabel.s", "s"),
    ("data.mix_datasets.s", "s"),
    ("ensemble.fit_ensemble.s", "s"),
    ("ensemble.relabel_file.s", "s"),
    ("ensemble.relabel_file.rows", "count"),
    ("data.read_jsonl.s", "s"),
    ("pipeline.sweep.s", "s"),
    ("pipeline.sweep.self_s", "s"),
    ("pipeline.run_method.calls", "count"),
    ("pipeline.run_method.s", "s"),
    ("pipeline.run_method.self_s", "s"),
    ("pipeline.results_to_csv.s", "s"),
    ("pipeline.markdown_summary.s", "s"),
    ("cli.load_config.s", "s"),
    ("cli.run_config.self_s", "s"),
    ("cli.entrypoint.self_s", "s"),
    ("trace.overhead_s", "s"),
]


def _dataset_key(ds) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for arr in (ds.states, ds.actions, ds.next_states, ds.rewards):
        if arr is not None:
            h.update(arr.tobytes())
    return h.digest()


class Tracer:
    """Records spans and per-function counters while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._distinct: dict[str, set] = defaultdict(set)
        self._restore: list[tuple] = []

    def _count(self, name: str, bound: inspect.BoundArguments, result) -> None:
        args, c = bound.arguments, self.counters
        if name == "data.sample_dataset":
            c["data.sample_dataset.transitions"] += len(result)
        elif name == "data.coverage_coefficient":
            c["data.coverage_coefficient.solves"] += args["mdp"].num_states
            self._distinct[name].add(_dataset_key(args["dataset"]))
        elif name == "reward.fit_reward":
            self._distinct[name].add(_dataset_key(args["labeled"]))
        elif name == "pevi.pevi_solve":
            c["pevi.sweeps"] += result.sweeps_used
            c["pevi.row_sweeps"] += result.sweeps_used * len(args["dataset"])
            c["pevi.nonconverged"] += not result.converged
        elif name == "ensemble.relabel_file":
            c["ensemble.relabel_file.rows"] += result["count"]

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            self._count(name, sig.bind(*args, **kwargs), result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        for name, sites in WRAPPED.items():
            for module_name, attr in sites:
                module = modules[module_name]
                original = getattr(module, attr)
                self._restore.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def totals(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _), children in zip(self.spans, child_time):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - children
        return out

    def metrics(self) -> dict:
        """Every PER_LAYER metric except trace.overhead_s, 0 where unused."""
        totals = self.totals()
        values = dict(self.counters)
        for name, row in totals.items():
            for stat, v in row.items():
                values[f"{name}.{stat}"] = v
        for name, seen in self._distinct.items():
            values[f"{name}.distinct_ratio"] = len(seen) / totals[name]["calls"]
        transitions = values.get("data.sample_dataset.transitions", 0)
        if transitions:
            values["data.sample_dataset.ns_per_transition"] = (
                values["data.sample_dataset.s"] * 1e9 / transitions)
        if values.get("pevi.row_sweeps"):
            values["pevi.ns_per_row_sweep"] = (
                values["pevi.pevi_solve.s"] * 1e9 / values["pevi.row_sweeps"])
        return {metric: float(values.get(metric, 0.0))
                for metric, _ in PER_LAYER if metric != "trace.overhead_s"}
