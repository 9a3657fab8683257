"""perfbench's tracer wraps pdslab functions under the names `pipeline` and
`cli` look them up by; if one of those names is gone, a traced benchmark run
fails in Tracer.install before it measures anything.

test_every_traced_name_exists guards only the names. It does not check that
the sweep still calls what they name: pipeline.sample_dataset,
pipeline.pevi_solve, pipeline.fit_reward, pipeline.relabel and
pipeline.mix_datasets stay importable for the tracer, but the sweep calls
sample_datasets, pevi_lockstep, fit_rewards and fill_tables and mixes no
datasets, so the traced data.sample_dataset.*, pevi.*, reward.fit_reward.*,
reward.relabel.* and data.mix_datasets.* metrics read 0 on the sweep
workloads until the tracer wraps what the sweep calls. The coverage layer
is checked through a traced sweep. The sweep evaluates each distinct greedy
policy once, so the traced mdp.evaluate_policy.calls counts a sweep's
distinct policies, not its rows or problems."""
import importlib.util
from pathlib import Path

import pdslab.cli
import pdslab.pipeline
from pdslab.mdp import make_lowrank_mdp

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = {"pipeline": pdslab.pipeline, "cli": pdslab.cli}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracing = _tracing()
    sites = [site for pairs in tracing.WRAPPED.values() for site in pairs]
    assert sites
    missing = [f"{module}.{attr}" for module, attr in sites
               if not callable(getattr(MODULES[module], attr, None))]
    assert missing == []

    before = {site: getattr(MODULES[site[0]], site[1]) for site in sites}
    tracer = tracing.Tracer()
    tracer.install(MODULES)
    tracer.uninstall()
    assert all(getattr(MODULES[m], a) is fn for (m, a), fn in before.items())


def test_traced_sweep_counts_every_coverage_call():
    """The sweep measures coverage through pipeline.coverage_coefficient with
    the dataset and mdp the tracer binds (and the Gram its batch reduced),
    so the traced calls and solves count every coverage the sweep computes
    rather than reading 0."""
    tracing = _tracing()
    mdp = make_lowrank_mdp(5, 2, dim=2, seed=3)
    grid = pdslab.pipeline.SweepGrid(n0_values=(40,), n1_values=(0, 30),
                                     methods=("pds", "no_share"), seeds=(0, 1))
    tracer = tracing.Tracer()
    tracer.install(MODULES)
    try:
        report = pdslab.pipeline.sweep(mdp, grid)
    finally:
        tracer.uninstall()
    assert len(report.results) == 8 and not report.failures
    calls = 2 * (1 + 2)  # per seed: d0 of the n1=0 cell, d0 and d1 of the n1=30 cell
    metrics = tracer.metrics()
    assert metrics["data.coverage_coefficient.calls"] == calls
    assert metrics["data.coverage_coefficient.solves"] == calls * mdp.num_states
