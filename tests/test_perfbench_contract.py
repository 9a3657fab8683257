"""perfbench's tracer wraps pdslab functions under the names `pipeline` and
`cli` look them up by; if one of those names is gone, a traced benchmark run
fails in Tracer.install before it measures anything.

This guards only the names. It does not check that the sweep still calls
what they name: pipeline.sample_dataset and pipeline.pevi_solve stay
importable for the tracer, but the sweep calls sample_datasets and
pevi_lockstep, so the traced data.sample_dataset.* and pevi.* metrics read
0 on the sweep workloads until the tracer wraps the batched functions."""
import importlib.util
from pathlib import Path

import pdslab.cli
import pdslab.pipeline

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
