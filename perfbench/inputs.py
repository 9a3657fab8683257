"""Seeded inputs for the three workloads.

Everything a workload reads is derived here from the workload seed and
written into one run directory: a `spec.json` describing the workload, plus
the config or data files the CLI workloads consume. Generation uses numpy
only, never pdslab, so the inputs stay fixed when the program under test
changes.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("chain_sweep", "large_lowrank", "jsonl_relabel")
SIZES = ("full", "smoke")

CHAIN = {
    "full": {"n0": 200, "n1": [0, 2000, 20000], "seeds_per_run": 50},
    "smoke": {"n0": 200, "n1": [0, 500], "seeds_per_run": 2},
}
LARGE = {
    "full": {"num_states": 400, "n0": 5000, "n1": 100000},
    "smoke": {"num_states": 40, "n0": 500, "n1": 5000},
}
JSONL = {
    "full": {"num_states": 50, "labeled_lines": 5000, "lines": 300000},
    "smoke": {"num_states": 20, "labeled_lines": 500, "lines": 3000},
}
JSONL_ACTIONS = 4
JSONL_DIM = 6
JSONL_PASSTHROUGH_FRACTION = 0.1
JSONL_NOISE = 0.1
ENSEMBLE_SIZE = 10


def prepare(workload: str, seed: int, size: str, run_dir: Path) -> dict:
    """Write the workload's inputs into run_dir and return its spec."""
    run_dir.mkdir(parents=True, exist_ok=True)
    spec = {"workload": workload, "seed": seed, "size": size}
    if workload == "chain_sweep":
        p = CHAIN[size]
        # seed 0 is exactly the acceptance test_05 grid
        first = seed * p["seeds_per_run"]
        spec.update(n0=p["n0"], n1=p["n1"],
                    seeds=list(range(first, first + p["seeds_per_run"])),
                    methods=["pds"], gamma=0.9, dim=8, r_max=1.0)
    elif workload == "large_lowrank":
        spec.update(_write_lowrank_config(seed, LARGE[size], run_dir))
    elif workload == "jsonl_relabel":
        spec.update(_write_relabel_files(seed, JSONL[size], run_dir))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (run_dir / "spec.json").write_text(json.dumps(spec, indent=1) + "\n")
    return spec


def _write_lowrank_config(seed: int, p: dict, run_dir: Path) -> dict:
    config = {
        "schema_version": 1,
        # mdp seed 3 fixed: at this size pds beats no_share without PEVI
        # clamping to zero; the workload seed moves the sampled data only
        "mdp": {"kind": "lowrank", "num_states": p["num_states"], "num_actions": 4,
                "dim": 8, "gamma": 0.9, "seed": 3},
        "data": {"n0": [p["n0"]], "n1": [p["n1"]], "labeled_quality": "medium",
                 "unlabeled_quality": "expert", "noise": True},
        "methods": ["pds", "no_share"],
        "pevi": {"c": 0.02},
        "seeds": [seed],
        "output": str(run_dir / "results.csv"),
    }
    path = run_dir / "config.json"
    path.write_text(json.dumps(config, indent=1) + "\n")
    return {"config": str(path), "output": config["output"], "gamma": 0.9, "dim": 8,
            "r_max": 1.0, "n0": p["n0"], "n1": [p["n1"]], "seeds": [seed],
            "methods": config["methods"]}


def _line(s: int, a: int, r: float | None, sp: int) -> str:
    # byte-for-byte what json.dumps writes for the same record
    return f'{{"s": {s}, "a": {a}, "r": {"null" if r is None else repr(r)}, "sp": {sp}}}\n'


def _write_relabel_files(seed: int, p: dict, run_dir: Path) -> dict:
    rng = np.random.default_rng([seed, 20230227])
    S, A, d = p["num_states"], JSONL_ACTIONS, JSONL_DIM
    phi = rng.dirichlet(np.ones(d), size=(S, A))
    mu = rng.dirichlet(np.ones(S), size=d)
    theta = rng.uniform(0.0, 1.0, size=d)
    mdp = {"num_states": S, "num_actions": A, "dim": d, "gamma": 0.9, "r_max": 1.0,
           "phi": phi.ravel().tolist(), "mu": mu.ravel().tolist(),
           "theta": theta.tolist(), "init_dist": [1.0 / S] * S, "seed": seed,
           "feature_scale": 1.0}
    mdp_path = run_dir / "mdp.json"
    mdp_path.write_text(json.dumps(mdp) + "\n")

    reward = phi @ theta
    cum_p = np.cumsum(phi @ mu, axis=2)

    def draw(n: int, pair_weights: np.ndarray):
        pair = rng.choice(S * A, size=n, p=pair_weights / pair_weights.sum())
        s, a = pair // A, pair % A
        u = rng.random(n)
        sp = np.minimum((cum_p[s, a] <= u[:, None]).sum(axis=1), S - 1)
        r = np.clip(reward[s, a] + rng.uniform(-JSONL_NOISE, JSONL_NOISE, n), 0.0, 1.0)
        return s, a, r, sp

    labeled_path = run_dir / "labeled.jsonl"
    s, a, r, sp = draw(p["labeled_lines"], np.ones(S * A))
    with labeled_path.open("w") as fh:
        fh.writelines(_line(*row) for row in zip(s.tolist(), a.tolist(), r.tolist(), sp.tolist()))

    # the reward-free rows favour low-reward pairs, so the automatic penalty
    # weight resolves to k > 0 and the min-minus-k-sigma path is exercised
    raw_path = run_dir / "raw.jsonl"
    s, a, r, sp = draw(p["lines"], (1.0 - reward.ravel()) ** 2 + 0.01)
    keep = rng.random(p["lines"]) < JSONL_PASSTHROUGH_FRACTION
    with raw_path.open("w") as fh:
        fh.writelines(
            _line(si, ai, ri if ki else None, spi)
            for si, ai, ri, spi, ki in zip(s.tolist(), a.tolist(), r.tolist(),
                                           sp.tolist(), keep.tolist())
        )
    return {"mdp": str(mdp_path), "labeled": str(labeled_path), "raw": str(raw_path),
            "model": str(run_dir / "model.json"), "filled": str(run_dir / "filled.jsonl"),
            "ensemble_size": ENSEMBLE_SIZE, "r_max": 1.0, "lines": p["lines"],
            "passthrough": int(keep.sum())}
