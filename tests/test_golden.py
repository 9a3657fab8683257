"""Golden equivalence: refactored code against the code it replaced.

The sampler must reproduce a plain per-step rollout bit for bit, coverage
must match one linear solve per start state, the acceptance sweep configs
must reproduce their pinned CSVs (wall_ms stripped), and the ridge
estimators (PEVI, reward fit, ensemble) must reproduce their pinned outputs
in tests/golden/estimators.json. `python tests/test_golden.py` rewrites that
file from the installed pdslab; it was generated before the ridge solves
moved into pdslab.ridge.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from pdslab.cli import run_config
from pdslab.data import (
    OfflineDataset,
    _min_generalized_eig,
    coverage_coefficient,
    occupancy_second_moment,
    sample_dataset,
)
from pdslab.ensemble import fit_ensemble
from pdslab.mdp import (
    Policy,
    make_adversarial_mdp,
    make_lowrank_mdp,
    make_tabular_mdp,
    solve_optimal,
)
from pdslab.pevi import PeviConfig, bellman_regress, bonus_table, pevi_solve, uncertainty_bonus
from pdslab.reward import deviation_table, fit_reward, pessimistic_table, reward_deviation

GOLDEN = Path(__file__).parent / "golden"


def _reference_rollout(mdp, behavior, n, horizon_reset, seed, noise):
    """One transition at a time, one searchsorted per draw, on the same
    random streams as sample_dataset."""
    sigma = (0.1 * mdp.r_max if noise is True else float(noise)) if noise else 0.0
    rng = np.random.default_rng(seed)
    reset_u = rng.random(-(-n // horizon_reset))
    step_u = rng.random((n, 2))

    def draw(cumulative, u):
        return min(int(np.searchsorted(cumulative, u, side="right")), cumulative.shape[0] - 1)

    cum_init = np.cumsum(mdp.init_dist)
    cum_pi = np.cumsum(behavior.probs, axis=1)
    cum_p = np.cumsum(mdp.transitions, axis=2)
    states, actions, next_states = (np.empty(n, dtype=np.int64) for _ in range(3))
    s = 0
    for t in range(n):
        if t % horizon_reset == 0:
            s = draw(cum_init, reset_u[t // horizon_reset])
        a = draw(cum_pi[s], step_u[t, 0])
        sp = draw(cum_p[s, a], step_u[t, 1])
        states[t], actions[t], next_states[t] = s, a, sp
        s = sp
    rewards = mdp.rewards[states, actions].copy()
    if sigma > 0:
        rewards = np.clip(rewards + rng.uniform(-sigma, sigma, size=n), 0.0, mdp.r_max)
    return states, actions, next_states, rewards


MDPS = {
    "tabular": lambda: make_tabular_mdp(7, 3, gamma=0.9, seed=11),
    "lowrank": lambda: make_lowrank_mdp(9, 4, dim=3, gamma=0.95, seed=5),
    "adversarial": lambda: make_adversarial_mdp(4, dim=2, gamma=0.9),
}


def _random_policy(mdp, seed):
    probs = np.random.default_rng(seed).random((mdp.num_states, mdp.num_actions))
    return Policy(probs / probs.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("kind", sorted(MDPS))
@pytest.mark.parametrize(
    "n,horizon_reset,noise",
    [
        (1000, 100, False),  # whole segments
        (1037, 100, False),  # partial last segment
        (263, 7, True),      # partial last segment, default noise scale
        (50, 1, 0.05),       # reset every step, explicit noise half-width
        (1, 1, False),
        (1, 100, True),
        (40, 500, False),    # one segment, shorter than its horizon
    ],
)
def test_sampler_matches_scalar_rollout(kind, n, horizon_reset, noise):
    mdp = MDPS[kind]()
    behavior = _random_policy(mdp, n + horizon_reset)
    for seed in (0, 1, 2**40 + 3):
        want = _reference_rollout(mdp, behavior, n, horizon_reset, seed, noise)
        got = sample_dataset(mdp, behavior, n, horizon_reset=horizon_reset,
                             labeled=True, seed=seed, noise=noise)
        for name, expected in zip(("states", "actions", "next_states", "rewards"), want):
            assert np.array_equal(getattr(got, name), expected), name
        unlabeled = sample_dataset(mdp, behavior, n, horizon_reset=horizon_reset,
                                   labeled=False, seed=seed)
        assert unlabeled.rewards is None
        assert np.array_equal(unlabeled.next_states, want[2])


def _per_start_solve(mdp, policy, start_state):
    """Sigma_{pi,s} from its own occupancy solve."""
    p_pi = np.einsum("sa,sae->se", policy.probs, mdp.transitions)
    e = np.zeros(mdp.num_states)
    e[start_state] = 1.0 - mdp.gamma
    kappa = np.linalg.solve(np.eye(mdp.num_states) - mdp.gamma * p_pi.T, e)
    phi = mdp.features.phi
    return np.tensordot(kappa, np.einsum("sa,sad,saf->sdf", policy.probs, phi, phi), axes=1)


@pytest.mark.parametrize("kind", sorted(MDPS))
def test_coverage_matches_per_start_state_solves(kind):
    mdp = MDPS[kind]()
    optimal = solve_optimal(mdp)[0]
    for seed, behavior in enumerate([optimal.mixed_with_uniform(0.3),
                                     Policy.uniform(mdp.num_states, mdp.num_actions)]):
        dataset = sample_dataset(mdp, behavior, 400, seed=seed)
        report = coverage_coefficient(dataset, mdp, optimal)
        for s in range(mdp.num_states):
            sigma = _per_start_solve(mdp, optimal, s)
            assert np.allclose(occupancy_second_moment(mdp, optimal, s), sigma,
                               rtol=0.0, atol=1e-12)
            want = _min_generalized_eig(report.gram, sigma)
            got = report.per_start_state_values[s]
            assert got == want or abs(got - want) <= 1e-12


# the three test_11 acceptance configs; tests/golden/<name>.csv holds the
# sweep output they produced before the data layer was vectorized
SWEEP_CONFIGS = {
    "tabular": {
        "schema_version": 1,
        "mdp": {"kind": "tabular", "num_states": 6, "num_actions": 3,
                "gamma": 0.9, "r_max": 1.0, "seed": 2},
        "data": {"n0": [120], "n1": [0, 50], "labeled_quality": "medium",
                 "unlabeled_quality": "expert", "noise": True},
        "methods": ["no_share", "uds"],
        "seeds": [0, 1, 2],
    },
    "lowrank": {
        "schema_version": 1,
        "mdp": {"kind": "lowrank", "num_states": 6, "num_actions": 3,
                "dim": 3, "gamma": 0.9, "r_max": 1.0, "seed": 4},
        "data": {"n0": [150], "n1": [0, 100], "labeled_quality": "medium",
                 "unlabeled_quality": "expert", "noise": False},
        "methods": ["pds", "uds", "reward_predict", "oracle", "no_share"],
        "reward": {"nu": 2.0},
        "pevi": {"c": 0.02},
        "seeds": [0, 1],
    },
    "adversarial": {
        "schema_version": 1,
        "mdp": {"kind": "adversarial", "num_actions": 3, "dim": 1,
                "gamma": 0.9, "r_max": 1.0},
        "data": {"n0": [80], "n1": [40], "labeled_quality": "random",
                 "unlabeled_quality": "expert"},
        "methods": ["pds", "reward_predict"],
        "pevi": {"beta_override": 0.5},
        "seeds": [5, 6],
    },
}
NUMERIC_COLUMNS = {"c0", "c1", "gamma", "subopt_mean", "subopt_max", "vhat_start"}


@pytest.mark.parametrize("name", sorted(SWEEP_CONFIGS))
def test_sweep_csv_matches_golden(name, tmp_path):
    out = tmp_path / "results.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(SWEEP_CONFIGS[name], output=str(out))))
    assert run_config(cfg) == 0

    got = [line.rsplit(",", 1)[0].split(",") for line in out.read_text().splitlines()]
    want = [line.split(",") for line in (GOLDEN / f"{name}.csv").read_text().splitlines()]
    assert got[0] == want[0] and len(got) == len(want)
    for got_row, want_row in zip(got[1:], want[1:]):
        for column, g, w in zip(want[0], got_row, want_row):
            if column in NUMERIC_COLUMNS:
                assert abs(float(g) - float(w)) <= 1e-12, (column, g, w)
            else:
                assert g == w, (column, g, w)


# seeded small MDPs of each kind and the dataset sizes the estimator pins use
ESTIMATOR_MDPS = {
    "tabular-3": lambda: make_tabular_mdp(4, 2, gamma=0.9, seed=3),
    "tabular-8": lambda: make_tabular_mdp(3, 3, gamma=0.8, seed=8),
    "lowrank-1": lambda: make_lowrank_mdp(6, 3, dim=3, gamma=0.9, seed=1),
    "lowrank-6": lambda: make_lowrank_mdp(5, 2, dim=2, gamma=0.95, seed=6),
    "adversarial-2": lambda: make_adversarial_mdp(3, dim=2, gamma=0.9),
    "adversarial-1": lambda: make_adversarial_mdp(2, dim=1, gamma=0.8),
}
ESTIMATOR_SIZES = (1, 50, 3000)
ESTIMATOR_CASES = [f"{name}/n={n}" for name in ESTIMATOR_MDPS for n in ESTIMATOR_SIZES]


def _estimator_outputs(case):
    name, n = case.split("/n=")
    mdp, n = ESTIMATOR_MDPS[name](), int(n)
    feats, last = mdp.features, (mdp.num_states - 1, mdp.num_actions - 1)
    ds = sample_dataset(mdp, _random_policy(mdp, n), n, seed=n, noise=True)
    cfg = PeviConfig.for_mdp(mdp.gamma, mdp.r_max, beta=0.05)
    sol = pevi_solve(ds, feats, cfg)
    model = fit_reward(ds, feats, nu=2.0)
    empty = fit_reward(OfflineDataset([], [], [], [], labeled=True, num_states=mdp.num_states,
                                      num_actions=mdp.num_actions), feats, nu=2.0)
    out = {
        "q_hat": sol.q_hat,
        "w_hat": sol.w_hat,
        "lambda_matrix": sol.lambda_matrix,
        "sweeps_used": sol.sweeps_used,
        "converged": sol.converged,
        "policy": np.argmax(sol.policy.probs, axis=1),
        "bellman_regress": bellman_regress(
            ds, feats, np.linspace(0.0, cfg.v_max, mdp.num_states), 0.5, mdp.gamma),
        "bonus_table": bonus_table(sol.lambda_matrix, feats, 0.3),
        "uncertainty_bonus": uncertainty_bonus(sol.lambda_matrix, feats, 0.3, *last),
        "theta_hat": model.theta_hat,
        "deviation_table": deviation_table(model, feats),
        "reward_deviation": reward_deviation(model, feats, *last),
        "pessimistic_table": pessimistic_table(model, feats),
        "empty_theta_hat": empty.theta_hat,
        "empty_deviation_table": deviation_table(empty, feats),
        "members": fit_ensemble(ds, feats, ensemble_size=4, seed=n).members,
    }
    return {key: np.asarray(value).tolist() for key, value in out.items()}


@pytest.fixture(scope="module")
def estimator_golden():
    return json.loads((GOLDEN / "estimators.json").read_text())


@pytest.mark.parametrize("case", ESTIMATOR_CASES)
def test_estimators_match_golden(case, estimator_golden):
    want_all = estimator_golden[case]
    got_all = _estimator_outputs(case)
    assert sorted(got_all) == sorted(want_all)
    for key, want in want_all.items():
        got, want = np.asarray(got_all[key]), np.asarray(want)
        assert got.shape == want.shape, key
        if want.dtype.kind in "biu":
            assert np.array_equal(got, want), (key, got, want)
        else:
            assert np.abs(got - want).max() <= 1e-12, (key, got, want)


if __name__ == "__main__":
    lines = [f"{json.dumps(case)}: {json.dumps(_estimator_outputs(case))}"
             for case in ESTIMATOR_CASES]
    (GOLDEN / "estimators.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
