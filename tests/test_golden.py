"""Golden equivalence: refactored code against the code it replaced.

The sampler must reproduce a plain per-step rollout bit for bit, coverage
must match one linear solve and one eigendecomposition per start state
(_min_generalized_eig, the per-start loop the coverage bases replaced),
solve_optimal's policy iteration must match the value iteration plus
policy-iteration polish it replaced (with per-state backups and dense
evaluations), evaluate_policy and occupancy_second_moments must match the
dense S x S solves their factored d x d solves replaced, the acceptance
sweep configs must reproduce their pinned CSVs (wall_ms stripped), and the
ridge estimators (PEVI, reward fit, ensemble) must reproduce their pinned
outputs in tests/golden/estimators.json. `python tests/test_golden.py` rewrites that
file from the installed pdslab; it was last rewritten when every Gram became
the Gram of the rows' visit counts, sum over pairs of n phi phi^T, and each
sum phi r came from per-pair reward sums: lambda_matrix moved by up to
1.59e-12 (lowrank-6/n=3000, now 2.3e-13 from the exactly rounded Lambda
where the row product was 1.8e-12 from it), every other float by at most
1.1e-13, and no integer. `python tests/test_golden.py --gate-hashes` prints
the sha256 of every equivalence-gate sweep CSV with wall_ms stripped and
flags each that differs from GATE_HASHES.
"""
import dataclasses
import json
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from conftest import chain_mdp, clipped_lowrank_mdp
from pdslab.cli import run_config
from pdslab.data import (
    SIGMA_RANGE_CUTOFF,
    OfflineDataset,
    _bases_of,
    coverage_coefficient,
    occupancy_second_moments,
    sample_dataset,
)
from pdslab.ensemble import fit_ensemble
from pdslab.mdp import (
    FeatureMap,
    LinearMdp,
    Policy,
    ValueReport,
    evaluate_policy,
    make_adversarial_mdp,
    make_lowrank_mdp,
    make_tabular_mdp,
    solve_optimal,
)
from pdslab.pevi import (
    PeviConfig,
    bonus_table,
    pevi_lockstep,
    pevi_problems,
    pevi_solve,
)
from pdslab.pipeline import (
    MethodId,
    PeviSettings,
    RewardSettings,
    SweepGrid,
    results_to_csv,
    sweep,
)
from pdslab.reward import deviation_table, fill_table, fit_reward, pessimistic_table
from pdslab.ridge import Ridge

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
    # 49 cumulative entries per kernel row: the sampler's blocked draw
    "lowrank-wide": lambda: make_lowrank_mdp(50, 3, dim=4, gamma=0.9, seed=7),
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


def _min_generalized_eig(m, sigma):
    """Largest C with m - C*sigma >= 0, restricted to range(sigma): one
    eigendecomposition of sigma per start state, as coverage_coefficient
    computed it before the per-sweep coverage bases."""
    w, u = np.linalg.eigh(sigma)
    keep = w > SIGMA_RANGE_CUTOFF
    if not keep.any():
        return np.inf
    basis = u[:, keep] / np.sqrt(w[keep])
    reduced = basis.T @ m @ basis
    return max(0.0, float(np.linalg.eigvalsh(reduced).min()))


def _reference_c_dagger(per_start):
    c = float(np.min(per_start))
    return max(0.0, c if np.isfinite(c) else np.inf)


@pytest.mark.parametrize("kind", sorted(MDPS))
def test_coverage_matches_per_start_state_solves(kind):
    mdp = MDPS[kind]()
    optimal = solve_optimal(mdp)[0]
    for seed, behavior in enumerate([optimal.mixed_with_uniform(0.3),
                                     Policy.uniform(mdp.num_states, mdp.num_actions)]):
        dataset = sample_dataset(mdp, behavior, 400, seed=seed)
        report = coverage_coefficient(dataset, mdp, optimal)
        sigmas = occupancy_second_moments(mdp, optimal)
        for s in range(mdp.num_states):
            sigma = _per_start_solve(mdp, optimal, s)
            assert np.allclose(sigmas[s], sigma,
                               rtol=0.0, atol=1e-12)
            want = _min_generalized_eig(report.gram, sigma)
            got = report.per_start_state_values[s]
            assert got == want or abs(got - want) <= 1e-12


# the MDPs the sweep configs and perfbench workloads run on, each with the
# size of the datasets it is sampled for
COVERAGE_MDPS = {
    "chain": (chain_mdp, 200),
    "lowrank-6": (lambda: make_lowrank_mdp(6, 3, dim=3, gamma=0.9, seed=4), 150),
    "lowrank-400": (lambda: make_lowrank_mdp(400, 4, dim=8, gamma=0.9, seed=3), 5000),
    "tabular": (lambda: make_tabular_mdp(6, 3, gamma=0.9, seed=2), 120),
    "adversarial-1": (lambda: make_adversarial_mdp(3, dim=1, gamma=0.9), 80),
    "adversarial-2": (lambda: make_adversarial_mdp(4, dim=2, gamma=0.9), 80),
}


@pytest.mark.parametrize("kind", sorted(COVERAGE_MDPS))
def test_coverage_bases_equal_per_start_loop(kind):
    """Per-start values, c_dagger and the Gram are the per-start loop's
    floats exactly, from the optimal policy and from prebuilt bases alike.
    The loop's Gram sums over the visited pairs, as coverage_coefficient
    does, and is within 1e-12 of the row product it stands for."""
    make, n = COVERAGE_MDPS[kind]
    mdp = make()
    optimal = solve_optimal(mdp)[0]
    sigmas = occupancy_second_moments(mdp, optimal)
    prebuilt = _bases_of(sigmas)
    # no Sigma eigenvalue crosses SIGMA_RANGE_CUTOFF against the dense solve
    dense = _bases_of(_reference_occupancy_second_moments(mdp, optimal))
    assert [(starts.tolist(), basis.shape) for starts, basis in prebuilt.groups] == \
        [(starts.tolist(), basis.shape) for starts, basis in dense.groups]
    behaviors = [optimal.mixed_with_uniform(0.3), Policy.uniform(mdp.num_states, mdp.num_actions)]
    for seed, behavior in enumerate(behaviors):
        dataset = sample_dataset(mdp, behavior, n, seed=seed)
        rows = mdp.features.matrix()
        counts = np.bincount(dataset.states * mdp.num_actions + dataset.actions,
                             minlength=len(rows))
        gram = (rows.T * counts) @ rows / len(dataset)
        phi = mdp.features.phi[dataset.states, dataset.actions]
        assert np.abs(gram - phi.T @ phi / len(dataset)).max() <= 1e-12 * np.abs(gram).max()
        want = [_min_generalized_eig(gram, sigma) for sigma in sigmas]
        for optimal_or_bases in (optimal, prebuilt):
            report = coverage_coefficient(dataset, mdp, optimal_or_bases)
            assert np.array_equal(report.gram, gram)
            assert report.per_start_state_values.tolist() == want
            assert report.c_dagger == _reference_c_dagger(want)


def test_coverage_bases_on_rank_deficient_and_rangeless_moments():
    """Starts of every rank, a zero moment and one whose only eigenvalue sits
    below SIGMA_RANGE_CUTOFF (both +inf), against the per-start loop."""
    rng = np.random.default_rng(0)
    d = 4
    sigmas = []
    for rank in (4, 0, 2, 1, 3, 2, 4, 1):
        x = rng.standard_normal((d, rank))
        sigmas.append(x @ x.T)
    tiny = np.zeros((d, d))
    tiny[0, 0] = SIGMA_RANGE_CUTOFF / 2
    sigmas = np.stack(sigmas + [tiny])
    mdp = make_lowrank_mdp(len(sigmas), 2, dim=d, seed=1)
    dataset = sample_dataset(mdp, Policy.uniform(mdp.num_states, 2), 60, seed=3)
    bases = _bases_of(sigmas)
    group_sizes = {basis.shape[2]: len(starts) for starts, basis in bases.groups}
    assert group_sizes == {1: 2, 2: 2, 3: 1, 4: 2}
    for ds in (dataset, OfflineDataset(dataset.states[:1], dataset.actions[:1], None,
                                       dataset.next_states[:1], labeled=False,
                                       num_states=mdp.num_states, num_actions=2)):
        report = coverage_coefficient(ds, mdp, bases)
        want = [_min_generalized_eig(report.gram, sigma) for sigma in sigmas]
        assert report.per_start_state_values.tolist() == want
        assert want[1] == want[-1] == np.inf
        assert report.c_dagger == _reference_c_dagger(want)

    # no start with any range: the constraint is vacuous everywhere
    rangeless = _bases_of(np.zeros((mdp.num_states, d, d)))
    report = coverage_coefficient(dataset, mdp, rangeless)
    assert rangeless.groups == ()
    assert np.all(report.per_start_state_values == np.inf) and report.c_dagger == np.inf
    with pytest.raises(ValueError, match="shape"):
        coverage_coefficient(dataset, make_lowrank_mdp(5, 2, dim=d, seed=1), bases)


def _reference_evaluate_policy(mdp, policy):
    """Exact evaluation by one dense S x S solve of (I - gamma P_pi) v = r_pi,
    as evaluate_policy computed it before the factored d x d solve, with the
    package's snap of rounding below 0."""
    p_pi = np.einsum("sa,sae->se", policy.probs, mdp.transitions)
    r_pi = np.einsum("sa,sa->s", policy.probs, mdp.rewards)
    v = np.linalg.solve(np.eye(mdp.num_states) - mdp.gamma * p_pi, r_pi)
    q = mdp.rewards + mdp.gamma * mdp.transitions @ v
    return ValueReport(v=np.clip(v, 0.0, None), q=np.clip(q, 0.0, None))


def _reference_occupancy_second_moments(mdp, policy):
    """Every start's Sigma from one dense adjoint solve against (1-gamma) I,
    as occupancy_second_moments computed it before the factored solve."""
    S, d = mdp.num_states, mdp.dim
    p_pi = np.einsum("sa,sae->se", policy.probs, mdp.transitions)
    kappa = np.linalg.solve(np.eye(S) - mdp.gamma * p_pi.T, (1.0 - mdp.gamma) * np.eye(S))
    phi = mdp.features.phi
    per_state = np.einsum("sa,sad,saf->sdf", policy.probs, phi, phi).reshape(S, d * d)
    return (kappa.T @ per_state).reshape(S, d, d)


def _reference_solve_optimal(mdp, tol=1e-10):
    """The oracle solve_optimal replaced: value iteration backing up P @ v
    state by state until its residual is below tol*(1-gamma)/(2*gamma), then
    a policy-iteration polish of at most 100 dense evaluations from the
    greedy policy of its q."""
    gamma, p, r = mdp.gamma, mdp.transitions, mdp.rewards
    threshold = np.inf if gamma == 0.0 else tol * (1.0 - gamma) / (2.0 * gamma)
    v = np.zeros(mdp.num_states)
    while True:
        q = r + gamma * (p @ v)
        v_new = q.max(axis=1)
        residual = np.abs(v_new - v).max()
        v = v_new
        if residual < threshold or gamma == 0.0:
            break
    policy = Policy.greedy(q)
    for _ in range(100):
        report = _reference_evaluate_policy(mdp, policy)
        improved = Policy.greedy(report.q)
        if np.array_equal(improved.probs, policy.probs):
            break
        policy = improved
    return policy, report


# random MDPs with A = 1 or an odd S >= 13, where a one-gemv value-iteration
# q once drifted from the per-state backup in its last bits
ORACLE_MDPS = {
    f"{kind}-S{S}-A{A}-g{gamma}": partial(make, S, A, gamma=gamma, seed=seed)
    for kind, make in (("tabular", make_tabular_mdp), ("lowrank", partial(make_lowrank_mdp, dim=5)))
    for seed, (S, A) in enumerate([(13, 1), (24, 1), (13, 3), (17, 2), (21, 4)])
    for gamma in (0.0, 0.5, 0.99)
}


def _far_reward_chain(num_states, gamma):
    """Deterministic chain with one-hot features: action 0 steps left, action
    1 steps right, and only the right end pays. Action 0 wins every
    zero-reward tie, so policy iteration from the reward-greedy policy
    learns the way right one state per evaluation."""
    S, A = num_states, 2
    mu = np.zeros((S * A, S))
    for s in range(S):
        mu[s * A, max(s - 1, 0)] = 1.0
        mu[s * A + 1, min(s + 1, S - 1)] = 1.0
    theta = np.zeros(S * A)
    theta[(S - 1) * A:] = 1.0
    return LinearMdp(FeatureMap(np.eye(S * A).reshape(S, A, S * A)), mu, theta,
                     gamma=gamma, r_max=1.0, init_dist=np.full(S, 1.0 / S))


ORACLE_MDPS.update({f"far-reward-chain-S150-g{gamma}": partial(_far_reward_chain, 150, gamma)
                    for gamma in (0.9, 0.99)})


def _assert_matches_dense(mdp, got, want):
    """Bit for bit where the MDP keeps no kernel factor (the package then runs
    the reference's dense solve), within 1e-12 where its d x d solve
    reorders the arithmetic."""
    for g, w in zip(got, want):
        if mdp._factor is None:
            assert np.array_equal(g, w)
        else:
            assert np.abs(g - w).max() <= 1e-12


@pytest.mark.parametrize("kind", sorted(COVERAGE_MDPS) + sorted(MDPS) + sorted(ORACLE_MDPS))
def test_solve_optimal_equals_per_state_backups(kind):
    mdp = COVERAGE_MDPS[kind][0]() if kind in COVERAGE_MDPS else {**MDPS, **ORACLE_MDPS}[kind]()
    (policy, report), (want_policy, want) = solve_optimal(mdp), _reference_solve_optimal(mdp)
    assert np.array_equal(policy.probs, want_policy.probs)
    _assert_matches_dense(mdp, (report.v, report.q), (want.v, want.q))


# lowrank MDPs that keep a kernel factor: S from 6 to 400, A = 1, odd S >= 13
FACTORED_MDPS = {
    "lowrank-6": lambda: make_lowrank_mdp(6, 3, dim=3, gamma=0.9, seed=4),
    "lowrank-13-A1": lambda: make_lowrank_mdp(13, 1, dim=5, gamma=0.99, seed=0),
    "lowrank-50": lambda: make_lowrank_mdp(50, 3, dim=4, gamma=0.9, seed=7),
    "lowrank-400": lambda: make_lowrank_mdp(400, 4, dim=8, gamma=0.9, seed=3),
}
# MDPs whose exact solves stay dense: d >= S, S = 1, or a kernel entry clipped
DENSE_MDPS = {
    "chain": chain_mdp,
    "tabular": lambda: make_tabular_mdp(7, 3, gamma=0.9, seed=11),
    "adversarial": lambda: make_adversarial_mdp(4, dim=2, gamma=0.9),
    "lowrank-clipped": clipped_lowrank_mdp,
}


@pytest.mark.parametrize("kind", sorted(FACTORED_MDPS) + sorted(DENSE_MDPS))
def test_exact_solves_match_dense_reference(kind):
    mdp = {**FACTORED_MDPS, **DENSE_MDPS}[kind]()
    assert (mdp._factor is None) == (kind in DENSE_MDPS)
    optimal = _reference_solve_optimal(mdp)[0]
    assert np.array_equal(solve_optimal(mdp)[0].probs, optimal.probs)
    for policy in (optimal, Policy.uniform(mdp.num_states, mdp.num_actions),
                   _random_policy(mdp, mdp.num_states)):
        got, want = evaluate_policy(mdp, policy), _reference_evaluate_policy(mdp, policy)
        _assert_matches_dense(mdp, (got.v, got.q, occupancy_second_moments(mdp, policy)),
                              (want.v, want.q, _reference_occupancy_second_moments(mdp, policy)))


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


def _assert_matches_golden(csv_text, name):
    """csv_text, its wall_ms column stripped, against tests/golden/<name>.csv:
    numeric columns within 1e-12, every other column exactly."""
    got = [line.rsplit(",", 1)[0].split(",") for line in csv_text.splitlines()]
    want = [line.split(",") for line in (GOLDEN / f"{name}.csv").read_text().splitlines()]
    assert got[0] == want[0] and len(got) == len(want)
    for got_row, want_row in zip(got[1:], want[1:]):
        for column, g, w in zip(want[0], got_row, want_row):
            if column in NUMERIC_COLUMNS:
                assert abs(float(g) - float(w)) <= 1e-12, (column, g, w)
            else:
                assert g == w, (column, g, w)


@pytest.mark.parametrize("name", sorted(SWEEP_CONFIGS))
def test_sweep_csv_matches_golden(name, tmp_path):
    out = tmp_path / "results.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(SWEEP_CONFIGS[name], output=str(out))))
    assert run_config(cfg) == 0
    _assert_matches_golden(out.read_text(), name)


CHAIN_GRID = SweepGrid(n0_values=(200,), n1_values=(0, 2000, 20000), methods=(MethodId.PDS,),
                       seeds=tuple(range(50)), labeled_quality="medium",
                       unlabeled_quality="medium", reward=RewardSettings(),
                       pevi=PeviSettings(c=0.02))


def test_chain_sweep_matches_golden():
    """tests/golden/chain.csv holds the test_05 grid (more shared data on
    the four-state chain) as the sweep gave it before its cells were
    prepared in batched stages. Its n1 = 0, 2000 and 20000 columns run in
    one, two and seventeen batches of cells. The n1 = 20000 column's
    vhat_start was re-pinned when B and the reward sums came from
    transition counts (see the test below)."""
    report = sweep(chain_mdp(), CHAIN_GRID)
    assert not report.failures
    _assert_matches_golden(results_to_csv(report.results), "chain")


@pytest.mark.parametrize("seed", range(3))
def test_chain_vhat_start_matches_exactly_summed_problem(seed):
    """A cell of the chain golden's n1 = 20000 column against PEVI on the
    same Lambda and bonus with B and the per-pair reward sums exactly
    rounded (math.fsum over the 20200 rows): vhat_start agrees within 1e-13.
    Summed row by row, as before, it was up to 2.7e-12 off."""
    from pdslab.pipeline import _cell_seeds, behavior_policy, run_method

    mdp = chain_mdp()
    features, rows = mdp.features, mdp.features.matrix()
    oracle = solve_optimal(mdp)
    behavior = behavior_policy(mdp, "medium", oracle[0])
    d0_seed, d1_seed = _cell_seeds(seed, 200, 20000, CHAIN_GRID)
    d0 = sample_dataset(mdp, behavior, 200, seed=d0_seed)
    d1 = sample_dataset(mdp, behavior, 20000, seed=d1_seed, labeled=False)
    row = run_method(mdp, d0, d1, MethodId.PDS, CHAIN_GRID.reward, CHAIN_GRID.pevi, seed, oracle)

    fill = fill_table(fit_reward(d0, features, r_max=mdp.r_max), features, "pds").reshape(-1)
    pairs = np.concatenate([d0.pair_ids(features), d1.pair_ids(features)])
    next_states = np.concatenate([d0.next_states, d1.next_states])
    rewards = np.concatenate([d0.rewards, fill[d1.pair_ids(features)]])
    sums = np.array([math.fsum(rewards[pairs == p]) for p in range(rows.shape[0])])
    next_sums = np.array([[math.fsum(column[pairs[next_states == s]])
                           for s in range(mdp.num_states)] for column in rows.T])
    config = CHAIN_GRID.pevi.config_for(mdp, len(pairs))
    counts = d0.counts(features).union(d1.counts(features))
    (problem,) = pevi_problems(features, counts, [sums], config)
    exact = dataclasses.replace(
        problem, sweep_map=config.gamma * Ridge(problem.lambda_matrix).solve(next_sums))
    (solution,) = pevi_lockstep([exact], features)
    assert abs(row.v_hat_start - float(mdp.init_dist @ solution.v_hat)) <= 1e-13


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
    # the Bellman ridge regression of r + gamma * v(s') at one fixed v
    (regress,) = pevi_problems(feats, ds.counts(feats), [ds.counts(feats).reward_sums],
                               PeviConfig(lambda_reg=0.5, beta=0.0, gamma=mdp.gamma,
                                          v_max=cfg.v_max))
    empty = fit_reward(OfflineDataset([], [], [], [], labeled=True, num_states=mdp.num_states,
                                      num_actions=mdp.num_actions), feats, nu=2.0)
    out = {
        "q_hat": sol.q_hat,
        "w_hat": sol.w_hat,
        "lambda_matrix": sol.lambda_matrix,
        "sweeps_used": sol.sweeps_used,
        "converged": sol.converged,
        "policy": np.argmax(sol.policy.probs, axis=1),
        "bellman_regress": regress.w_reward
        + regress.sweep_map @ np.linspace(0.0, cfg.v_max, mdp.num_states),
        "bonus_table": bonus_table(sol.lambda_matrix, feats, 0.3),
        "uncertainty_bonus": bonus_table(sol.lambda_matrix, feats, 0.3)[last],
        "theta_hat": model.theta_hat,
        "deviation_table": deviation_table(model, feats),
        "reward_deviation": deviation_table(model, feats)[last],
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



REWARD_FIT_KEYS = ("theta_hat", "deviation_table", "reward_deviation", "pessimistic_table",
                   "empty_theta_hat", "empty_deviation_table")


@pytest.mark.parametrize("case", ESTIMATOR_CASES)
def test_reward_fit_matches_golden_bit_for_bit(case, estimator_golden):
    """The reward fit hands its factored Lambda to the model instead of
    refactoring it, so its outputs are the pinned floats exactly."""
    got_all = _estimator_outputs(case)
    for key in REWARD_FIT_KEYS:
        assert np.array_equal(got_all[key], estimator_golden[case][key]), key


# sha256 of each equivalence-gate CSV with its wall_ms column stripped from
# every line, as recorded in CHANGES.md. They record one BLAS kernel's
# rounding, so `--gate-hashes` checks them on demand, not a test.
GATE_HASHES = {
    "golden tabular": "d7923abf90caaf5913f3c597d928766e8391e9169a6f10d654f158ae043257fd",
    "golden lowrank": "9d9c0960960c19c85808a4729a7e0fdd11a7cb8b94cd6dc01f373ba3359ca0b3",
    "golden adversarial": "7a3b7d652ede24b4c3dd027c58427b7d81398d9c78d6e63563ab5aecc89f2f95",
    "README config": "f9ebe86227bcc8c4d1e63d493571d70b58d57fe6970ba68722a22b24cee3b12b",
    "README grid, five methods, seeds 0-19":
        "0ffab346d7f07d22cf1e055d32f3ed6134131c8daf191356be8d5f053b50a538",
    "chain_sweep seed 0": "4e028abd411127b9e7b1921e85d5b59983fbd95a079ecf5d99bd51939df14046",
    "chain_sweep seed 1": "71f45fd2e2df64dcaa70a73ca6d7530ba818590310feaae7eebe43d3b252247a",
    "chain_sweep seed 2": "818b94c5b3ed5535f31ab0893a1566fdcd8e14a7f5e55e0802bc91bc3c7824a7",
    "large_lowrank seed 0": "7865f0ae9aade4334c3e9a04b7daf31e328fec8243915794789ab95bdc1f9acf",
}


def _gate_csvs(tmp):
    """(name, CSV text) of each equivalence gate, in GATE_HASHES order: the
    golden sweep configs, the README config and its grid with every method
    and seeds 0-19, and perfbench's chain_sweep and large_lowrank inputs,
    written into the directory tmp."""
    import contextlib
    import io
    import re
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import inputs  # perfbench's seeded workload inputs
    import workloads

    def run(name, config):
        out = tmp / f"{name}.csv"
        cfg = tmp / f"{name}.json"
        cfg.write_text(json.dumps(dict(config, output=str(out))))
        with contextlib.redirect_stdout(io.StringIO()):
            if run_config(cfg) != 0:
                raise RuntimeError(f"the {name} sweep failed")
        return out.read_text()

    for name in ("tabular", "lowrank", "adversarial"):
        yield f"golden {name}", run(name, SWEEP_CONFIGS[name])
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cli = readme.split("## CLI\n", 1)[1].split("\n## ", 1)[0]
    config = json.loads(re.findall(r"```json\n(.*?)```", cli, flags=re.S)[0])
    yield "README config", run("readme", config)
    yield "README grid, five methods, seeds 0-19", run(
        "readme-grid", dict(config, methods=[m.value for m in MethodId], seeds=list(range(20))))
    for seed in range(3):
        spec = inputs.prepare("chain_sweep", seed, "full", tmp / f"chain-{seed}")
        yield f"chain_sweep seed {seed}", workloads.ChainSweep(spec).call()[1]
    spec = inputs.prepare("large_lowrank", 0, "full", tmp / "large")
    yield "large_lowrank seed 0", run("large", json.loads(Path(spec["config"]).read_text()))


def _print_gate_hashes() -> int:
    """Print the sha256 of each gate CSV with wall_ms stripped, flagging each
    that differs from GATE_HASHES; 1 if any does."""
    import hashlib
    import tempfile

    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in _gate_csvs(Path(tmp)):
            stripped = "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())
            digest = hashlib.sha256(stripped.encode()).hexdigest()
            same = digest == GATE_HASHES[name]
            differ += not same
            print(f"{digest}  {name}{'' if same else '  DIFFERS from ' + GATE_HASHES[name]}")
    return 1 if differ else 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Rewrite tests/golden/estimators.json "
                                     "from the installed pdslab, or check the gate CSVs.")
    parser.add_argument("--gate-hashes", action="store_true",
                        help="print the sha256 of every equivalence-gate CSV with wall_ms "
                             "stripped and exit 1 if any differs from GATE_HASHES")
    if parser.parse_args().gate_hashes:
        raise SystemExit(_print_gate_hashes())
    lines = [f"{json.dumps(case)}: {json.dumps(_estimator_outputs(case))}"
             for case in ESTIMATOR_CASES]
    (GOLDEN / "estimators.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
