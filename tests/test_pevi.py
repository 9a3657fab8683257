"""Pessimistic value iteration: regression pieces, bonuses, and the solver."""
import dataclasses
import math

import numpy as np
import pytest
from conftest import chain_mdp, exhaustive_dataset, quantize_transitions
from hypothesis import given, settings
from hypothesis import strategies as st

from pdslab.data import (
    OfflineDataset,
    mix_datasets,
    sample_dataset,
)
from pdslab.mdp import (
    FeatureMap,
    Policy,
    evaluate_policy,
    make_adversarial_mdp,
    make_lowrank_mdp,
    make_tabular_mdp,
    solve_optimal,
)
from pdslab.pevi import (
    PeviConfig,
    next_state_sums,
    pevi_lockstep,
    pevi_problems,
    pevi_solve,
    theorem_beta,
)
from pdslab.ridge import Ridge


def _uniform_data(mdp, n, seed=0, labeled=True):
    pi = Policy.uniform(mdp.num_states, mdp.num_actions)
    return sample_dataset(mdp, pi, n=n, seed=seed, labeled=labeled)


def _prepared(ds, features, lambda_reg, gamma=0.0, beta=0.0):
    cfg = PeviConfig(lambda_reg=lambda_reg, beta=beta, gamma=gamma, v_max=1.0)
    counts = ds.counts(features)
    (problem,) = pevi_problems(features, counts, [counts.reward_sums], cfg)
    return problem


def _gram(ds, features, lambda_reg):
    """lambda_reg * I + sum of phi phi^T over the dataset rows."""
    return _prepared(ds, features, lambda_reg).lambda_matrix


def _bonus(ds, features, lambda_reg, beta):
    """PEVI's bonus table beta * sqrt(phi^T Lambda^{-1} phi), shape (S, A)."""
    return _prepared(ds, features, lambda_reg, beta=beta).bonus


def _regress(ds, features, v, lambda_reg, gamma):
    """Ridge solution for the Bellman targets r + gamma * v(s')."""
    problem = _prepared(ds, features, lambda_reg, gamma)
    return problem.w_reward + problem.sweep_map @ v


# ---------------------------------------------------------------- gram matrix


def test_gram_zero_features_is_ridge_only():
    feats = FeatureMap(np.zeros((1, 2, 3)))
    ds = OfflineDataset([0, 0, 0], [0, 1, 0], [0.0, 0.0, 0.0], [0, 0, 0],
                        labeled=True, num_states=1, num_actions=2)
    assert np.array_equal(_gram(ds, feats, 0.5), 0.5 * np.eye(3))


def test_gram_repeated_unit_vector_spectrum():
    phi = np.zeros((1, 1, 2))
    phi[0, 0] = [0.6, 0.8]
    feats = FeatureMap(phi)
    n = 7
    ds = OfflineDataset([0] * n, [0] * n, [0.0] * n, [0] * n,
                        labeled=True, num_states=1, num_actions=1)
    lam = _gram(ds, feats, 2.0)
    eigs = np.sort(np.linalg.eigvalsh(lam))
    assert np.allclose(eigs, [2.0, 2.0 + n], atol=1e-12)


def test_gram_matches_two_pass_accumulation():
    mdp = make_lowrank_mdp(6, 3, dim=3, seed=4)
    ds = _uniform_data(mdp, 150, seed=1)
    lam = _gram(ds, mdp.features, 1.3)
    acc = 1.3 * np.eye(3)
    for s, a in zip(reversed(ds.states), reversed(ds.actions)):
        phi = mdp.features.phi[s, a]
        acc = acc + np.outer(phi, phi)
    assert np.abs(lam - acc).max() < 1e-12


def test_gram_argument_errors():
    mdp = make_lowrank_mdp(4, 2, dim=2, seed=0)
    empty = OfflineDataset([], [], [], [], labeled=True, num_states=4, num_actions=2)
    with pytest.raises(ValueError, match="nonempty"):
        pevi_solve(empty, mdp.features, PeviConfig(lambda_reg=1.0, beta=0.0, gamma=0.0, v_max=1.0))
    ds = _uniform_data(mdp, 5)
    with pytest.raises(ValueError, match="lambda_reg"):
        _gram(ds, mdp.features, 0.0)


# ------------------------------------------------------------- regression step


def test_regress_zero_targets_gives_zero_weights():
    mdp = make_lowrank_mdp(5, 2, dim=2, seed=3)
    ds = _uniform_data(mdp, 20, seed=0)
    ds = ds.with_rewards(np.zeros(20))
    w = _regress(ds, mdp.features, np.zeros(5), lambda_reg=1.0, gamma=0.9)
    assert np.array_equal(w, np.zeros(2))


def test_regress_onehot_scalar_ridge():
    mdp = make_tabular_mdp(3, 2, gamma=0.8, seed=1)
    n, (s, a, sp) = 6, (2, 1, 0)
    r = 0.4
    ds = OfflineDataset([s] * n, [a] * n, [r] * n, [sp] * n,
                        labeled=True, num_states=3, num_actions=2)
    v = np.array([0.5, 1.0, 2.0])
    lam_reg = 0.7
    w = _regress(ds, mdp.features, v, lambda_reg=lam_reg, gamma=0.8)
    idx = int(np.argmax(mdp.features.phi[s, a]))
    expect = n * (r + 0.8 * v[sp]) / (lam_reg + n)
    assert w[idx] == pytest.approx(expect, abs=1e-12)
    mask = np.ones(6, dtype=bool)
    mask[idx] = False
    assert np.all(w[mask] == 0.0)


def test_regress_matches_dense_inverse_oracle():
    mdp = make_lowrank_mdp(7, 3, dim=3, seed=8)
    ds = _uniform_data(mdp, 120, seed=2)
    rng = np.random.default_rng(5)
    v = rng.uniform(0.0, 5.0, size=7)
    w = _regress(ds, mdp.features, v, lambda_reg=0.9, gamma=0.95)

    lam = 0.9 * np.eye(3)
    rhs = np.zeros(3)
    for s, a, r, sp in zip(ds.states, ds.actions, ds.rewards, ds.next_states):
        phi = mdp.features.phi[s, a]
        lam += np.outer(phi, phi)
        rhs += phi * (r + 0.95 * v[sp])
    assert np.abs(w - np.linalg.inv(lam) @ rhs).max() < 1e-10


def test_regress_argument_errors():
    mdp = make_lowrank_mdp(4, 2, dim=2, seed=0)
    unlab = _uniform_data(mdp, 5, labeled=False)
    cfg = PeviConfig(lambda_reg=1.0, beta=0.0, gamma=0.9, v_max=10.0)
    for ds in (unlab, mix_datasets(_uniform_data(mdp, 5), unlab)):
        with pytest.raises(ValueError, match="fully labeled"):
            pevi_solve(ds, mdp.features, cfg)


@pytest.mark.parametrize("rewards,match", [(None, "nonempty")])
def test_prepare_rejects_bad_reward_vectors(rewards, match):
    """A dataset's own rewards are all PEVI reads of them, and an empty
    dataset has none to solve on."""
    empty = OfflineDataset([], [], rewards, [], labeled=False, num_states=4, num_actions=2)
    cfg = PeviConfig(lambda_reg=1.0, beta=0.0, gamma=0.9, v_max=10.0)
    with pytest.raises(ValueError, match=match):
        pevi_solve(empty, make_lowrank_mdp(4, 2, dim=2, seed=0).features, cfg)


def test_weight_norm_bound_on_every_sweep():
    # ||w|| <= v_max * sqrt(N d / lambda) must hold at each sweep; the solver
    # is deterministic, so truncated runs expose the per-sweep iterates
    mdp = make_lowrank_mdp(6, 3, dim=2, gamma=0.9, seed=12)
    ds = _uniform_data(mdp, 80, seed=3)
    bound = mdp.v_max * np.sqrt(len(ds) * 2 / 0.5)
    for k in range(1, 7):
        cfg = PeviConfig(lambda_reg=0.5, beta=0.3, gamma=0.9, v_max=mdp.v_max,
                         tol=1e-300, max_sweeps=k)
        sol = pevi_solve(ds, mdp.features, cfg)
        assert sol.sweeps_used == k
        assert np.linalg.norm(sol.w_hat) <= bound * (1 + 1e-9)


# ------------------------------------------------------------------- bonuses


def test_bonus_zero_beta():
    mdp = make_lowrank_mdp(4, 2, dim=2, seed=0)
    ds = _uniform_data(mdp, 10)
    assert np.all(_bonus(ds, mdp.features, 1.0, 0.0) == 0.0)
    for beta in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="beta"):
            _bonus(ds, mdp.features, 1.0, beta)


def test_bonus_identity_gram_unit_feature():
    phi = np.zeros((1, 1, 2))
    phi[0, 0] = [0.6, 0.8]
    feats = FeatureMap(phi)
    empty = OfflineDataset([], [], [], [], labeled=True, num_states=1, num_actions=1)
    got = _bonus(empty, feats, 2.5, 1.7)[0, 0]  # Lambda = 2.5 * I
    assert got == pytest.approx(1.7 / np.sqrt(2.5), abs=1e-12)


def test_bonus_shrinks_when_dataset_doubles():
    mdp = make_lowrank_mdp(6, 3, dim=3, seed=6)
    ds = _uniform_data(mdp, 40, seed=1)
    doubled = mix_datasets(ds, ds)
    small = _bonus(ds, mdp.features, 1.0, 2.0)
    big = _bonus(doubled, mdp.features, 1.0, 2.0)
    assert np.all(big <= small + 1e-12)
    assert big.min() < small.min()


def test_bonus_invariant_under_permutation():
    mdp = make_lowrank_mdp(5, 3, dim=2, seed=9)
    ds = _uniform_data(mdp, 60, seed=4)
    perm = np.random.default_rng(0).permutation(60)
    shuffled = OfflineDataset(
        ds.states[perm], ds.actions[perm], ds.rewards[perm], ds.next_states[perm],
        labeled=True, num_states=5, num_actions=3,
    )
    a = _bonus(ds, mdp.features, 1.0, 1.0)
    b = _bonus(shuffled, mdp.features, 1.0, 1.0)
    assert np.abs(a - b).max() < 1e-12


# ------------------------------------------------------------------ the solver


def test_solver_exact_frequencies_recover_optimal_values():
    base = make_tabular_mdp(4, 2, gamma=0.9, seed=7)
    mdp = quantize_transitions(base, 20)
    ds = exhaustive_dataset(mdp, visits_per_pair=20)
    cfg = PeviConfig(lambda_reg=1e-8, beta=0.0, gamma=0.9, v_max=mdp.v_max)
    sol = pevi_solve(ds, mdp.features, cfg)
    exact = solve_optimal(mdp)[1]
    assert sol.converged
    assert np.abs(sol.v_hat - exact.v).max() < 1e-4


def test_solver_huge_beta_collapses_to_zero():
    mdp = make_lowrank_mdp(5, 3, dim=2, gamma=0.9, seed=2)
    ds = _uniform_data(mdp, 50, seed=0)
    cfg = PeviConfig(lambda_reg=1.0, beta=1e9, gamma=0.9, v_max=mdp.v_max)
    sol = pevi_solve(ds, mdp.features, cfg)
    assert np.all(sol.q_hat == 0.0) and np.all(sol.v_hat == 0.0)
    assert sol.converged and sol.sweeps_used == 1
    assert np.array_equal(np.argmax(sol.policy.probs, axis=1), np.zeros(5, dtype=int))


def test_solver_flags_non_convergence():
    mdp = make_lowrank_mdp(5, 2, dim=2, gamma=0.95, seed=3)
    ds = _uniform_data(mdp, 60, seed=1)
    cfg = PeviConfig(lambda_reg=1.0, beta=0.0, gamma=0.95, v_max=mdp.v_max,
                     max_sweeps=1)
    sol = pevi_solve(ds, mdp.features, cfg)
    assert not sol.converged
    assert sol.sweeps_used == 1


def test_solver_solution_invariants():
    mdp = make_lowrank_mdp(6, 3, dim=3, gamma=0.9, seed=15)
    ds = _uniform_data(mdp, 90, seed=5)
    cfg = PeviConfig(lambda_reg=1.0, beta=1.5, gamma=0.9, v_max=mdp.v_max)
    sol = pevi_solve(ds, mdp.features, cfg)
    assert np.all(sol.v_hat >= 0.0) and np.all(sol.v_hat <= mdp.v_max + 1e-12)
    # q_hat must literally be the clamped regression-minus-bonus table
    rebuilt = np.clip(
        (mdp.features.matrix() @ sol.w_hat).reshape(6, 3)
        - _bonus(ds, mdp.features, 1.0, 1.5),
        0.0, mdp.v_max,
    )
    assert np.abs(sol.q_hat - rebuilt).max() < 1e-12
    assert np.array_equal(sol.v_hat, sol.q_hat.max(axis=1))
    assert np.array_equal(sol.policy.probs, Policy.greedy(sol.q_hat).probs)


def test_solver_pessimistic_with_theorem_bonus():
    mdp = make_lowrank_mdp(6, 3, dim=2, gamma=0.9, seed=29)
    trials, hits = 50, 0
    for t in range(trials):
        ds = _uniform_data(mdp, 300, seed=1000 + t)
        cfg = PeviConfig.for_mdp(0.9, mdp.r_max, beta=theorem_beta(
            d=2, n_total=300, gamma=0.9, r_max=mdp.r_max, delta=0.1))
        sol = pevi_solve(ds, mdp.features, cfg)
        actual = evaluate_policy(mdp, sol.policy)
        hits += bool(np.all(sol.v_hat <= actual.v + 1e-9))
    # nominal coverage 0.9 minus three binomial standard errors
    assert hits / trials >= 0.9 - 3 * np.sqrt(0.9 * 0.1 / trials)


def test_solver_residuals_eventually_decrease():
    # the solver is deterministic, so truncated runs expose each sweep's residual
    mdp = make_tabular_mdp(5, 2, gamma=0.9, seed=11)
    ds = _uniform_data(mdp, 200, seed=2)
    cfg = PeviConfig(lambda_reg=1.0, beta=0.2, gamma=0.9, v_max=mdp.v_max)
    sol = pevi_solve(ds, mdp.features, cfg)
    assert sol.converged and sol.residual < cfg.tol
    residuals = []
    for k in range(1, sol.sweeps_used + 1):
        truncated = pevi_solve(ds, mdp.features, dataclasses.replace(cfg, max_sweeps=k))
        assert truncated.sweeps_used == k
        residuals.append(truncated.residual)
    assert residuals[-1] == sol.residual
    tail = residuals[2:]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))


def test_solver_deterministic():
    mdp = make_lowrank_mdp(5, 3, dim=2, gamma=0.9, seed=21)
    ds = _uniform_data(mdp, 70, seed=6)
    cfg = PeviConfig(lambda_reg=1.0, beta=0.7, gamma=0.9, v_max=mdp.v_max)
    a = pevi_solve(ds, mdp.features, cfg)
    b = pevi_solve(ds, mdp.features, cfg)
    assert np.array_equal(a.w_hat, b.w_hat)
    assert np.array_equal(a.v_hat, b.v_hat)
    assert np.array_equal(a.lambda_matrix, b.lambda_matrix)
    assert np.array_equal(a.policy.probs, b.policy.probs)
    assert (a.sweeps_used, a.converged) == (b.sweeps_used, b.converged)


def _row_form_pevi(dataset, features, config):
    """The sweep that pevi_solve replaced: every sweep gathers v(s') over the
    N dataset rows and ridge-regresses r + gamma * v(s') onto them."""
    rows = features.matrix()
    phi = rows[dataset.states * features.num_actions + dataset.actions]
    ridge = Ridge(config.lambda_reg * np.eye(features.dim) + phi.T @ phi)
    num_states, num_actions = features.num_states, features.num_actions
    gamma_table = (config.beta * ridge.widths(rows)).reshape(num_states, num_actions)
    v = np.zeros(num_states)
    residuals, converged = [], False
    for sweeps in range(1, config.max_sweeps + 1):
        w = ridge.solve(phi.T @ (dataset.rewards + config.gamma * v[dataset.next_states]))
        q = np.clip((rows @ w).reshape(num_states, num_actions) - gamma_table,
                    0.0, config.v_max)
        v_next = q.max(axis=1)
        residuals.append(float(np.abs(v_next - v).max()))
        v = v_next
        if residuals[-1] < config.tol:
            converged = True
            break
    return w, q, sweeps, converged, residuals


EQUIVALENCE_MDPS = {
    "tabular": lambda: make_tabular_mdp(5, 3, gamma=0.9, seed=4),
    "lowrank": lambda: make_lowrank_mdp(7, 3, dim=3, gamma=0.95, seed=2),
    "adversarial": lambda: make_adversarial_mdp(3, dim=2, gamma=0.9),
}


@pytest.mark.parametrize("max_sweeps", [None, 3])
@pytest.mark.parametrize("beta", [0.0, 0.3])
@pytest.mark.parametrize("n", [1, 60, 3000])
@pytest.mark.parametrize("kind", sorted(EQUIVALENCE_MDPS))
def test_solver_matches_row_form_sweep(kind, n, beta, max_sweeps):
    mdp = EQUIVALENCE_MDPS[kind]()
    probs = np.random.default_rng(n).random((mdp.num_states, mdp.num_actions))
    behavior = Policy(probs / probs.sum(axis=1, keepdims=True))
    ds = sample_dataset(mdp, behavior, n, seed=n + 1, noise=True)
    cfg = PeviConfig.for_mdp(mdp.gamma, mdp.r_max, beta=beta, lambda_reg=0.7,
                             max_sweeps=max_sweeps)
    sol = pevi_solve(ds, mdp.features, cfg)
    w, q, sweeps, converged, residuals = _row_form_pevi(ds, mdp.features, cfg)
    assert (sol.sweeps_used, sol.converged) == (sweeps, converged)
    if n > 1:  # a single row can settle within three sweeps
        assert converged == (max_sweeps is None)
    assert np.array_equal(sol.policy.probs, Policy.greedy(q).probs)
    assert np.abs(sol.q_hat - q).max() <= 1e-12
    assert np.abs(sol.w_hat - w).max() <= 1e-12
    assert abs(sol.residual - residuals[-1]) <= 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_next_state_sums_are_within_an_ulp_or_so_of_exact(seed):
    """B of a chain-sized row set (200 labeled and 20000 reward-free rows)
    against the exactly rounded row sums (math.fsum): each entry adds one
    rounded phi_k * count per distinct (s, a), so it is within a few ulps,
    where adding the 20200 rows one at a time drifts by hundreds."""
    mdp = chain_mdp()
    features, rows = mdp.features, mdp.features.matrix()
    probs = np.random.default_rng(seed).random((mdp.num_states, mdp.num_actions))
    behavior = Policy(probs / probs.sum(axis=1, keepdims=True))
    d0 = sample_dataset(mdp, behavior, 200, seed=seed)
    d1 = sample_dataset(mdp, behavior, 20000, seed=seed + 100, labeled=False)
    got = next_state_sums(features, d0.counts(features).union(d1.counts(features)))
    pairs = np.concatenate([d.pair_ids(features) for d in (d0, d1)])
    next_states = np.concatenate([d0.next_states, d1.next_states])
    exact = np.array([[math.fsum(column[pairs[next_states == s]])
                       for s in range(mdp.num_states)] for column in rows.T])
    assert (np.abs(got - exact) <= 4 * np.spacing(np.abs(exact))).all()


def _lone_sweeps(problem, features):
    """One problem's sweeps on their own, with the 2-D products pevi_solve
    ran before problems were stacked."""
    config, rows = problem.config, features.matrix()
    v = np.zeros(features.num_states)
    residuals, converged = [], False
    for sweeps in range(1, config.max_sweeps + 1):
        w = problem.w_reward + problem.sweep_map @ v
        q = np.clip((rows @ w).reshape(problem.bonus.shape) - problem.bonus, 0.0, config.v_max)
        v_next = q.max(axis=1)
        residuals.append(float(np.abs(v_next - v).max()))
        v = v_next
        if residuals[-1] < config.tol:
            converged = True
            break
    return w, q, v, tuple(residuals), sweeps, converged


def test_lockstep_batch_equals_each_problem_alone():
    mdp = make_lowrank_mdp(7, 3, dim=3, gamma=0.95, seed=2)
    rng = np.random.default_rng(5)
    cases = []
    for i, (n, beta, max_sweeps) in enumerate([
            (60, 0.0, None), (3000, 0.3, None), (1, 0.3, 3), (500, 1.0, 3),
            (200, 0.05, 5), (60, 0.3, None), (800, 2.0, 7), (40, 0.3, 3)]):
        probs = rng.random((mdp.num_states, mdp.num_actions))
        behavior = Policy(probs / probs.sum(axis=1, keepdims=True))
        ds = sample_dataset(mdp, behavior, n, seed=i, noise=True)
        cfg = PeviConfig.for_mdp(mdp.gamma, mdp.r_max, beta=beta, lambda_reg=0.7,
                                 max_sweeps=max_sweeps)
        cases.append((ds, cfg))
    problems = [pevi_problems(mdp.features, ds.counts(mdp.features),
                              [ds.counts(mdp.features).reward_sums], cfg)[0] for ds, cfg in cases]
    batch = pevi_lockstep(problems, mdp.features)
    assert len(batch) == len(cases)
    for (ds, cfg), problem, got in zip(cases, problems, batch):
        alone = pevi_solve(ds, mdp.features, cfg)
        w, q, v, residuals, sweeps, converged = _lone_sweeps(problem, mdp.features)
        for sol in (got, alone):
            assert np.array_equal(sol.q_hat, q) and np.array_equal(sol.w_hat, w)
            assert np.array_equal(sol.v_hat, v) and sol.residual == residuals[-1]
            assert (sol.sweeps_used, sol.converged) == (sweeps, converged)
            assert np.array_equal(sol.lambda_matrix, problem.lambda_matrix)
            assert sol.beta == cfg.beta
            assert np.array_equal(sol.policy.probs, Policy.greedy(q).probs)
    # the members leave the active set at different sweeps, some unconverged
    assert len({sol.sweeps_used for sol in batch}) >= 4
    assert {sol.sweeps_used for sol in batch if not sol.converged} >= {3, 5}


def test_lockstep_edge_cases():
    mdp = make_lowrank_mdp(5, 3, dim=2, gamma=0.9, seed=21)
    assert pevi_lockstep([], mdp.features) == []
    cfg = PeviConfig.for_mdp(mdp.gamma, mdp.r_max, beta=0.5)
    data = _uniform_data(mdp, 50)
    counts = data.counts(mdp.features)
    (problem,) = pevi_problems(mdp.features, counts, [counts.reward_sums], cfg)
    other = make_lowrank_mdp(6, 3, dim=2, gamma=0.9, seed=21)
    with pytest.raises(ValueError, match="shape"):
        pevi_lockstep([problem], other.features)
    with pytest.raises(ValueError, match="fully labeled"):
        pevi_solve(_uniform_data(mdp, 50, labeled=False), mdp.features, cfg)


# ------------------------------------------------------------ presets, config


def test_theorem_beta_frozen_values():
    assert theorem_beta(4, 10**4, 0.9, 1.0, 0.1) == pytest.approx(
        162.91396148988122, rel=1e-12)
    assert theorem_beta(6, 500, 0.95, 2.0, 0.05, c=0.5) == pytest.approx(
        470.6712454066474, rel=1e-12)


def test_theorem_beta_monotonicity():
    base = theorem_beta(4, 1000, 0.9, 1.0, 0.1)
    assert theorem_beta(8, 1000, 0.9, 1.0, 0.1) > base
    assert theorem_beta(4, 100000, 0.9, 1.0, 0.1) > base
    assert theorem_beta(4, 1000, 0.9, 1.0, 0.01) > base
    # the 1/(1-gamma) blowup dominates the log correction
    assert theorem_beta(4, 1000, 0.99, 1.0, 0.1) / base > 5.0


def test_theorem_beta_validation():
    with pytest.raises(ValueError):
        theorem_beta(0, 100, 0.9, 1.0, 0.1)
    with pytest.raises(ValueError):
        theorem_beta(4, 100, 1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        theorem_beta(4, 100, 0.9, 1.0, 1.5)


def test_config_validation_and_defaults():
    cfg = PeviConfig(lambda_reg=1.0, beta=0.0, gamma=0.9, v_max=10.0)
    assert cfg.tol == pytest.approx(1e-7)
    assert cfg.max_sweeps == 1773  # 10 * ceil(1/(1-gamma)) * ln(1/tol), rounded up
    with pytest.raises(ValueError, match="lambda_reg"):
        PeviConfig(lambda_reg=0.0, beta=0.0, gamma=0.9, v_max=10.0)
    with pytest.raises(ValueError, match="beta"):
        PeviConfig(lambda_reg=1.0, beta=-1.0, gamma=0.9, v_max=10.0)
    with pytest.raises(ValueError, match="gamma"):
        PeviConfig(lambda_reg=1.0, beta=0.0, gamma=1.0, v_max=10.0)
    with pytest.raises(ValueError, match="tol"):
        PeviConfig(lambda_reg=1.0, beta=0.0, gamma=0.9, v_max=10.0, tol=-1e-9)
    with pytest.raises(ValueError, match="max_sweeps"):
        PeviConfig(lambda_reg=1.0, beta=0.0, gamma=0.9, v_max=10.0, max_sweeps=0)
    preset = PeviConfig.for_mdp(0.9, 1.0, beta=theorem_beta(d=4, n_total=10**4, gamma=0.9,
                                                             r_max=1.0, delta=0.1))
    assert preset.beta == pytest.approx(162.91396148988122, rel=1e-12)
    assert preset.v_max == pytest.approx(10.0)


@pytest.mark.parametrize("v_max, tol", [(10.0, 1.0), (10.0, 5.0), (1e9, None)])
def test_default_max_sweeps_is_at_least_one(v_max, tol):
    # 10 * horizon * ln(1/tol) is <= 0 once tol >= 1, as the default tol is for v_max >= 1e8
    cfg = PeviConfig(lambda_reg=1.0, beta=0.0, gamma=0.9, v_max=v_max, tol=tol)
    assert cfg.tol >= 1.0
    assert cfg.max_sweeps == 1


@pytest.mark.parametrize("field, value", [
    ("lambda_reg", float("nan")), ("lambda_reg", float("inf")),
    ("beta", float("nan")), ("beta", float("inf")),
    ("gamma", float("nan")),
    ("v_max", float("nan")), ("v_max", float("inf")),
    ("tol", float("nan")), ("tol", float("inf")), ("tol", 0.0),
    ("max_sweeps", 2.5), ("max_sweeps", True), ("max_sweeps", -3),
])
def test_config_rejects_non_finite_and_fractional_values(field, value):
    # a NaN beta once ran every sweep and returned an all-NaN v_hat
    kwargs = dict(lambda_reg=1.0, beta=0.5, gamma=0.9, v_max=10.0, tol=1e-6, max_sweeps=50)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be"):
        PeviConfig(**kwargs)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 9999),
    n=st.integers(5, 30),
    beta=st.floats(0.0, 5.0),
)
def test_solver_outputs_always_clamped(seed, n, beta):
    mdp = make_lowrank_mdp(4, 2, dim=2, gamma=0.85, seed=seed % 11)
    ds = _uniform_data(mdp, n, seed=seed)
    cfg = PeviConfig(lambda_reg=1.0, beta=beta, gamma=0.85, v_max=mdp.v_max,
                     max_sweeps=200, tol=1e-6)
    sol = pevi_solve(ds, mdp.features, cfg)
    assert np.all(sol.q_hat >= 0.0) and np.all(sol.q_hat <= mdp.v_max + 1e-12)
    assert np.array_equal(sol.v_hat, sol.q_hat.max(axis=1))
    assert isinstance(sol.converged, bool)
