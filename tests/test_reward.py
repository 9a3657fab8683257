"""Reward regression, confidence widths, and relabeling."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import confidence_coverage_trial
from pdslab.data import OfflineDataset, mix_datasets, sample_dataset
from pdslab.mdp import (
    FeatureMap,
    Policy,
    make_adversarial_mdp,
    make_lowrank_mdp,
    make_tabular_mdp,
)
from pdslab.reward import (
    RewardModel,
    deviation_table,
    fill_missing,
    fit_reward,
    lemma_alpha,
    pessimistic_table,
    predicted_table,
    relabel,
    theorem_alpha,
)


def _uniform_data(mdp, n, seed=0, noise=False):
    return sample_dataset(
        mdp, Policy.uniform(mdp.num_states, mdp.num_actions), n=n, seed=seed, noise=noise
    )


def test_fit_matches_normal_equations_oracle():
    mdp = make_lowrank_mdp(6, 3, dim=3, seed=5)
    ds = _uniform_data(mdp, 200, seed=1, noise=True)
    nu = 0.7
    model = fit_reward(ds, mdp.features, nu=nu, delta=0.1, r_max=mdp.r_max)

    # dense normal equations, built row by row
    lam = nu * np.eye(3)
    rhs = np.zeros(3)
    for s, a, r in zip(ds.states, ds.actions, ds.rewards):
        phi = mdp.features.phi[s, a]
        lam += np.outer(phi, phi)
        rhs += phi * r
    theta_oracle = np.linalg.inv(lam) @ rhs

    assert np.abs(model.theta_hat - theta_oracle).max() < 1e-10
    assert np.abs(model.lambda_matrix - lam).max() < 1e-10
    assert model.n_labeled == 200


def test_onehot_repeated_pair_is_ridge_mean():
    mdp = make_tabular_mdp(2, 2, seed=0)
    k, (s, a) = 8, (1, 0)
    r = mdp.rewards[s, a]
    ds = OfflineDataset([s] * k, [a] * k, [r] * k, [0] * k, labeled=True,
                        num_states=2, num_actions=2)
    model = fit_reward(ds, mdp.features, nu=1e-10, delta=0.1)
    # one-hot feature: theta on that coordinate is k*r/(nu+k)
    idx = int(np.argmax(mdp.features.phi[s, a]))
    assert model.theta_hat[idx] == pytest.approx(k * r / (1e-10 + k), abs=1e-9)
    assert model.theta_hat[idx] == pytest.approx(r, abs=1e-8)


def test_noiseless_fit_recovers_rewards():
    mdp = make_lowrank_mdp(8, 4, dim=3, seed=9)
    ds = _uniform_data(mdp, 2000, seed=3, noise=False)
    model = fit_reward(ds, mdp.features, nu=1e-8, delta=0.1)
    pred = predicted_table(model, mdp.features)
    assert np.abs(pred - mdp.rewards).max() < 1e-6


def test_alpha_frozen_values():
    assert lemma_alpha(4, 100, 1.0, 0.1, 1.0) == pytest.approx(5.199709077790272, rel=1e-12)
    assert lemma_alpha(2, 0, 4.0, 0.05, 2.0) == pytest.approx(6.895493661361633, rel=1e-12)
    assert theorem_alpha(4, 100, 0.1, 1.0) == pytest.approx(11.991461509365385, rel=1e-12)
    assert theorem_alpha(8, 10000, 0.1, 0.5) == pytest.approx(10.690374806230139, rel=1e-12)


def test_fit_alpha_mode_presets():
    mdp = make_lowrank_mdp(5, 2, dim=4, seed=1)
    ds = _uniform_data(mdp, 100, seed=0)
    lemma = fit_reward(ds, mdp.features, nu=1.0, delta=0.1, alpha_mode="lemma")
    theorem = fit_reward(ds, mdp.features, nu=1.0, delta=0.1, alpha_mode="theorem")
    assert lemma.alpha == pytest.approx(lemma_alpha(4, 100, 1.0, 0.1, 1.0))
    assert theorem.alpha == pytest.approx(theorem_alpha(4, 100, 0.1, 1.0))
    assert theorem.alpha > lemma.alpha
    with pytest.raises(ValueError, match="alpha_mode"):
        fit_reward(ds, mdp.features, alpha_mode="bogus")


def test_no_data_deviation_is_alpha_over_sqrt_nu():
    mdp = make_adversarial_mdp(3, 1)  # every feature row is exactly [1.0]
    empty = OfflineDataset([], [], [], [], labeled=True, num_states=1, num_actions=3)
    model = fit_reward(empty, mdp.features, nu=4.0, delta=0.05, r_max=2.0)
    assert np.all(model.theta_hat == 0.0)
    np.testing.assert_allclose(deviation_table(model, mdp.features), model.alpha / 2.0,
                               rtol=0.0, atol=1e-12)
    # theta_hat = 0, so the pessimistic value clamps to zero everywhere
    assert np.all(pessimistic_table(model, mdp.features) == 0.0)


def test_zero_feature_row_has_zero_width():
    phi = np.zeros((2, 2, 2))
    phi[0, 0] = [0.6, 0.8]
    phi[0, 1] = [1.0, 0.0]
    phi[1, 1] = [0.0, 0.5]
    feats = FeatureMap(phi)  # phi[1, 0] stays all-zero
    ds = OfflineDataset([0, 0], [0, 1], [0.5, 0.2], [0, 1], labeled=True,
                        num_states=2, num_actions=2)
    model = fit_reward(ds, feats, nu=1.0, delta=0.1)
    assert deviation_table(model, feats)[1, 0] == 0.0
    assert pessimistic_table(model, feats)[1, 0] == 0.0


def test_deviation_is_ellipsoid_supremum():
    # the closed form must equal sup over the confidence ellipsoid of
    # phi.(theta' - theta_hat); walk the d=2 boundary densely and compare
    mdp = make_lowrank_mdp(5, 3, dim=2, seed=13)
    ds = _uniform_data(mdp, 30, seed=2, noise=True)
    model = fit_reward(ds, mdp.features, nu=0.5, delta=0.1)

    w, v = np.linalg.eigh(model.lambda_matrix)
    lam_inv_half = v @ np.diag(1.0 / np.sqrt(w)) @ v.T
    omegas = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    boundary = model.alpha * lam_inv_half @ np.stack([np.cos(omegas), np.sin(omegas)])

    rows = mdp.features.matrix()
    sampled_max = (rows @ boundary).max(axis=1)
    closed = deviation_table(model, mdp.features).ravel()
    assert np.all(sampled_max <= closed + 1e-10)
    assert np.all(sampled_max >= closed * (1.0 - 1e-4))


def test_pessimistic_below_prediction_and_in_range():
    mdp = make_lowrank_mdp(7, 3, dim=4, seed=21)
    ds = _uniform_data(mdp, 60, seed=4, noise=True)
    model = fit_reward(ds, mdp.features, nu=1.0, delta=0.1, r_max=mdp.r_max)
    pess = pessimistic_table(model, mdp.features)
    pred = np.clip(predicted_table(model, mdp.features), 0.0, mdp.r_max)
    assert np.all(pess <= pred + 1e-12)
    assert np.all(pess >= 0.0) and np.all(pess <= mdp.r_max)


def test_scarce_data_high_dim_collapses_to_zero():
    mdp = make_lowrank_mdp(10, 4, dim=8, seed=3)
    ds = _uniform_data(mdp, 5, seed=0)
    model = fit_reward(ds, mdp.features, nu=1.0, delta=0.1)
    assert np.all(pessimistic_table(model, mdp.features) == 0.0)


def test_relabel_uds_zeroes_missing_only():
    mdp = make_lowrank_mdp(6, 2, dim=2, seed=7)
    lab = _uniform_data(mdp, 10, seed=0)
    unlab = sample_dataset(mdp, Policy.uniform(6, 2), n=15, seed=1, labeled=False)
    mixed = mix_datasets(lab, unlab)
    model = fit_reward(lab, mdp.features)
    out = relabel(mixed, model, mdp.features, mode="uds")
    assert out.labeled
    assert np.array_equal(out.rewards[:10], lab.rewards)
    assert np.all(out.rewards[10:] == 0.0)


def test_relabel_oracle_restores_true_rewards_everywhere():
    mdp = make_lowrank_mdp(5, 3, dim=2, seed=11)
    noisy = _uniform_data(mdp, 20, seed=5, noise=True)
    model = fit_reward(noisy, mdp.features)
    out = relabel(noisy, model, mdp.features, mode="oracle", mdp=mdp)
    expect = mdp.rewards[noisy.states, noisy.actions]
    assert np.array_equal(out.rewards, expect)
    assert not np.array_equal(noisy.rewards, expect)  # noise actually moved labels


def test_relabel_pds_never_exceeds_predict():
    mdp = make_lowrank_mdp(8, 3, dim=3, seed=17)
    lab = _uniform_data(mdp, 40, seed=2, noise=True)
    unlab = sample_dataset(mdp, Policy.uniform(8, 3), n=60, seed=3, labeled=False)
    model = fit_reward(lab, mdp.features)
    pds = relabel(unlab, model, mdp.features, mode="pds")
    pred = relabel(unlab, model, mdp.features, mode="predict")
    assert np.all(pds.rewards <= pred.rewards + 1e-12)
    # observed labels are kept, not overwritten by the pessimistic fill
    kept = relabel(lab, model, mdp.features, mode="pds")
    assert np.array_equal(kept.rewards, lab.rewards)
    fills = pessimistic_table(model, mdp.features)[lab.states, lab.actions]
    assert not np.array_equal(kept.rewards, fills)


@pytest.mark.parametrize("shape", [(1, 1), (5, 3), (4, 7)])
def test_fill_missing_equals_two_array_gather(shape):
    rng = np.random.default_rng(sum(shape))
    table = rng.random(shape)
    n = 200
    states, actions = rng.integers(0, shape[0], n), rng.integers(0, shape[1], n)
    fills = table[states, actions]
    observed = rng.random(n)
    part_nan = np.where(rng.random(n) < 0.4, np.nan, observed)
    for rewards, want in ((None, fills), (observed, observed),
                          (part_nan, np.where(np.isnan(part_nan), fills, part_nan))):
        got = fill_missing(rewards, table, states, actions)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    # a transposed table is not C-contiguous; the gather still reads table[s, a]
    assert np.array_equal(fill_missing(None, table.T, actions, states), fills)


def test_relabel_argument_errors():
    mdp = make_lowrank_mdp(4, 2, dim=2, seed=0)
    ds = _uniform_data(mdp, 5, seed=0)
    model = fit_reward(ds, mdp.features)
    with pytest.raises(ValueError, match="mode"):
        relabel(ds, model, mdp.features, mode="magic")
    with pytest.raises(ValueError, match="oracle"):
        relabel(ds, model, mdp.features, mode="oracle")
    big = OfflineDataset([7], [0], [0.1], [0], labeled=True, num_states=8, num_actions=2)
    with pytest.raises(ValueError, match="shape"):
        relabel(big, model, mdp.features, mode="uds")
    unlab = sample_dataset(mdp, Policy.uniform(4, 2), n=5, seed=0, labeled=False)
    with pytest.raises(ValueError, match="labeled"):
        fit_reward(unlab, mdp.features)


def test_coverage_noiseless_is_exact():
    mdp = make_lowrank_mdp(5, 3, dim=2, gamma=0.9, seed=29)
    rate = confidence_coverage_trial(mdp, n0=40, noise=False, delta=0.1, trials=20, seed=0)
    assert rate == 1.0


def test_coverage_bounded_noise_meets_target():
    mdp = make_lowrank_mdp(5, 3, dim=2, gamma=0.9, seed=29)
    trials = 120
    rate = confidence_coverage_trial(
        mdp, n0=60, noise=True, delta=0.1, trials=trials, seed=1
    )
    # binomial slack: three standard errors below the nominal level
    assert rate >= 0.9 - 3.0 * np.sqrt(0.9 * 0.1 / trials)


def test_alpha_monotone_in_confidence():
    a_hi = lemma_alpha(3, 50, 1.0, 0.01, 1.0)
    a_mid = lemma_alpha(3, 50, 1.0, 0.1, 1.0)
    a_lo = lemma_alpha(3, 50, 1.0, 0.5, 1.0)
    assert a_hi > a_mid > a_lo


def test_deviation_shrinks_as_data_grows():
    mdp = make_lowrank_mdp(6, 3, dim=3, seed=31)
    small = _uniform_data(mdp, 20, seed=0)
    more = mix_datasets(small, _uniform_data(mdp, 80, seed=1))
    base = fit_reward(small, mdp.features, nu=1.0, delta=0.1)
    grown = RewardModel(
        theta_hat=base.theta_hat,
        lambda_matrix=fit_reward(more, mdp.features, nu=1.0, delta=0.1).lambda_matrix,
        alpha=base.alpha,  # hold the radius fixed, vary only the gram
        nu=1.0,
        n_labeled=len(more),
        delta=0.1,
    )
    assert np.all(
        deviation_table(grown, mdp.features) <= deviation_table(base, mdp.features) + 1e-12
    )


def test_model_invariant_validation():
    eye = np.eye(2)
    with pytest.raises(ValueError, match="symmetric"):
        RewardModel(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]),
                    alpha=2.0, nu=1.0, n_labeled=0, delta=0.1)
    with pytest.raises(ValueError, match="eigenvalue"):
        RewardModel(np.zeros(2), 0.5 * eye, alpha=2.0, nu=1.0, n_labeled=0, delta=0.1)
    with pytest.raises(ValueError, match="alpha"):
        RewardModel(np.zeros(2), eye, alpha=0.5, nu=1.0, n_labeled=0, delta=0.1)


@pytest.mark.parametrize("name,value", [
    ("nu", float("nan")), ("nu", float("inf")), ("nu", 0.0), ("nu", -1.0),
    ("r_max", float("nan")), ("r_max", float("inf")), ("r_max", 0.0),
    ("alpha", float("nan")), ("alpha", float("inf")),
])
def test_model_requires_finite_positive_nu_r_max_and_alpha(name, value):
    # each of these built a model before, NaN passing the eigenvalue and alpha checks
    args = dict(theta_hat=np.zeros(2), lambda_matrix=np.eye(2), alpha=2.0, nu=1.0,
                n_labeled=0, delta=0.1, r_max=1.0)
    args[name] = value
    with pytest.raises(ValueError, match=f"{name} must be a finite positive number"):
        RewardModel(**args)


def test_fit_is_deterministic():
    mdp = make_lowrank_mdp(6, 3, dim=3, seed=5)
    ds = _uniform_data(mdp, 100, seed=1, noise=True)
    a = fit_reward(ds, mdp.features, nu=0.7, delta=0.1)
    b = fit_reward(ds, mdp.features, nu=0.7, delta=0.1)
    assert np.array_equal(a.theta_hat, b.theta_hat)
    assert np.array_equal(a.lambda_matrix, b.lambda_matrix)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 40),
    nu=st.floats(0.1, 5.0),
    mode=st.sampled_from(["pds", "uds", "predict"]),
)
def test_relabel_outputs_stay_in_reward_range(seed, n, nu, mode):
    mdp = make_lowrank_mdp(5, 3, dim=2, seed=seed % 7)
    lab = _uniform_data(mdp, max(n // 2, 1), seed=seed, noise=True)
    unlab = sample_dataset(mdp, Policy.uniform(5, 3), n=n, seed=seed + 1, labeled=False)
    model = fit_reward(lab, mdp.features, nu=nu, delta=0.1, r_max=mdp.r_max)
    out = relabel(unlab, model, mdp.features, mode=mode)
    assert out.labeled
    assert np.all(out.rewards >= 0.0)
    assert np.all(out.rewards <= mdp.r_max + 1e-12)
    assert np.all(deviation_table(model, mdp.features) >= 0.0)


@pytest.mark.parametrize("nu,r_max,name", [
    (float("nan"), 1.0, "nu"), (float("inf"), 1.0, "nu"), (0.0, 1.0, "nu"),
    (1.0, float("inf"), "r_max"), (1.0, float("nan"), "r_max"), (1.0, 0.0, "r_max"),
])
def test_fit_reward_requires_finite_positive_nu_and_r_max(nu, r_max, name):
    # nan gave an all-NaN theta_hat; inf, nan or 0 gave models with such alpha or r_max
    mdp = make_lowrank_mdp(4, 2, dim=2, seed=0)
    ds = _uniform_data(mdp, 20)
    with pytest.raises(ValueError, match=f"{name} must be a finite positive number"):
        fit_reward(ds, mdp.features, nu=nu, r_max=r_max)
    if name == "nu":
        with pytest.raises(ValueError, match="nu must be a finite positive number"):
            lemma_alpha(2, 20, nu, 0.1, 1.0)
