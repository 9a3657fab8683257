import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdslab.mdp import (
    FeatureMap,
    LinearMdp,
    Policy,
    ValueReport,
    _check_value_range,
    _state_blocks,
    evaluate_policy,
    load_mdp,
    make_adversarial_mdp,
    make_lowrank_mdp,
    make_tabular_mdp,
    save_mdp,
    solve_optimal,
    suboptimality,
)

from conftest import policy_eval_oracle, value_iteration_oracle


def bandit_mdp(rewards, gamma=0.9):
    """Single-state MDP with one action per reward value (one-hot features)."""
    rewards = np.asarray(rewards, dtype=float)
    d = rewards.shape[0]
    phi = np.eye(d).reshape(1, d, d)
    return LinearMdp(
        features=FeatureMap(phi),
        mu=np.ones((d, 1)),
        theta=rewards,
        gamma=gamma,
        r_max=max(1.0, rewards.max()),
        init_dist=np.array([1.0]),
    )


# ---- constructors and invariants -------------------------------------------


@pytest.mark.parametrize("seed", [0, 7, 42, 123])
@pytest.mark.parametrize(
    "factory",
    [
        lambda s: make_tabular_mdp(4, 3, gamma=0.9, seed=s),
        lambda s: make_tabular_mdp(2, 2, gamma=0.99, seed=s),
        lambda s: make_lowrank_mdp(5, 2, dim=3, gamma=0.8, seed=s),
    ],
)
def test_kernel_and_reward_invariants(factory, seed):
    mdp = factory(seed)
    p = mdp.transitions
    assert p.min() >= 0.0
    np.testing.assert_allclose(p.sum(axis=2), 1.0, atol=1e-10)
    r = mdp.rewards
    assert r.min() >= 0.0 and r.max() <= mdp.r_max
    norms = np.linalg.norm(mdp.features.phi, axis=2)
    assert norms.max() <= 1.0 + 1e-9
    assert np.linalg.norm(mdp.theta) <= np.sqrt(mdp.dim) * mdp.r_max * (1 + 1e-9)


def test_single_state_forces_self_loop():
    mdp = make_tabular_mdp(1, 1, gamma=0.9, r_max=1.0, seed=0)
    assert mdp.transitions[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
    _, rep = solve_optimal(mdp)
    assert rep.v[0] == pytest.approx(10.0 * mdp.rewards[0, 0], rel=1e-10)


def test_tabular_vstar_matches_value_iteration_oracle(tabular_5x3):
    v_oracle = value_iteration_oracle(
        tabular_5x3.transitions, tabular_5x3.rewards, tabular_5x3.gamma
    )
    _, rep = solve_optimal(tabular_5x3)
    np.testing.assert_allclose(rep.v, v_oracle, atol=1e-8)


def test_lowrank_transition_rows(lowrank_6x3x2):
    mdp = make_lowrank_mdp(4, 2, dim=3, gamma=0.9, seed=1)
    np.testing.assert_allclose(mdp.transitions.sum(axis=2), 1.0, atol=1e-10)
    np.testing.assert_allclose(lowrank_6x3x2.transitions.sum(axis=2), 1.0, atol=1e-10)


def test_lowrank_feature_rank_is_dim(lowrank_6x3x2):
    m = lowrank_6x3x2.features.matrix()
    rank = np.linalg.matrix_rank(m, tol=1e-10)
    assert rank == 2


def test_tabular_is_the_simplex_vertex_case():
    # One-hot rows are simplex vertices, so the tabular construction
    # satisfies every low-rank postcondition verbatim.
    mdp = make_tabular_mdp(3, 2, gamma=0.9, seed=5)
    phi = mdp.features.matrix()
    assert phi.min() >= 0.0
    np.testing.assert_allclose(phi.sum(axis=1), 1.0, atol=0)
    np.testing.assert_allclose(np.sort(phi, axis=1)[:, :-1], 0.0, atol=0)
    np.testing.assert_allclose(mdp.mu.sum(axis=1), 1.0, atol=1e-12)


def test_adversarial_dim1_features_and_errors():
    mdp = make_adversarial_mdp(3, 1, gamma=0.9, r_max=1.0)
    assert mdp.num_states == 1
    assert mdp.features.phi[0, 0, 0] == 1.0
    assert mdp.feature_scale == 1.0
    with pytest.raises(ValueError):
        make_adversarial_mdp(2, 2)
    with pytest.raises(ValueError):
        make_adversarial_mdp(3, 0)


def test_adversarial_identical_qstar_on_onehot_actions():
    mdp = make_adversarial_mdp(5, 2, gamma=0.9, r_max=1.0)
    assert mdp.feature_scale == pytest.approx(1 / np.sqrt(2))
    _, rep = solve_optimal(mdp)
    q = rep.q[0, :2]
    np.testing.assert_allclose(q, q[0], atol=1e-12)


def test_adversarial_gamma0_is_a_bandit():
    mdp = make_adversarial_mdp(2, 1, gamma=0.0, r_max=1.0)
    pol = Policy.uniform(1, 2)
    gap = mdp.rewards[0].max() - pol.probs[0] @ mdp.rewards[0]
    assert suboptimality(mdp, pol, 0) == pytest.approx(gap, abs=1e-12)


def test_determinism_and_seed_sensitivity():
    a = make_tabular_mdp(4, 3, seed=11)
    b = make_tabular_mdp(4, 3, seed=11)
    c = make_tabular_mdp(4, 3, seed=12)
    assert np.array_equal(a.mu, b.mu) and np.array_equal(a.theta, b.theta)
    assert not np.array_equal(a.mu, c.mu)


# ---- evaluation and optimality ----------------------------------------------


def test_single_state_geometric_series():
    mdp = bandit_mdp([0.5], gamma=0.9)
    rep = evaluate_policy(mdp, Policy.uniform(1, 1))
    assert rep.v[0] == pytest.approx(5.0, rel=1e-12)


def test_evaluate_policy_matches_fixed_point_oracle(tabular_5x3):
    pol = Policy.uniform(5, 3)
    rep = evaluate_policy(tabular_5x3, pol)
    v_oracle = policy_eval_oracle(
        tabular_5x3.transitions, tabular_5x3.rewards, tabular_5x3.gamma, pol.probs
    )
    np.testing.assert_allclose(rep.v, v_oracle, atol=1e-8)
    np.testing.assert_allclose(
        rep.q, tabular_5x3.rewards + 0.95 * tabular_5x3.transitions @ rep.v, atol=1e-12
    )


def test_evaluate_policy_oracle_equivalence_100_random_pairs():
    rng = np.random.default_rng(0)
    for k in range(100):
        S = int(rng.integers(1, 5))
        A = int(rng.integers(1, 4))
        gamma = float(rng.uniform(0.0, 0.95))
        mdp = make_tabular_mdp(S, A, gamma=gamma, seed=int(rng.integers(1 << 30)))
        probs = rng.dirichlet(np.ones(A), size=S)
        probs = probs / probs.sum(axis=1, keepdims=True)
        pol = Policy(probs)
        rep = evaluate_policy(mdp, pol)
        v_oracle = policy_eval_oracle(mdp.transitions, mdp.rewards, gamma, pol.probs)
        np.testing.assert_allclose(rep.v, v_oracle, atol=1e-8)
        assert rep.v.min() >= 0.0 and rep.v.max() <= mdp.v_max + 1e-9


def test_solve_optimal_raises_when_policy_iteration_cycles(monkeypatch):
    # rounding that flips the greedy action back and forth must not end in
    # a silently returned policy
    mdp = bandit_mdp([1.0, 0.0])
    flips = iter([np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])])
    monkeypatch.setattr("pdslab.mdp.evaluate_policy",
                        lambda mdp, policy: ValueReport(v=np.ones(1), q=next(flips)))
    with pytest.raises(FloatingPointError, match="revisited a policy"):
        solve_optimal(mdp)


def test_greedy_ties_break_to_lowest_index():
    q = np.array([[1.0, 1.0, 0.5], [0.2, 0.7, 0.7]])
    pol = Policy.greedy(q)
    assert pol.probs[0, 0] == 1.0
    assert pol.probs[1, 1] == 1.0


def test_suboptimality_of_optimal_policy_is_zero(tabular_5x3):
    pol, _ = solve_optimal(tabular_5x3)
    for s in range(5):
        assert abs(suboptimality(tabular_5x3, pol, s)) <= 1e-8


def test_suboptimality_uniform_on_two_armed_bandit():
    mdp = bandit_mdp([0.0, 1.0], gamma=0.9)
    assert suboptimality(mdp, Policy.uniform(1, 2), 0) == pytest.approx(5.0, rel=1e-12)


def test_suboptimality_range(tabular_5x3):
    val = suboptimality(tabular_5x3, Policy.uniform(5, 3), 0)
    assert 0.0 <= val <= tabular_5x3.v_max


def test_suboptimality_requires_an_integer_state(tabular_5x3):
    pol = Policy.uniform(5, 3)
    for state in (True, False, 2.7, 2.0, "0", None, np.array([0])):
        with pytest.raises(ValueError, match="state must be an integer"):
            suboptimality(tabular_5x3, pol, state)
    for state in (-1, 5):
        with pytest.raises(ValueError, match=f"state {state} out of range"):
            suboptimality(tabular_5x3, pol, state)
    assert suboptimality(tabular_5x3, pol, np.int64(4)) == suboptimality(tabular_5x3, pol, 4)


# ---- validation errors -------------------------------------------------------


def test_constructor_parameter_errors():
    with pytest.raises(ValueError):
        make_tabular_mdp(0, 2)
    with pytest.raises(ValueError):
        make_tabular_mdp(2, 2, gamma=1.0)
    with pytest.raises(ValueError):
        make_lowrank_mdp(2, 2, dim=5)
    with pytest.raises(ValueError):
        make_lowrank_mdp(2, 2, dim=0)


def test_feature_norm_rejected():
    phi = np.full((1, 1, 2), 1.0)  # norm sqrt(2)
    with pytest.raises(ValueError, match="exceeds 1"):
        FeatureMap(phi)


def test_invalid_kernel_rejected():
    phi = np.eye(2).reshape(1, 2, 2)
    with pytest.raises(ValueError, match="sum to 1"):
        LinearMdp(
            features=FeatureMap(phi),
            mu=np.array([[0.5], [1.0]]),
            theta=np.zeros(2),
            gamma=0.9,
            r_max=1.0,
            init_dist=np.array([1.0]),
        )


def test_theta_norm_and_reward_range_rejected():
    phi = np.eye(2).reshape(1, 2, 2)
    with pytest.raises(ValueError, match="theta"):
        LinearMdp(
            features=FeatureMap(phi),
            mu=np.ones((2, 1)),
            theta=np.array([1.5, 1.5]),  # norm > sqrt(2)*r_max
            gamma=0.9,
            r_max=1.0,
            init_dist=np.array([1.0]),
        )
    with pytest.raises(ValueError, match="rewards"):
        LinearMdp(
            features=FeatureMap(phi),
            mu=np.ones((2, 1)),
            theta=np.array([1.2, 0.0]),  # reward above r_max
            gamma=0.9,
            r_max=1.0,
            init_dist=np.array([1.0]),
        )


def test_non_finite_parameters_rejected():
    # NaN slips through every range check above, and r_max = inf through
    # the positivity check; value iteration then never converges on them
    good = dict(features=FeatureMap(np.eye(2).reshape(1, 2, 2)), mu=np.ones((2, 1)),
                theta=np.array([0.5, 0.5]), gamma=0.9, r_max=1.0, init_dist=np.array([1.0]))
    LinearMdp(**good)
    for field, value in (("mu", np.array([[np.nan], [1.0]])), ("theta", np.array([np.nan, 0.5])),
                         ("init_dist", np.array([np.nan])), ("r_max", np.inf),
                         ("r_max", np.nan)):
        with pytest.raises(ValueError, match=field):
            LinearMdp(**dict(good, **{field: value}))
    # the constructors check r_max before drawing theta from [0, r_max]
    for r_max in (np.nan, np.inf, -np.inf, 0.0):
        with pytest.raises(ValueError, match="r_max must be finite and positive"):
            make_tabular_mdp(2, 2, r_max=r_max)
        with pytest.raises(ValueError, match="r_max must be finite and positive"):
            make_lowrank_mdp(3, 2, dim=2, r_max=r_max)


def test_policy_validation_and_shape_mismatch(tabular_5x3):
    with pytest.raises(ValueError):
        Policy(np.array([[0.5, 0.4]]))
    with pytest.raises(ValueError):
        Policy(np.array([[1.1, -0.1]]))
    # NaN fails both the sign and the row-sum comparison, so it needs its own check
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            Policy([[bad, 1.0]] * 6)
    with pytest.raises(ValueError, match="does not match"):
        evaluate_policy(tabular_5x3, Policy.uniform(4, 3))


def test_value_range_check_rejects_non_finite_values():
    ok = np.zeros(2), np.zeros((2, 3))
    for v, q in ((np.array([np.nan, 0.0]), ok[1]), (ok[0], np.full((2, 3), np.nan)),
                 (np.array([0.0, np.inf]), ok[1])):
        with pytest.raises(ValueError, match="not finite"):
            _check_value_range(v, q, 10.0)
    assert all(np.array_equal(got, want) for got, want in zip(_check_value_range(*ok, 10.0), ok))


def test_policy_helpers():
    mixed = Policy.deterministic(np.array([1, 1]), 2).mixed_with_uniform(0.2)
    np.testing.assert_allclose(mixed.probs, [[0.1, 0.9]] * 2)


def test_factored_mdp_holds_no_kernel_sized_array():
    S, A = 60, 3
    mdp = make_lowrank_mdp(S, A, dim=4, gamma=0.9, seed=0)
    assert mdp._factor is not None
    held = [v for owner in (mdp, mdp.features) for v in vars(owner).values()
            if isinstance(v, np.ndarray)]
    assert held and max(a.size for a in held) < S * A * S
    # the kernel it computes on demand is the whole product's, row-normalized
    p = np.clip(np.einsum("sad,de->sae", mdp.features.phi, mdp.mu), 0.0, None)
    assert np.array_equal(mdp.transitions, p / p.sum(axis=2)[:, :, None])


def _two_feature_mdp(num_states, num_actions, last_pair):
    """Feature 0 moves to state 0 and feature 1 to state 1; every pair has
    features (0.5, 0.5) except the last state's last action, last_pair."""
    phi = np.full((num_states, num_actions, 2), 0.5)
    phi[-1, -1] = last_pair
    mu = np.zeros((2, num_states))
    mu[0, 0] = mu[1, 1] = 1.0
    return LinearMdp(FeatureMap(phi), mu, np.array([0.5, 0.5]), gamma=0.9, r_max=1.0,
                     init_dist=np.full(num_states, 1.0 / num_states))


@pytest.mark.parametrize("last_pair,message", [
    ([0.99, -0.01], "negative transition probability -1.000e-02"),
    ([0.5, 0.4], "transition rows must sum to 1 within 1e-10 (off by 1.000e-01)"),
])
def test_kernel_error_in_the_last_state_block_raises(last_pair, message):
    S, A = 300, 3
    blocks = _state_blocks(S, A)
    assert len(blocks) > 1 and blocks[-1] == (blocks[-1][0], S) and blocks[-1][0] > 0
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        _two_feature_mdp(S, A, last_pair)
    assert _two_feature_mdp(S, A, [0.5, 0.5])._factor is not None


# ---- serialization -----------------------------------------------------------


def test_json_round_trip_is_lossless(tmp_path, tabular_5x3, lowrank_6x3x2):
    for mdp in (tabular_5x3, lowrank_6x3x2, make_adversarial_mdp(4, 2)):
        path = tmp_path / "m.json"
        save_mdp(mdp, path)
        back = load_mdp(path)
        assert np.array_equal(back.features.phi, mdp.features.phi)
        assert np.array_equal(back.mu, mdp.mu)
        assert np.array_equal(back.theta, mdp.theta)
        assert np.array_equal(back.init_dist, mdp.init_dist)
        assert back.gamma == mdp.gamma and back.r_max == mdp.r_max
        assert back.feature_scale == mdp.feature_scale
        assert back.content_hash() == mdp.content_hash()
        json.loads(path.read_text())  # stays valid JSON


@pytest.mark.parametrize("key,value", [
    ("num_states", 6.7), ("num_states", 6.0), ("num_states", True), ("num_actions", "3"),
    ("num_actions", 0), ("dim", "2"), ("dim", -2), ("dim", None),
])
def test_from_dict_requires_positive_integer_shape(lowrank_6x3x2, key, value):
    doc = lowrank_6x3x2.to_dict()
    doc[key] = value
    with pytest.raises(ValueError, match=re.escape(
            f"MDP field {key!r} must be a positive integer, got {value!r}")):
        LinearMdp.from_dict(doc)


@pytest.mark.parametrize("key,want", [
    ("phi", "num_states*num_actions*dim = 36"), ("mu", "dim*num_states = 12"),
    ("theta", "dim = 2"), ("init_dist", "num_states = 6"),
])
@pytest.mark.parametrize("change", [-1, 1])
def test_from_dict_checks_array_lengths(lowrank_6x3x2, key, want, change):
    doc = lowrank_6x3x2.to_dict()
    doc[key] = doc[key][:-1] if change < 0 else doc[key] + [0.0]
    got = len(doc[key])
    with pytest.raises(ValueError, match=re.escape(
            f"MDP field {key!r} must hold {want} numbers, got {got}")):
        LinearMdp.from_dict(doc)


# ---- property tests ----------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    S=st.integers(1, 4),
    A=st.integers(1, 3),
    gamma=st.floats(0.0, 0.95),
)
def test_random_mdps_have_valid_kernels_and_values(seed, S, A, gamma):
    mdp = make_lowrank_mdp(S, A, dim=min(2, S * A), gamma=gamma, seed=seed)
    np.testing.assert_allclose(mdp.transitions.sum(axis=2), 1.0, atol=1e-10)
    rep = evaluate_policy(mdp, Policy.uniform(S, A))
    assert rep.v.min() >= 0.0
    assert rep.v.max() <= mdp.v_max + 1e-9
