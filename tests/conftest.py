import numpy as np
import pytest

from pdslab.mdp import FeatureMap, LinearMdp, make_lowrank_mdp, make_tabular_mdp


def chain_mdp() -> LinearMdp:
    """Four-state chain started at the left end; actions trade off the chance
    of stepping right, and stepping right pays more the further along you are.
    Small datasets leave the bonus large enough to mask the far-end payoff."""
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


def clipped_lowrank_mdp() -> LinearMdp:
    """A lowrank MDP (d = 2 < S = 4) whose last pair has features
    (1 + 1e-12, -1e-12): its kernel row undershoots 0 by 5e-13 at two
    states, inside the tolerance, so the clip changes those entries."""
    rng = np.random.default_rng(0)
    phi = rng.dirichlet(np.ones(2), size=(4, 2))
    phi[3, 1] = [1.0 + 1e-12, -1e-12]
    mu = np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]])
    return LinearMdp(FeatureMap(phi), mu, np.array([0.5, 1.0]), gamma=0.9, r_max=1.0,
                     init_dist=np.full(4, 0.25))


@pytest.fixture
def tabular_5x3():
    return make_tabular_mdp(5, 3, gamma=0.95, r_max=1.0, seed=42)


@pytest.fixture
def lowrank_6x3x2():
    return make_lowrank_mdp(6, 3, dim=2, gamma=0.9, r_max=1.0, seed=2)


def value_iteration_oracle(p, r, gamma, residual=1e-12, max_iter=2_000_000):
    """Plain value iteration, independent of the package implementation."""
    v = np.zeros(p.shape[0])
    for _ in range(max_iter):
        v_new = (r + gamma * (p @ v)).max(axis=1)
        if np.abs(v_new - v).max() < residual:
            return v_new
        v = v_new
    raise AssertionError("oracle value iteration did not converge")


def policy_eval_oracle(p, r, gamma, probs, residual=1e-12, max_iter=2_000_000):
    """Fixed-point policy evaluation, independent of the package."""
    p_pi = np.einsum("sa,sae->se", probs, p)
    r_pi = np.einsum("sa,sa->s", probs, r)
    v = np.zeros(p.shape[0])
    for _ in range(max_iter):
        v_new = r_pi + gamma * (p_pi @ v)
        if np.abs(v_new - v).max() < residual:
            return v_new
        v = v_new
    raise AssertionError("oracle policy evaluation did not converge")
