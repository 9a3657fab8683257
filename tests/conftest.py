import numpy as np
import pytest

from pdslab.data import OfflineDataset, sample_dataset
from pdslab.mdp import FeatureMap, LinearMdp, Policy, make_lowrank_mdp, make_tabular_mdp
from pdslab.reward import fit_reward


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


# ---- exact-frequency fixtures ----------------------------------------------


def _largest_remainder_counts(probs: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to `total` proportional to probs (largest remainder)."""
    raw = probs * total
    counts = np.floor(raw).astype(np.int64)
    short = total - counts.sum()
    if short > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def quantize_transitions(mdp: LinearMdp, denominator: int) -> LinearMdp:
    """Tabular MDP with every transition probability snapped to k/denominator.

    Only defined for one-hot (tabular) feature maps, where mu rows are the
    transition distributions themselves. Used to build datasets whose
    empirical frequencies match the model exactly.
    """
    if denominator < 1:
        raise ValueError("denominator must be >= 1")
    _require_onehot(mdp)
    mu = np.stack(
        [_largest_remainder_counts(row, denominator) / denominator for row in mdp.mu]
    )
    return LinearMdp(
        features=mdp.features,
        mu=mu,
        theta=mdp.theta,
        gamma=mdp.gamma,
        r_max=mdp.r_max,
        init_dist=mdp.init_dist,
        seed=mdp.seed,
    )


def exhaustive_dataset(mdp: LinearMdp, visits_per_pair: int) -> OfflineDataset:
    """Every (s,a) visited exactly visits_per_pair times with next-state
    counts exactly proportional to P(.|s,a).

    Requires visits_per_pair * P to be integral (see quantize_transitions);
    rewards are the exact noiseless values.
    """
    if visits_per_pair < 1:
        raise ValueError("visits_per_pair must be >= 1")
    raw = mdp.transitions * visits_per_pair
    counts = np.rint(raw).astype(np.int64)
    if np.abs(raw - counts).max() > 1e-9:
        raise ValueError(
            "visits_per_pair * P must be integral; quantize the MDP first"
        )
    # (s, a, s') triples in row-major order, each repeated by its count
    flat = np.repeat(np.arange(counts.size), counts.ravel())
    states, actions, next_states = np.unravel_index(flat, counts.shape)
    return OfflineDataset(
        states,
        actions,
        mdp.rewards[states, actions],
        next_states,
        labeled=True,
        num_states=mdp.num_states,
        num_actions=mdp.num_actions,
    )


def _require_onehot(mdp: LinearMdp) -> None:
    phi = mdp.features.matrix()
    onehot = (phi.sum(axis=1) == 1.0) & (np.count_nonzero(phi, axis=1) == 1)
    if not onehot.all():
        raise ValueError("operation requires one-hot (tabular) features")


def confidence_coverage_trial(
    mdp: LinearMdp,
    n0: int,
    noise: bool | float,
    delta: float,
    trials: int,
    seed: int = 0,
    nu: float = 1.0,
    behavior=None,
) -> float:
    """Fraction of fresh-data fits with ||theta* - theta_hat||_Lambda <= alpha."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if behavior is None:
        behavior = Policy.uniform(mdp.num_states, mdp.num_actions)
    hits = 0
    for sub in np.random.SeedSequence(seed).generate_state(trials):
        ds = sample_dataset(mdp, behavior, n=n0, seed=int(sub), noise=noise)
        model = fit_reward(ds, mdp.features, nu=nu, delta=delta, r_max=mdp.r_max)
        err = mdp.theta - model.theta_hat
        hits += float(err @ model.lambda_matrix @ err) <= model.alpha**2
    return hits / trials
