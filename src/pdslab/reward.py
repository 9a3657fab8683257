"""Ridge reward regression with a confidence ellipsoid, and pessimistic relabeling.

The model is theta_hat = Lambda^{-1} sum phi_tau r_tau with
Lambda = nu*I + sum phi_tau phi_tau^T over the labeled data. The ellipsoid
radius alpha makes {theta : ||theta - theta_hat||_Lambda <= alpha} hold the
true parameter with probability 1 - delta, and the induced pointwise bound
alpha * sqrt(phi^T Lambda^{-1} phi) drives the pessimistic reward

    r_hat(s,a) = clamp(<phi, theta_hat> - alpha*sqrt(phi^T Lambda^{-1} phi), 0, r_max).

fit_rewards fits a stack of K labeled row sets (RowCounts.stack) at once:
one Gram stack, one Cholesky stack and one stacked right-hand side
(ridge_fit, which also fits the ensemble's members), and one radius per
distinct row count. Each model has the bits fit_reward, its K = 1 case,
gives its row set alone.

Relabeling modes: pds (pessimistic), uds (zeros), predict (plain plug-in),
oracle (true rewards, requires the generating MDP).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from pdslab.data import OfflineDataset, RowCounts
from pdslab.mdp import FeatureMap, LinearMdp, nonnegative, positive, probability, require
from pdslab.ridge import Ridge

RELABEL_MODES = ("pds", "uds", "predict", "oracle")
ALPHA_MODES = ("lemma", "theorem")


def lemma_alpha(dim: int, n_labeled: int, nu: float, delta: float, r_max: float) -> float:
    """Data-independent ellipsoid radius for the ridge reward estimate."""
    require("dim", dim, positive, "an integer >= 1", integer=True)
    require("n_labeled", n_labeled, nonnegative, "an integer >= 0", integer=True)
    require("nu", nu, positive, "a finite positive number")
    require("delta", delta, probability, "in (0,1)")
    require("r_max", r_max, positive, "a finite positive number")
    return float(
        np.sqrt(nu)
        + r_max * np.sqrt(2.0 * np.log(1.0 / delta) + dim * np.log(1.0 + n_labeled / (nu * dim)))
    )


def theorem_alpha(dim: int, n_labeled: int, delta: float, r_max: float) -> float:
    """The simplified radius used by the main-theorem presets: 2*r_max*sqrt(d*zeta2)."""
    require("dim", dim, positive, "an integer >= 1", integer=True)
    require("n_labeled", n_labeled, positive, "an integer >= 1", integer=True)
    require("delta", delta, probability, "in (0,1)")
    require("r_max", r_max, positive, "a finite positive number")
    zeta2 = np.log(2.0 * dim * n_labeled / delta)
    return float(2.0 * r_max * np.sqrt(dim * zeta2))


@dataclass(frozen=True)
class RewardModel:
    """Fitted ridge reward estimate plus its confidence ellipsoid."""

    theta_hat: np.ndarray      # (d,)
    lambda_matrix: np.ndarray  # (d, d), nu*I + sum phi phi^T
    alpha: float
    nu: float
    n_labeled: int
    delta: float
    r_max: float = 1.0
    # the factored Lambda; fit_rewards hands over the one it built from the
    # visit counts, which is then trusted as is instead of validated and
    # refactored
    ridge: Ridge | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for name in ("nu", "r_max", "alpha"):
            require(name, getattr(self, name), positive, "a finite positive number")
        require("n_labeled", self.n_labeled, nonnegative, "an integer >= 0", integer=True)
        require("delta", self.delta, probability, "in (0,1)")
        theta = np.asarray(self.theta_hat, dtype=float)
        lam = np.asarray(self.lambda_matrix, dtype=float) if self.ridge is None else self.ridge.matrix
        if lam.ndim != 2 or lam.shape[0] != lam.shape[1] or theta.shape != (lam.shape[0],):
            raise ValueError("theta_hat/lambda_matrix shapes inconsistent")
        if self.ridge is None:
            if np.abs(lam - lam.T).max() > 1e-9:
                raise ValueError("lambda_matrix must be symmetric")
            min_eig = float(np.linalg.eigvalsh(lam).min())
            if min_eig < self.nu - 1e-9:
                raise ValueError(f"lambda_matrix min eigenvalue {min_eig:.3e} below nu={self.nu}")
            object.__setattr__(self, "ridge", Ridge(lam))
        if self.alpha < np.sqrt(self.nu) - 1e-12:
            raise ValueError(f"alpha={self.alpha} below sqrt(nu)")
        object.__setattr__(self, "lambda_matrix", self.ridge.matrix)
        object.__setattr__(self, "theta_hat", theta)

    @property
    def dim(self) -> int:
        return self.theta_hat.shape[0]


def ridge_fit(features: FeatureMap, visits: np.ndarray, reward_sums: np.ndarray,
              nu: float) -> tuple[Ridge, np.ndarray]:
    """The ridge fits of K row sets given by their (K, S*A) visit counts and
    per-pair reward sums: the (K, d, d) Ridge of Lambda = nu*I + Gram and the
    (K, d) theta_hat = Lambda^{-1} Phi^T sums. One Gram stack, one Cholesky
    stack and one stacked right-hand side, and each slice has the bits of its
    row set fitted alone."""
    ridge = Ridge(nu * np.eye(features.dim) + features.gram(visits))
    return ridge, ridge.solve(np.matmul(features.matrix().T, reward_sums[..., None]))[..., 0]


def fit_rewards(
    counts: RowCounts,
    features: FeatureMap,
    nu: float = 1.0,
    delta: float = 0.1,
    r_max: float = 1.0,
    alpha_mode: str = "lemma",
) -> list[RewardModel]:
    """fit_reward for each labeled row set of a RowCounts stack
    (RowCounts.stack), each model with the bits it gets alone: one ridge_fit
    over the stack, and one radius per distinct row count, which is one
    radius for row sets of one size."""
    require("nu", nu, positive, "a finite positive number")
    require("r_max", r_max, positive, "a finite positive number")
    if alpha_mode not in ALPHA_MODES:
        raise ValueError(f"unknown alpha_mode {alpha_mode!r}")
    if counts.missing.any():
        raise ValueError("fit_rewards requires labeled row sets")
    d = features.dim
    ridge, thetas = ridge_fit(features, counts.visits, counts.reward_sums, nu)
    sizes = counts.visits.sum(axis=-1).tolist()
    alphas = {n: lemma_alpha(d, n, nu, delta, r_max) if alpha_mode == "lemma"
              else theorem_alpha(d, n, delta, r_max) for n in set(sizes)}
    return [RewardModel(theta_hat=theta, lambda_matrix=one.matrix, alpha=alphas[n], nu=nu,
                        n_labeled=n, delta=delta, r_max=r_max, ridge=one)
            for theta, one, n in zip(thetas, ridge.unstack(), sizes)]


def fit_reward(
    labeled: OfflineDataset,
    features: FeatureMap,
    nu: float = 1.0,
    delta: float = 0.1,
    r_max: float = 1.0,
    alpha_mode: str = "lemma",
) -> RewardModel:
    """Ridge regression of observed rewards onto features: fit_rewards of
    the one row set labeled.

    The rows are read through their counts (OfflineDataset.counts): the
    visit counts, whose Gram gives Lambda, and the per-pair reward sums,
    which Phi^T maps to sum phi r. alpha_mode picks the ellipsoid radius:
    "lemma" (default, the operative data-independent radius) or "theorem"
    (the simplified main-theorem preset, which dominates it).
    """
    if not labeled.labeled:
        raise ValueError("fit_reward requires a labeled dataset")
    counts = RowCounts.stack([labeled.counts(features)], features.num_states)
    return fit_rewards(counts, features, nu, delta, r_max, alpha_mode)[0]


def _predictions(models, features: FeatureMap) -> np.ndarray:
    """<phi, theta_hat> at every pair id per model, (K, S*A): one stacked
    matrix-vector product."""
    thetas = np.stack([m.theta_hat for m in models])
    return np.matmul(features.matrix(), thetas[:, :, None])[:, :, 0]


def _deviations(models, features: FeatureMap) -> np.ndarray:
    """alpha * sqrt(phi^T Lambda^{-1} phi) at every pair id per model,
    (K, S*A): one stacked widths solve over the models' factors."""
    alphas = np.array([m.alpha for m in models])[:, None]
    return alphas * Ridge.stack([m.ridge for m in models]).widths(features.matrix())


def deviation_table(model: RewardModel, features: FeatureMap) -> np.ndarray:
    """Reward confidence width alpha * sqrt(phi^T Lambda^{-1} phi) at every (s,a)."""
    return _deviations([model], features).reshape(features.num_states, features.num_actions)


def predicted_table(model: RewardModel, features: FeatureMap) -> np.ndarray:
    """Plug-in predictions <phi, theta_hat> for every (s,a), shape (S, A)."""
    return _predictions([model], features).reshape(features.num_states, features.num_actions)


def pessimistic_table(model: RewardModel, features: FeatureMap) -> np.ndarray:
    """Lower-confidence reward at every (s,a), clamped into [0, r_max]."""
    return fill_table(model, features, "pds")


def fill_missing(rewards, table: np.ndarray, states, actions) -> np.ndarray:
    """rewards with each NaN row (every row if rewards is None) set to table[s, a]."""
    fills = table.reshape(-1).take(states * table.shape[1] + actions)
    return fills if rewards is None else np.where(np.isnan(rewards), fills, rewards)


def fill_tables(
    models, features: FeatureMap, mode: str, mdp: LinearMdp | None = None
) -> np.ndarray:
    """The (K, S, A) reward tables a relabel mode fills missing rewards from,
    one per model of models, each with the bits fill_table gives it alone.
    Only modes pds and predict read the models; uds and oracle read only
    how many there are."""
    if mode not in RELABEL_MODES:
        raise ValueError(f"mode must be one of {RELABEL_MODES}, got {mode!r}")
    shape = (len(models), features.num_states, features.num_actions)
    if mode == "oracle":
        if mdp is None:
            raise ValueError("mode='oracle' requires the true mdp")
        return np.broadcast_to(mdp.rewards, shape)
    if mode == "uds":
        return np.zeros(shape)
    table = _predictions(models, features)
    if mode == "pds":
        table = table - _deviations(models, features)
    r_max = np.array([m.r_max for m in models])[:, None]
    return np.clip(table, 0.0, r_max).reshape(shape)


def fill_table(
    model: RewardModel, features: FeatureMap, mode: str, mdp: LinearMdp | None = None
) -> np.ndarray:
    """The (S, A) reward table a relabel mode fills missing rewards from."""
    return fill_tables([model], features, mode, mdp)[0]


def relabel(
    unlabeled: OfflineDataset,
    model: RewardModel,
    features: FeatureMap,
    mode: str,
    mdp: LinearMdp | None = None,
) -> OfflineDataset:
    """Annotate missing rewards from fill_table and return a labeled dataset.

    Observed labels are kept in modes pds/uds/predict; oracle replaces
    everything with the true <phi, theta>.
    """
    table = fill_table(model, features, mode, mdp)
    unlabeled.check_features(features)
    observed = None if mode == "oracle" else unlabeled.rewards
    return unlabeled.with_rewards(
        fill_missing(observed, table, unlabeled.states, unlabeled.actions), labeled=True)

