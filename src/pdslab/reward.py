"""Ridge reward regression with a confidence ellipsoid, and pessimistic relabeling.

The model is theta_hat = Lambda^{-1} sum phi_tau r_tau with
Lambda = nu*I + sum phi_tau phi_tau^T over the labeled data. The ellipsoid
radius alpha makes {theta : ||theta - theta_hat||_Lambda <= alpha} hold the
true parameter with probability 1 - delta, and the induced pointwise bound
alpha * sqrt(phi^T Lambda^{-1} phi) drives the pessimistic reward

    r_hat(s,a) = clamp(<phi, theta_hat> - alpha*sqrt(phi^T Lambda^{-1} phi), 0, r_max).

Relabeling modes: pds (pessimistic), uds (zeros), predict (plain plug-in),
oracle (true rewards, requires the generating MDP).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from pdslab.data import OfflineDataset
from pdslab.mdp import FeatureMap, LinearMdp
from pdslab.ridge import Ridge

RELABEL_MODES = ("pds", "uds", "predict", "oracle")
ALPHA_MODES = ("lemma", "theorem")


def check_positive(name: str, value) -> None:
    """Raise ValueError naming the argument unless value is a finite positive number."""
    if not (np.isfinite(value) and value > 0):  # NaN fails both tests
        raise ValueError(f"{name} must be a finite positive number, got {value}")


def lemma_alpha(dim: int, n_labeled: int, nu: float, delta: float, r_max: float) -> float:
    """Data-independent ellipsoid radius for the ridge reward estimate."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    check_positive("nu", nu)
    return float(
        np.sqrt(nu)
        + r_max * np.sqrt(2.0 * np.log(1.0 / delta) + dim * np.log(1.0 + n_labeled / (nu * dim)))
    )


def theorem_alpha(dim: int, n_labeled: int, delta: float, r_max: float) -> float:
    """The simplified radius used by the main-theorem presets: 2*r_max*sqrt(d*zeta2)."""
    if n_labeled < 1:
        raise ValueError("theorem preset needs n_labeled >= 1")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0,1), got {delta}")
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
    # the factored Lambda; fit_reward hands over the one it built from the
    # visit counts, which is then trusted as is instead of validated and
    # refactored
    ridge: Ridge | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for name in ("nu", "r_max", "alpha"):
            check_positive(name, getattr(self, name))
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


def fit_reward(
    labeled: OfflineDataset,
    features: FeatureMap,
    nu: float = 1.0,
    delta: float = 0.1,
    r_max: float = 1.0,
    alpha_mode: str = "lemma",
) -> RewardModel:
    """Ridge regression of observed rewards onto features.

    The rows are read through their counts (OfflineDataset.counts): the
    visit counts, whose Gram gives Lambda, and the per-pair reward sums,
    which Phi^T maps to sum phi r. alpha_mode picks the ellipsoid radius:
    "lemma" (default, the operative data-independent radius) or "theorem"
    (the simplified main-theorem preset, which dominates it).
    """
    if not labeled.labeled:
        raise ValueError("fit_reward requires a labeled dataset")
    check_positive("nu", nu)
    check_positive("r_max", r_max)
    n, d = len(labeled), features.dim
    counts = labeled.counts(features)
    ridge = Ridge(nu * np.eye(d) + features.gram(counts.visits))
    theta_hat = ridge.solve(features.matrix().T @ counts.reward_sums)
    if alpha_mode == "lemma":
        alpha = lemma_alpha(d, n, nu, delta, r_max)
    elif alpha_mode == "theorem":
        alpha = theorem_alpha(d, n, delta, r_max)
    else:
        raise ValueError(f"unknown alpha_mode {alpha_mode!r}")
    return RewardModel(
        theta_hat=theta_hat,
        lambda_matrix=ridge.matrix,
        alpha=alpha,
        nu=nu,
        n_labeled=n,
        delta=delta,
        r_max=r_max,
        ridge=ridge,
    )


def deviation_table(model: RewardModel, features: FeatureMap) -> np.ndarray:
    """Reward confidence width alpha * sqrt(phi^T Lambda^{-1} phi) at every (s,a)."""
    widths = model.ridge.widths(features.matrix())
    return (model.alpha * widths).reshape(features.num_states, features.num_actions)


def predicted_table(model: RewardModel, features: FeatureMap) -> np.ndarray:
    """Plug-in predictions <phi, theta_hat> for every (s,a), shape (S, A)."""
    return (features.matrix() @ model.theta_hat).reshape(
        features.num_states, features.num_actions
    )


def pessimistic_table(model: RewardModel, features: FeatureMap) -> np.ndarray:
    """Lower-confidence reward at every (s,a), clamped into [0, r_max]."""
    table = predicted_table(model, features) - deviation_table(model, features)
    return np.clip(table, 0.0, model.r_max)


def fill_missing(rewards, table: np.ndarray, states, actions) -> np.ndarray:
    """rewards with each NaN row (every row if rewards is None) set to table[s, a]."""
    fills = table.reshape(-1).take(states * table.shape[1] + actions)
    return fills if rewards is None else np.where(np.isnan(rewards), fills, rewards)


def fill_table(
    model: RewardModel, features: FeatureMap, mode: str, mdp: LinearMdp | None = None
) -> np.ndarray:
    """The (S, A) reward table a relabel mode fills missing rewards from."""
    if mode not in RELABEL_MODES:
        raise ValueError(f"mode must be one of {RELABEL_MODES}, got {mode!r}")
    if mode == "oracle":
        if mdp is None:
            raise ValueError("mode='oracle' requires the true mdp")
        return mdp.rewards
    if mode == "uds":
        return np.zeros((features.num_states, features.num_actions))
    if mode == "predict":
        return np.clip(predicted_table(model, features), 0.0, model.r_max)
    return pessimistic_table(model, features)


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
    from pdslab.data import sample_dataset
    from pdslab.mdp import Policy

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
