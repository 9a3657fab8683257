"""Bootstrap reward ensembles and the min-minus-k-sigma pessimistic estimate.

L ridge regressors are fit on bootstrap resamples of the labeled data. At a
pair (s,a) with member predictions f_1..f_L the pessimistic reward is

    r_hat = max{ min_j f_j - k * sigma, 0 }        (the shipped default)

with sigma the population standard deviation across members; the mean-based
variant mu - k*sigma is available as estimator="mean". The penalty weight can
be fixed or automatic,

    k = a * max(mu - mu_hat, 0) / (|mu| + eps),

where mu is the labeled data's mean observed reward and mu_hat the mean
ensemble prediction over the unlabeled rows being relabeled. The member
minimum relates to a Gaussian order statistic through the quantile
coefficient Phi^{-1}((L - pi/8)/(L - pi/4 + 1)).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats

from pdslab.data import read_header, read_transitions, write_header, write_transitions
from pdslab.mdp import FeatureMap
from pdslab.reward import fill_missing
from pdslab.ridge import Ridge

AUTO_A_DEFAULT = 25.0
ENSEMBLE_SIZE_DEFAULT = 10
EPSILON_DEFAULT = 1e-8
K_CAP = 1e6
ESTIMATORS = ("min", "mean")


def gaussian_min_coefficient(ensemble_size: int) -> float:
    """Phi^{-1}((L - pi/8)/(L - pi/4 + 1)), the expected-extreme quantile factor."""
    if ensemble_size < 1:
        raise ValueError(f"ensemble_size must be >= 1, got {ensemble_size}")
    p = (ensemble_size - np.pi / 8.0) / (ensemble_size - np.pi / 4.0 + 1.0)
    return float(stats.norm.ppf(p))


@dataclass(frozen=True)
class EnsembleRewardModel:
    """L fitted member parameter vectors plus the penalty-weight settings.

    penalty_k=None means automatic: the Eq-style weight is resolved at
    relabel time from the labeled mean and the unlabeled predicted mean.
    """

    members: np.ndarray  # (L, d)
    features: FeatureMap
    labeled_mean: float
    nu: float
    seed: int | None = None
    penalty_k: float | None = None
    auto_a: float = AUTO_A_DEFAULT
    epsilon: float = EPSILON_DEFAULT

    def __post_init__(self):
        members = np.asarray(self.members, dtype=float)
        if members.ndim != 2 or members.shape[0] < 2:
            raise ValueError("need at least 2 ensemble members")
        if members.shape[1] != self.features.dim:
            raise ValueError("member dimension does not match features")
        if not np.all(np.isfinite(members)):
            raise ValueError("members must be finite")
        if not (np.isfinite(self.auto_a) and self.auto_a > 0):
            raise ValueError(f"auto_a must be finite and positive, got {self.auto_a}")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        if self.penalty_k is not None and not (np.isfinite(self.penalty_k)
                                               and self.penalty_k >= 0):
            raise ValueError(f"penalty_k must be finite and nonnegative, got {self.penalty_k}")
        members.setflags(write=False)
        object.__setattr__(self, "members", members)

    @property
    def l_count(self) -> int:
        return self.members.shape[0]

    def member_table(self) -> np.ndarray:
        """Per-member predictions at every pair, shape (L, S, A)."""
        rows = self.features.matrix()
        return (self.members @ rows.T).reshape(
            self.l_count, self.features.num_states, self.features.num_actions
        )

    def to_dict(self) -> dict:
        return {
            "members": self.members.tolist(),
            "phi": self.features.phi.tolist(),
            "labeled_mean": self.labeled_mean,
            "nu": self.nu,
            "seed": self.seed,
            "penalty_k": self.penalty_k,
            "auto_a": self.auto_a,
            "epsilon": self.epsilon,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "EnsembleRewardModel":
        return cls(
            members=np.asarray(doc["members"], dtype=float),
            features=FeatureMap(np.asarray(doc["phi"], dtype=float)),
            labeled_mean=float(doc["labeled_mean"]),
            nu=float(doc["nu"]),
            seed=doc.get("seed"),
            penalty_k=doc.get("penalty_k"),
            auto_a=float(doc.get("auto_a", AUTO_A_DEFAULT)),
            epsilon=float(doc.get("epsilon", EPSILON_DEFAULT)),
        )


def save_ensemble(model: EnsembleRewardModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model.to_dict()) + "\n")


def load_ensemble(path: str | Path) -> EnsembleRewardModel:
    return EnsembleRewardModel.from_dict(json.loads(Path(path).read_text()))


def fit_ensemble(
    labeled,
    features: FeatureMap,
    ensemble_size: int = ENSEMBLE_SIZE_DEFAULT,
    nu: float = 1.0,
    seed: int = 0,
    penalty_k: float | None = None,
    auto_a: float = AUTO_A_DEFAULT,
    epsilon: float = EPSILON_DEFAULT,
) -> EnsembleRewardModel:
    """Fit ensemble_size ridge members on bootstrap resamples of labeled data."""
    if ensemble_size < 2:
        raise ValueError(f"ensemble_size must be >= 2, got {ensemble_size}")
    if not labeled.labeled or len(labeled) == 0:
        raise ValueError("fit_ensemble requires nonempty labeled data")
    if nu <= 0:
        raise ValueError(f"nu must be positive, got {nu}")
    n, d = len(labeled), features.dim
    phi_rows = labeled.feature_rows(features)
    members = np.empty((ensemble_size, d))
    for j, child in enumerate(np.random.SeedSequence(seed).spawn(ensemble_size)):
        idx = np.random.default_rng(child).integers(0, n, size=n)
        sub = phi_rows[idx]
        members[j] = Ridge.from_rows(sub, nu).solve(sub.T @ labeled.rewards[idx])
    return EnsembleRewardModel(
        members=members,
        features=features,
        labeled_mean=float(labeled.rewards.mean()),
        nu=nu,
        seed=seed,
        penalty_k=penalty_k,
        auto_a=auto_a,
        epsilon=epsilon,
    )


def ensemble_stats(model: EnsembleRewardModel, features: FeatureMap, s: int, a: int):
    """(mean, population std, member minimum) of the predictions at (s,a)."""
    vals = model.members @ features.vector(s, a)
    return float(vals.mean()), float(vals.std()), float(vals.min())


def auto_k(model: EnsembleRewardModel, labeled_mean_mu: float, unlabeled_pred_mean: float) -> float:
    """a * max(mu - mu_hat, 0) / (|mu| + eps), capped to avoid blowup at mu ~ 0."""
    raw = model.auto_a * max(labeled_mean_mu - unlabeled_pred_mean, 0.0) / (
        abs(labeled_mean_mu) + model.epsilon
    )
    return float(min(raw, K_CAP))


def resolve_k(
    model: EnsembleRewardModel,
    k_override: float | None = None,
    unlabeled_pred_mean: float | None = None,
) -> float:
    """Pick the penalty weight: explicit override, fixed model k, or automatic."""
    if k_override is not None:
        # an infinite k would also turn into NaN wherever sigma is 0
        if not (np.isfinite(k_override) and k_override >= 0):
            raise ValueError(f"k must be finite and nonnegative, got {k_override}")
        return float(k_override)
    if model.penalty_k is not None:
        return model.penalty_k
    if unlabeled_pred_mean is None:
        raise ValueError(
            "automatic k needs unlabeled_pred_mean (the mean prediction over the data being relabeled)"
        )
    return auto_k(model, model.labeled_mean, unlabeled_pred_mean)


def pessimistic_ensemble_reward(
    model: EnsembleRewardModel,
    features: FeatureMap,
    s: int,
    a: int,
    k_override: float | None = None,
    unlabeled_pred_mean: float | None = None,
    estimator: str = "min",
) -> float:
    """max{min_j f_j - k*sigma, 0} (or the mean-based variant)."""
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
    k = resolve_k(model, k_override, unlabeled_pred_mean)
    mu, sigma, low = ensemble_stats(model, features, s, a)
    center = low if estimator == "min" else mu
    return float(max(center - k * sigma, 0.0))


def _pessimistic_tables(model: EnsembleRewardModel, k: float, estimator: str):
    table = model.member_table()
    center = table.min(axis=0) if estimator == "min" else table.mean(axis=0)
    return np.maximum(center - k * table.std(axis=0), 0.0)


def relabel_file(
    input_path: str | Path,
    output_path: str | Path,
    model: EnsembleRewardModel,
    k_mode: str | float = "auto",
    estimator: str = "min",
) -> dict:
    """Fill missing rewards in a JSONL transition file with ensemble estimates.

    k_mode is "auto" or a nonnegative number. Lines that already carry a
    reward pass through unchanged and are tallied separately. Returns a
    summary with the row counts, the k actually used, and the written
    rewards' mean/min/max.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
    states, actions, rewards, next_states, linenos = read_transitions(input_path)
    meta = read_header(input_path, len(states))
    num_states = model.features.num_states
    bad = ((states < 0) | (states >= num_states)
           | (actions < 0) | (actions >= model.features.num_actions))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"no feature row for (s={states[i]}, a={actions[i]}) at line {linenos[i]}")
    bad = (next_states < 0) | (next_states >= num_states)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"next state sp={next_states[i]} out of range for {num_states} states "
            f"at line {linenos[i]}"
        )

    missing = np.isnan(rewards)
    if k_mode != "auto":
        k = resolve_k(model, k_override=float(k_mode))
    elif missing.any():
        rows = model.features.phi[states[missing], actions[missing]]
        k = resolve_k(model, unlabeled_pred_mean=float((rows @ model.members.mean(axis=0)).mean()))
    else:
        k = 0.0

    filled = fill_missing(rewards, _pessimistic_tables(model, k, estimator), states, actions)
    write_transitions(output_path, states, actions, filled, next_states)
    if meta is not None:
        write_header(output_path, {**meta, "labeled": True})

    written = filled[missing]
    return {
        "count": len(states),
        "relabeled": len(written),
        "passthrough": len(states) - len(written),
        "k": k,
        "reward_mean": float(np.mean(written)) if len(written) else None,
        "reward_min": float(np.min(written)) if len(written) else None,
        "reward_max": float(np.max(written)) if len(written) else None,
    }
