"""Bootstrap reward ensembles and the min-minus-k-sigma pessimistic estimate.

L ridge regressors are fit on bootstrap resamples of the labeled data. At a
pair (s,a) with member predictions f_1..f_L the pessimistic reward is

    r_hat = max{ min_j f_j - k * sigma, 0 }        (the shipped default)

with sigma the population standard deviation across members; the mean-based
variant mu - k*sigma is available as estimator="mean". A model holds only what
the fit produces; the penalty weight is chosen when a file is relabeled, as a
fixed k or automatically as

    k = a * max(mu - mu_hat, 0) / (|mu| + eps),

where mu is the labeled data's mean observed reward (kept on the model) and
mu_hat the mean ensemble prediction over the unlabeled rows being relabeled.
The member minimum relates to a Gaussian order statistic through the quantile
coefficient Phi^{-1}((L - pi/8)/(L - pi/4 + 1)). Phi^{-1} is the standard
library's statistics.NormalDist().inv_cdf, which stays within 2.2e-15 of
scipy.stats.norm.ppf for L = 1..5000 and keeps scipy.stats out of the
package's imports; no estimator here calls the coefficient.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

from pdslab.data import (
    check_shape,
    read_header,
    read_transitions,
    write_header,
    write_transitions,
)
from pdslab.mdp import FeatureMap, json_number, json_numbers, nonnegative, positive, require
from pdslab.reward import fill_missing
from pdslab.ridge import Ridge

AUTO_A_DEFAULT = 25.0
ENSEMBLE_SIZE_DEFAULT = 10
EPSILON = 1e-8
K_CAP = 1e6
ESTIMATORS = ("min", "mean")
MODEL_FIELDS = ("members", "phi", "labeled_mean", "nu")
# Older model files also stored penalty-weight settings. A file loads only if
# each matches relabel's default; otherwise the message names the flag to pass.
LEGACY_SETTINGS = {"penalty_k": (None, "--k"), "auto_a": (AUTO_A_DEFAULT, "--a"),
                   "epsilon": (EPSILON, "a fixed --k")}


def gaussian_min_coefficient(ensemble_size: int) -> float:
    """Phi^{-1}((L - pi/8)/(L - pi/4 + 1)), the expected-extreme quantile factor."""
    require("ensemble_size", ensemble_size, positive, "an integer >= 1", integer=True)
    p = (ensemble_size - np.pi / 8.0) / (ensemble_size - np.pi / 4.0 + 1.0)
    return NormalDist().inv_cdf(p)


@dataclass(frozen=True)
class EnsembleRewardModel:
    """L fitted member parameter vectors and the labeled mean they were fit to."""

    members: np.ndarray  # (L, d)
    features: FeatureMap
    labeled_mean: float
    nu: float
    seed: int | None = None

    def __post_init__(self):
        members = np.asarray(self.members, dtype=float)
        if members.ndim != 2 or members.shape[0] < 2:
            raise ValueError("need at least 2 ensemble members")
        if members.shape[1] != self.features.dim:
            raise ValueError("member dimension does not match features")
        if not np.all(np.isfinite(members)):
            raise ValueError("members must be finite")
        require("labeled_mean", self.labeled_mean, None, "finite")
        require("nu", self.nu, positive, "a finite positive number")
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
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "EnsembleRewardModel":
        """Load a model; a file that stored a penalty weight other than
        relabel's defaults is refused, naming the relabel flag to pass."""
        for key in MODEL_FIELDS:
            if key not in doc:
                raise ValueError(f"model file is missing field {key!r}")
        for key, (default, flag) in LEGACY_SETTINGS.items():
            if doc.get(key, default) != default:
                raise ValueError(
                    f"model file sets {key}={doc[key]!r}, which relabel no longer reads: "
                    f"the penalty weight is chosen at relabel time, so pass {flag} to relabel"
                )
        return cls(
            members=json_numbers("model", "members", doc["members"]),
            features=FeatureMap(json_numbers("model", "phi", doc["phi"])),
            labeled_mean=json_number("model", "labeled_mean", doc["labeled_mean"]),
            nu=json_number("model", "nu", doc["nu"]),
            seed=require("model field 'seed'", doc.get("seed"), None, "an integer or null",
                         integer=True, nullable=True),
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
) -> EnsembleRewardModel:
    """Fit ensemble_size ridge members on bootstrap resamples of labeled data;
    a resample reduces to the visit counts and per-pair reward sums of the
    rows it draws, summed in draw order."""
    require("ensemble_size", ensemble_size, lambda v: v >= 2, "an integer >= 2", integer=True)
    if not labeled.labeled or len(labeled) == 0:
        raise ValueError("fit_ensemble requires nonempty labeled data")
    require("nu", nu, positive, "a finite positive number")
    n, d = len(labeled), features.dim
    pairs, rows = labeled.pair_ids(features), features.matrix()
    members = np.empty((ensemble_size, d))
    for j, child in enumerate(np.random.SeedSequence(seed).spawn(ensemble_size)):
        idx = np.random.default_rng(child).integers(0, n, size=n)
        drawn = pairs[idx]
        ridge = Ridge(nu * np.eye(d) + features.gram(features.pair_sums(drawn)))
        members[j] = ridge.solve(rows.T @ features.pair_sums(drawn, labeled.rewards[idx]))
    return EnsembleRewardModel(
        members=members,
        features=features,
        labeled_mean=float(labeled.rewards.mean()),
        nu=nu,
        seed=seed,
    )


def auto_k(model: EnsembleRewardModel, unlabeled_pred_mean: float,
           a: float = AUTO_A_DEFAULT) -> float:
    """a * max(mu - mu_hat, 0) / (|mu| + eps), capped to avoid blowup at mu ~ 0."""
    mu = model.labeled_mean
    raw = a * max(mu - unlabeled_pred_mean, 0.0) / (abs(mu) + EPSILON)
    return float(min(raw, K_CAP))


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
    auto_a: float = AUTO_A_DEFAULT,
) -> dict:
    """Fill missing rewards in a JSONL transition file with ensemble estimates.

    k_mode is "auto" (auto_k over the missing rows, with a = auto_a) or a
    finite nonnegative number; k and a are checked before the input is read.
    Lines that already carry a reward keep their values and are tallied as
    passthrough, but every line is written back in canonical form: only s,
    a, r and sp are kept, and r is rewritten as repr(float), so {"s": 1,
    "a": 0, "r": 0.50, "sp": 2, "episode": 7} comes out as {"s": 1, "a": 0,
    "r": 0.5, "sp": 2}. Returns
    a summary with the row counts, the k actually used, and the written
    rewards' mean/min/max. The input's sidecar header, if any, is copied
    with "labeled": true; a header shape or a row that the model's feature
    table does not cover raises ValueError before anything is written.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
    k = None
    if k_mode != "auto":
        try:  # the command line passes k as text
            k = float(k_mode) if isinstance(k_mode, str) else k_mode
        except ValueError as exc:
            raise ValueError(f"k must be 'auto' or a number, got {k_mode!r}") from exc
        # an infinite k would also turn into NaN wherever sigma is 0
        k = float(require("k", k, nonnegative, "finite and nonnegative"))
    require("a", auto_a, positive, "finite and positive")
    states, actions, rewards, next_states, linenos = read_transitions(input_path)
    meta = read_header(input_path, len(states))
    if meta is not None:  # the labeled file keeps this shape, so the model must cover it
        check_shape(meta.get("num_states", 0), meta.get("num_actions", 0), model.features)
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
    if k is None and missing.any():
        features = model.features  # phi[s, a] is row s*A + a of the stacked matrix
        rows = features.matrix().take(states[missing] * features.num_actions + actions[missing],
                                      axis=0)
        k = auto_k(model, float((rows @ model.members.mean(axis=0)).mean()), auto_a)
    elif k is None:
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
