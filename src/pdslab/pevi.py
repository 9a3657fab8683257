"""Pessimistic value iteration over offline linear-MDP data.

Each sweep ridge-regresses the one-step Bellman targets r + gamma*V(s')
onto the recorded features,

    w_hat = Lambda^{-1} sum_tau phi_tau (r_tau + gamma * V(s'_tau)),
    Lambda = lambda_reg * I + sum_tau phi_tau phi_tau^T,

subtracts the elliptical bonus Gamma(s,a) = beta * sqrt(phi^T Lambda^{-1} phi),
and clamps into [0, v_max]:

    Q(s,a) = clamp(<phi(s,a), w_hat> - Gamma(s,a), 0, v_max),
    V(s) = max_a Q(s,a),  policy greedy with lowest-index ties.

Lambda and Gamma depend only on the dataset, so both are built and factorized
once per solve; only w_hat moves between sweeps. For one-hot features the
sweep map is a sup-norm contraction, but general feature maps can defeat
that, so the returned solution carries a converged flag and the residual
trace instead of promising a fixed point.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pdslab.data import OfflineDataset
from pdslab.mdp import FeatureMap, Policy
from pdslab.ridge import Ridge


def theorem_beta(
    d: int, n_total: int, gamma: float, r_max: float, delta: float, c: float = 1.0
) -> float:
    """Bonus scale c*d*sqrt(log(4d*N/((1-gamma)*delta)))*r_max/(1-gamma)."""
    if d < 1 or n_total < 1:
        raise ValueError("d and n_total must be >= 1")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    if not 0 <= gamma < 1:
        raise ValueError(f"gamma must be in [0,1), got {gamma}")
    if r_max <= 0 or c <= 0:
        raise ValueError("r_max and c must be positive")
    zeta1 = np.log(4.0 * d * n_total / ((1.0 - gamma) * delta))
    return float(c * d * np.sqrt(zeta1) * r_max / (1.0 - gamma))


@dataclass(frozen=True)
class PeviConfig:
    lambda_reg: float
    beta: float
    gamma: float
    v_max: float
    tol: float | None = None
    max_sweeps: int | None = None

    def __post_init__(self):
        if self.lambda_reg <= 0:
            raise ValueError(f"lambda_reg must be positive, got {self.lambda_reg}")
        if self.beta < 0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")
        if not 0 <= self.gamma < 1:
            raise ValueError(f"gamma must be in [0,1), got {self.gamma}")
        if self.v_max <= 0:
            raise ValueError(f"v_max must be positive, got {self.v_max}")
        if self.tol is None:
            object.__setattr__(self, "tol", 1e-8 * self.v_max)
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_sweeps is None:
            # contraction-rate sizing: ~ effective horizon * log(1/tol)
            horizon = np.ceil(1.0 / (1.0 - self.gamma))
            object.__setattr__(
                self, "max_sweeps", int(np.ceil(10.0 * horizon * np.log(1.0 / self.tol)))
            )
        if self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be >= 1, got {self.max_sweeps}")

    @classmethod
    def for_mdp(
        cls, gamma: float, r_max: float, beta: float, lambda_reg: float = 1.0, **kwargs
    ) -> "PeviConfig":
        v_max = r_max if gamma == 0 else r_max / (1.0 - gamma)
        return cls(lambda_reg=lambda_reg, beta=beta, gamma=gamma, v_max=v_max, **kwargs)

    @classmethod
    def theorem_preset(
        cls,
        d: int,
        n_total: int,
        gamma: float,
        r_max: float,
        delta: float = 0.1,
        c: float = 1.0,
        lambda_reg: float = 1.0,
        **kwargs,
    ) -> "PeviConfig":
        beta = theorem_beta(d, n_total, gamma, r_max, delta, c)
        return cls.for_mdp(gamma, r_max, beta, lambda_reg=lambda_reg, **kwargs)


@dataclass(frozen=True)
class PeviSolution:
    w_hat: np.ndarray          # (d,)
    lambda_matrix: np.ndarray  # (d, d)
    beta: float
    q_hat: np.ndarray          # (S, A)
    v_hat: np.ndarray          # (S,)
    policy: Policy
    sweeps_used: int
    converged: bool
    residuals: tuple = field(default=())

    def to_dict(self) -> dict:
        lam_hash = hashlib.sha256(
            np.ascontiguousarray(self.lambda_matrix).tobytes()
        ).hexdigest()[:16]
        return {
            "w_hat": self.w_hat.tolist(),
            "beta": self.beta,
            "lambda_hash": lam_hash,
            "v_hat": self.v_hat.tolist(),
            "policy": np.argmax(self.policy.probs, axis=1).tolist(),
            "sweeps_used": self.sweeps_used,
            "converged": self.converged,
        }


def save_solution(solution: PeviSolution, path: str | Path) -> None:
    Path(path).write_text(json.dumps(solution.to_dict()) + "\n")


def _bellman_ridge(dataset: OfflineDataset, features: FeatureMap, lambda_reg: float):
    """The dataset's feature rows and the ridge over them."""
    if len(dataset) == 0:
        raise ValueError("bellman_gram requires a nonempty dataset")
    if lambda_reg <= 0:
        raise ValueError(f"lambda_reg must be positive, got {lambda_reg}")
    phi = dataset.feature_rows(features)
    return phi, Ridge.from_rows(phi, lambda_reg)


def bellman_gram(dataset: OfflineDataset, features: FeatureMap, lambda_reg: float) -> np.ndarray:
    """lambda_reg * I + sum of phi phi^T over the dataset rows."""
    return _bellman_ridge(dataset, features, lambda_reg)[1].matrix


def bellman_regress(
    dataset: OfflineDataset,
    features: FeatureMap,
    v: np.ndarray,
    lambda_reg: float,
    gamma: float,
    v_max: float | None = None,
) -> np.ndarray:
    """Ridge solution for the Bellman targets r + gamma * v(s')."""
    if not dataset.labeled:
        raise ValueError("bellman_regress requires labeled transitions")
    v = np.asarray(v, dtype=float)
    if v_max is not None and (v.min() < -1e-12 or v.max() > v_max + 1e-9):
        raise ValueError("value vector leaves [0, v_max]")
    phi, ridge = _bellman_ridge(dataset, features, lambda_reg)
    return ridge.solve(phi.T @ (dataset.rewards + gamma * v[dataset.next_states]))


def uncertainty_bonus(
    lambda_matrix: np.ndarray, features: FeatureMap, beta: float, s: int, a: int
) -> float:
    """beta * sqrt(phi^T Lambda^{-1} phi) at one state-action pair."""
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    return float(beta * Ridge(lambda_matrix).widths(features.vector(s, a)[None, :])[0])


def bonus_table(lambda_matrix: np.ndarray, features: FeatureMap, beta: float) -> np.ndarray:
    """uncertainty_bonus at every (s,a), shape (S, A)."""
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    widths = Ridge(lambda_matrix).widths(features.matrix())
    return (beta * widths).reshape(features.num_states, features.num_actions)


def pevi_solve(
    dataset: OfflineDataset, features: FeatureMap, config: PeviConfig
) -> PeviSolution:
    if not dataset.labeled:
        raise ValueError("pevi_solve requires a fully labeled dataset")
    phi, ridge = _bellman_ridge(dataset, features, config.lambda_reg)
    rows = features.matrix()
    num_states, num_actions = features.num_states, features.num_actions
    gamma_table = (config.beta * ridge.widths(rows)).reshape(num_states, num_actions)
    v = np.zeros(num_states)
    w = np.zeros(features.dim)
    q = np.zeros((num_states, num_actions))
    residuals = []
    converged = False
    sweeps = 0
    for sweeps in range(1, config.max_sweeps + 1):
        targets = dataset.rewards + config.gamma * v[dataset.next_states]
        w = ridge.solve(phi.T @ targets)
        q = np.clip(
            (rows @ w).reshape(num_states, num_actions) - gamma_table, 0.0, config.v_max
        )
        v_next = q.max(axis=1)
        residuals.append(float(np.abs(v_next - v).max()))
        v = v_next
        if residuals[-1] < config.tol:
            converged = True
            break

    return PeviSolution(
        w_hat=w,
        lambda_matrix=ridge.matrix,
        beta=config.beta,
        q_hat=q,
        v_hat=v,
        policy=Policy.greedy(q),
        sweeps_used=sweeps,
        converged=converged,
        residuals=tuple(residuals),
    )
