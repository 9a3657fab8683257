"""Pessimistic value iteration over offline linear-MDP data.

Each sweep ridge-regresses the one-step Bellman targets r + gamma*V(s')
onto the recorded features,

    w_hat = Lambda^{-1} sum_tau phi_tau (r_tau + gamma * V(s'_tau)),
    Lambda = lambda_reg * I + sum_tau phi_tau phi_tau^T,

subtracts the elliptical bonus Gamma(s,a) = beta * sqrt(phi^T Lambda^{-1} phi),
and clamps into [0, v_max]:

    Q(s,a) = clamp(<phi(s,a), w_hat> - Gamma(s,a), 0, v_max),
    V(s) = max_a Q(s,a),  policy greedy with lowest-index ties.

Lambda and Gamma depend only on the dataset, and so does the regression of
the targets: with the next-state feature sums B[k, s'] = sum over the rows
with s'_tau = s' of phi_tau[k], a d x S matrix,

    w_hat = w_r + gamma * Lambda^{-1} B v,   w_r = Lambda^{-1} sum_tau phi_tau r_tau.

w_r and gamma * Lambda^{-1} B are built once per solve, so each sweep costs
O(dS + SAd) and does not touch the N dataset rows. pevi_prepare reduces a
dataset to these pieces (a PeviProblem, whose size does not depend on N),
and pevi_lockstep runs the sweeps of many problems over one feature map
together, each with its own convergence; pevi_solve is a batch of one, and
a problem gives the same numbers bit for bit in any batch. For one-hot features the
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


@dataclass(frozen=True)
class PeviProblem:
    """One dataset's PEVI solve reduced to what its sweeps read.

    Its size, O(d^2 + dS + SA), does not depend on the dataset's N.
    """

    config: PeviConfig
    lambda_matrix: np.ndarray  # Lambda, (d, d)
    sweep_map: np.ndarray      # gamma * Lambda^{-1} B, (d, S)
    w_reward: np.ndarray       # Lambda^{-1} sum_tau phi_tau r_tau, (d,)
    bonus: np.ndarray          # Gamma, (S, A)


def pevi_prepare(
    dataset: OfflineDataset, features: FeatureMap, config: PeviConfig
) -> PeviProblem:
    """Reduce a labeled dataset to its PeviProblem; see pevi_lockstep."""
    if not dataset.labeled:
        raise ValueError("pevi_solve requires a fully labeled dataset")
    phi, ridge = _bellman_ridge(dataset, features, config.lambda_reg)
    bonus = config.beta * ridge.widths(features.matrix())
    # B[k, s'] sums phi_k over the rows landing in s', so phi^T v(s') = B v.
    next_sums = np.stack([
        np.bincount(dataset.next_states, weights=phi[:, k], minlength=features.num_states)
        for k in range(features.dim)
    ])
    return PeviProblem(
        config=config,
        lambda_matrix=ridge.matrix,
        sweep_map=config.gamma * ridge.solve(next_sums),
        w_reward=ridge.solve(phi.T @ dataset.rewards),
        bonus=bonus.reshape(features.num_states, features.num_actions),
    )


def pevi_lockstep(problems, features: FeatureMap) -> list[PeviSolution]:
    """Solve PEVI problems over one feature map together, sweep by sweep.

    Each sweep stacks the problems still active and runs the products of a
    lone solve on the stack; np.matmul repeats the 2-D product per problem,
    so every solution is bit for bit what that problem gives alone. A
    problem leaves the active set when it converges or reaches its own
    max_sweeps, and keeps its own residual trace.
    """
    problems = list(problems)
    if not problems:
        return []
    num_states, num_actions = features.num_states, features.num_actions
    if any(p.sweep_map.shape != (features.dim, num_states)
           or p.bonus.shape != (num_states, num_actions) for p in problems):
        raise ValueError("PEVI problem shape does not match the feature map")
    rows = features.matrix()
    active = np.arange(len(problems))
    sweep_map, w_reward, bonus = (
        np.stack([getattr(p, name) for p in problems])
        for name in ("sweep_map", "w_reward", "bonus")
    )
    v_max, tol, max_sweeps = (
        np.array([getattr(p.config, name) for p in problems], dtype=float)
        for name in ("v_max", "tol", "max_sweeps")
    )
    v = np.zeros((len(problems), num_states))
    history, finals = [], [None] * len(problems)
    sweeps = 0
    while active.size:
        sweeps += 1
        w = w_reward + np.matmul(sweep_map, v[:, :, None])[:, :, 0]
        q = np.clip(
            np.matmul(rows, w[:, :, None]).reshape(-1, num_states, num_actions) - bonus,
            0.0, v_max[:, None, None],
        )
        v_next = q.max(axis=2)
        residuals = np.abs(v_next - v).max(axis=1)
        v = v_next
        history.append(np.full(len(problems), np.nan))
        history[-1][active] = residuals
        converged = residuals < tol
        done = converged | (sweeps >= max_sweeps)
        if done.any():
            for j in np.flatnonzero(done):
                finals[active[j]] = (w[j].copy(), q[j].copy(), v[j].copy(), sweeps,
                                     bool(converged[j]))
            keep = ~done
            active, sweep_map, w_reward, bonus, v_max, tol, max_sweeps, v = (
                a[keep] for a in (active, sweep_map, w_reward, bonus, v_max, tol,
                                  max_sweeps, v)
            )
    traces = np.stack(history)  # (sweeps, problems), NaN once a problem has left
    return [
        PeviSolution(
            w_hat=w,
            lambda_matrix=p.lambda_matrix,
            beta=p.config.beta,
            q_hat=q,
            v_hat=v,
            policy=Policy.greedy(q),
            sweeps_used=used,
            converged=converged,
            residuals=tuple(traces[:used, i].tolist()),
        )
        for i, (p, (w, q, v, used, converged)) in enumerate(zip(problems, finals))
    ]


def pevi_solve(
    dataset: OfflineDataset, features: FeatureMap, config: PeviConfig
) -> PeviSolution:
    """pevi_prepare then pevi_lockstep on a batch of one."""
    return pevi_lockstep([pevi_prepare(dataset, features, config)], features)[0]
