"""Pessimistic value iteration over offline linear-MDP data.

Each sweep ridge-regresses the one-step Bellman targets r + gamma*V(s')
onto the recorded features,

    w_hat = Lambda^{-1} sum_tau phi_tau (r_tau + gamma * V(s'_tau)),
    Lambda = lambda_reg * I + sum_tau phi_tau phi_tau^T,

subtracts the elliptical bonus Gamma(s,a) = beta * sqrt(phi^T Lambda^{-1} phi),
and clamps into [0, v_max]:

    Q(s,a) = clamp(<phi(s,a), w_hat> - Gamma(s,a), 0, v_max),
    V(s) = max_a Q(s,a),  policy greedy with lowest-index ties.

Lambda and Gamma depend only on the dataset's rows (s, a, s'), not on its
rewards, and the regression of the targets splits the same way: with the
next-state feature sums B[k, s'] = sum over the rows with s'_tau = s' of
phi_tau[k], a d x S matrix,

    w_hat = w_r + gamma * Lambda^{-1} B v,   w_r = Lambda^{-1} sum_tau phi_tau r_tau.

w_r and gamma * Lambda^{-1} B are built once per solve, so each sweep costs
O(dS + SAd) and does not touch the N dataset rows. phi depends only on
(s, a), so pevi_problems reads a row set as its RowCounts
(OfflineDataset.counts) and each reward vector as its per-pair sums, and
reduces them to a PeviProblem, whose size does not depend on N: Lambda
from the visit counts' Gram, Gamma and gamma * Lambda^{-1} B once, with B
from the (s, a, s') counts (next_state_sums), and per vector w_r from
Phi^T times it. pevi_lockstep runs the sweeps of many problems over one
feature map together, each with its own convergence; pevi_solve is a batch
of one, and a problem gives the same numbers bit for bit in any batch. For
one-hot features the sweep map is a sup-norm contraction, but general
feature maps can defeat that, so the returned solution carries a converged
flag and the residual trace instead of promising a fixed point.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from pdslab.data import OfflineDataset, RowCounts
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
        # each check is written so that NaN fails it
        if not (np.isfinite(self.lambda_reg) and self.lambda_reg > 0):
            raise ValueError(f"lambda_reg must be a finite positive number, got {self.lambda_reg}")
        if not (np.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be a finite nonnegative number, got {self.beta}")
        if not 0 <= self.gamma < 1:
            raise ValueError(f"gamma must be in [0,1), got {self.gamma}")
        if not (np.isfinite(self.v_max) and self.v_max > 0):
            raise ValueError(f"v_max must be a finite positive number, got {self.v_max}")
        if self.tol is None:
            object.__setattr__(self, "tol", 1e-8 * self.v_max)
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be a finite positive number, got {self.tol}")
        if self.max_sweeps is None:
            # contraction-rate sizing: ~ effective horizon * log(1/tol)
            horizon = np.ceil(1.0 / (1.0 - self.gamma))
            sweeps = int(np.ceil(10.0 * horizon * np.log(1.0 / self.tol)))
            object.__setattr__(self, "max_sweeps", max(1, sweeps))
        if (isinstance(self.max_sweeps, bool) or not isinstance(self.max_sweeps, numbers.Integral)
                or self.max_sweeps < 1):
            raise ValueError(f"max_sweeps must be an integer >= 1, got {self.max_sweeps!r}")

    @classmethod
    def for_mdp(
        cls, gamma: float, r_max: float, beta: float, lambda_reg: float = 1.0, **kwargs
    ) -> "PeviConfig":
        v_max = r_max / (1.0 - gamma)
        return cls(lambda_reg=lambda_reg, beta=beta, gamma=gamma, v_max=v_max, **kwargs)


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


def bonus_table(lambda_matrix: np.ndarray, features: FeatureMap, beta: float) -> np.ndarray:
    """beta * sqrt(phi^T Lambda^{-1} phi) at every (s,a), shape (S, A)."""
    if not (np.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be a finite nonnegative number, got {beta}")
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


def next_state_sums(features: FeatureMap, counts: RowCounts) -> np.ndarray:
    """B[k, s'], the sum of phi_k over the rows landing in s', (d, S), of the
    row set with these counts: per feature column one bincount over its
    transitions weighted by phi_k * count."""
    pairs, next_states = np.divmod(counts.transitions, features.num_states)
    return np.stack([np.bincount(next_states, weights=column.take(pairs) * counts.counts,
                                 minlength=features.num_states)
                     for column in features.matrix().T])


def pevi_problems(features: FeatureMap, counts: RowCounts, reward_sums,
                  config: PeviConfig) -> list[PeviProblem]:
    """One PeviProblem per vector of per-pair reward sums in reward_sums, for
    the row set with these counts: Lambda is factored once and each vector
    costs one w_r solve."""
    rows = features.matrix()
    ridge = Ridge(config.lambda_reg * np.eye(features.dim) + features.gram(counts.visits))
    bonus = (config.beta * ridge.widths(rows)).reshape(features.num_states, features.num_actions)
    sweep_map = config.gamma * ridge.solve(next_state_sums(features, counts))
    return [
        PeviProblem(config=config, lambda_matrix=ridge.matrix, sweep_map=sweep_map,
                    w_reward=ridge.solve(rows.T @ sums), bonus=bonus)
        for sums in reward_sums
    ]


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
    """pevi_problems of a nonempty labeled dataset's counts and its own reward
    sums, then pevi_lockstep on a batch of one."""
    if len(dataset) == 0:
        raise ValueError("pevi_solve requires a nonempty dataset")
    if not dataset.labeled:
        raise ValueError("pevi_solve requires a fully labeled dataset")
    counts = dataset.counts(features)
    return pevi_lockstep(pevi_problems(features, counts, [counts.reward_sums], config),
                         features)[0]
