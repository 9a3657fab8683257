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
Phi^T times it. It reduces a stack of row sets (RowCounts.stack) in one
stacked numpy call per step, each row set with the bits it gets alone, so a
sweep builds a group of cells together. pevi_lockstep runs the sweeps of
many problems over one feature map together, each with its own
convergence; pevi_solve is a batch of one, and a problem gives the same
numbers bit for bit in any batch. For one-hot features the sweep map is a
sup-norm contraction, but general feature maps can defeat that, so the
returned solution carries a converged flag and the residual trace instead
of promising a fixed point.
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
    row set with these counts, or (K, d, S) of a stack of K (RowCounts.stack):
    per feature column one bincount over every row set's transitions, row set
    j's in bins j*S to j*S + S - 1, weighted by phi_k * count."""
    num_states, num_pairs = features.num_states, counts.visits.shape[-1]
    row_sets = counts.visits.size // num_pairs
    # row set j's pair ids come offset by j*S*A, which take's wrap removes
    pairs, next_states = np.divmod(counts.transitions, num_states)
    bins = pairs // num_pairs * num_states + next_states
    rows_per_id = counts.counts.astype(float)  # cast once, not in each product
    sums = np.stack([np.bincount(bins, weights=column.take(pairs, mode="wrap") * rows_per_id,
                                 minlength=row_sets * num_states)
                     for column in features.matrix().T])
    return np.moveaxis(sums.reshape(features.dim, row_sets, num_states), 0, 1).reshape(
        counts.visits.shape[:-1] + (features.dim, num_states))


def pevi_problems(features: FeatureMap, counts: RowCounts, reward_sums,
                  config: PeviConfig) -> list[PeviProblem]:
    """One PeviProblem per row set and vector of per-pair reward sums, row set
    by row set, the vectors in order: counts is one row set or a stack of K
    (RowCounts.stack), and each vector of reward_sums holds its sums per row
    set, (S*A,) or (K, S*A). All K Lambdas are factored in one stacked call,
    and each vector costs one stacked w_r solve; each problem has the bits
    its row set gives alone."""
    rows = features.matrix()
    num_states, dim = features.num_states, features.dim
    visits = counts.visits.reshape(-1, rows.shape[0])
    row_sets = len(visits)
    ridge = Ridge(config.lambda_reg * np.eye(dim) + features.gram(visits))
    bonus = (config.beta * ridge.widths(rows)).reshape(row_sets, num_states,
                                                      features.num_actions)
    sweep_map = config.gamma * ridge.solve(
        next_state_sums(features, counts).reshape(row_sets, dim, num_states))
    w_reward = [ridge.solve(np.matmul(rows.T, np.reshape(sums, (row_sets, -1, 1))))[:, :, 0]
                for sums in reward_sums]
    return [
        PeviProblem(config=config, lambda_matrix=ridge.matrix[k], sweep_map=sweep_map[k],
                    w_reward=w[k], bonus=bonus[k])
        for k in range(row_sets) for w in w_reward
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
