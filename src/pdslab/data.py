"""Offline dataset sampling, mixing, and exact coverage computation.

Datasets are columnar (state/action/reward/next_state arrays) and immutable
by convention. The coverage coefficient follows the generalized-eigenvalue
reading: the largest C with  (1/N) sum phi phi^T  >=  C * Sigma_{pi*,s}
for every start state s, where Sigma is the (1-gamma)-normalized discounted
occupancy second moment, computed exactly from a linear solve.
"""
from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pdslab.mdp import FeatureMap, LinearMdp, Policy

SIGMA_RANGE_CUTOFF = 1e-10  # eigenvalues of Sigma below this are treated as null space
DEFAULT_NOISE_FRACTION = 0.1  # sigma = 0.1 * r_max when noise is requested without a scale
NEGATIVE_REWARD_TOL = 1e-12  # rewards down to -tol count as rounding of 0 and clip to 0


@dataclass(frozen=True)
class Transition:
    state: int
    action: int
    reward: float | None
    next_state: int


class OfflineDataset:
    """Ordered transition records with an explicit labeled flag.

    rewards is None for fully reward-free data; otherwise a float array in
    which NaN marks individual missing labels (mixing labeled with
    unlabeled data produces such partial labelings).
    """

    def __init__(
        self,
        states,
        actions,
        rewards,
        next_states,
        labeled: bool,
        num_states: int,
        num_actions: int,
        source_tag: str = "",
        seed: int | None = None,
        mdp_hash: str | None = None,
    ):
        states = np.array(states, dtype=np.int64, copy=True)
        actions = np.array(actions, dtype=np.int64, copy=True)
        next_states = np.array(next_states, dtype=np.int64, copy=True)
        n = states.shape[0]
        if not (actions.shape[0] == next_states.shape[0] == n):
            raise ValueError("state/action/next_state arrays must share length")
        if n > 0:
            if states.min() < 0 or states.max() >= num_states or next_states.min() < 0 or next_states.max() >= num_states:
                raise ValueError("state id out of range")
            if actions.min() < 0 or actions.max() >= num_actions:
                raise ValueError("action id out of range")
        if rewards is not None:
            rewards = np.array(rewards, dtype=float, copy=True)
            if rewards.shape[0] != n:
                raise ValueError("rewards length mismatch")
            finite = rewards[~np.isnan(rewards)]
            if finite.size and finite.min() < -NEGATIVE_REWARD_TOL:
                raise ValueError("rewards must be nonnegative")
        if labeled and n > 0 and (rewards is None or np.isnan(rewards).any()):
            raise ValueError("labeled dataset requires a reward on every transition")
        for a in (states, actions, next_states):
            a.setflags(write=False)
        if rewards is not None:
            rewards = np.clip(rewards, 0.0, None)
            rewards.setflags(write=False)
        self.states = states
        self.actions = actions
        self.rewards = rewards
        self.next_states = next_states
        self.labeled = bool(labeled)
        self.num_states = int(num_states)
        self.num_actions = int(num_actions)
        self.source_tag = source_tag
        self.seed = seed
        self.mdp_hash = mdp_hash

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def transitions(self) -> tuple[Transition, ...]:
        rs = self.rewards
        return tuple(
            Transition(
                int(self.states[i]),
                int(self.actions[i]),
                None if rs is None or np.isnan(rs[i]) else float(rs[i]),
                int(self.next_states[i]),
            )
            for i in range(len(self))
        )

    def check_features(self, features: FeatureMap) -> None:
        """Raise unless features has a row for every (s, a) this dataset can hold."""
        if features.num_states < self.num_states or features.num_actions < self.num_actions:
            raise ValueError("dataset shape exceeds feature table shape")

    def feature_rows(self, features: FeatureMap) -> np.ndarray:
        """phi(s_tau, a_tau) stacked into an (N, d) matrix."""
        self.check_features(features)
        return features.phi[self.states, self.actions]

    def with_rewards(self, rewards, labeled: bool = True, source_tag: str | None = None) -> "OfflineDataset":
        return OfflineDataset(
            self.states,
            self.actions,
            rewards,
            self.next_states,
            labeled=labeled,
            num_states=self.num_states,
            num_actions=self.num_actions,
            source_tag=self.source_tag if source_tag is None else source_tag,
            seed=self.seed,
            mdp_hash=self.mdp_hash,
        )

    @classmethod
    def from_transitions(
        cls, transitions, num_states: int, num_actions: int, **kwargs
    ) -> "OfflineDataset":
        ts = list(transitions)
        rewards = None
        if any(t.reward is not None for t in ts):
            rewards = np.array(
                [np.nan if t.reward is None else float(t.reward) for t in ts]
            )
        labeled = kwargs.pop("labeled", bool(ts) and all(t.reward is not None for t in ts))
        return cls(
            [t.state for t in ts],
            [t.action for t in ts],
            rewards,
            [t.next_state for t in ts],
            labeled=labeled,
            num_states=num_states,
            num_actions=num_actions,
            **kwargs,
        )


@dataclass(frozen=True)
class CoverageReport:
    c_dagger: float
    gram: np.ndarray                  # (1/N) sum phi phi^T, (d, d)
    per_start_state_values: np.ndarray  # (S,), min generalized eigenvalue per start


# Lockstep rollouts compare a (segments, S) block per step and gather a
# block's (segments x horizon) rows up front; segments are processed in
# blocks that keep both near this many entries.
_LOCKSTEP_BLOCK_ENTRIES = 1 << 20


def _draw_rows(upper: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw from each row of `upper` with its own u.

    upper holds the cumulative sums without their last entry. On a
    non-decreasing row, counting the entries <= u is searchsorted(side=
    "right"), and leaving out the last entry clamps draws beyond the row's
    mass to the last index.
    """
    return (upper <= u[:, None]).sum(axis=1)


def _rollout(upper_pi, upper_sa, starts, first_rows, num_full, horizon, tail, step_u,
             actions, next_states) -> None:
    """Step reset segments in lockstep, writing into the outputs.

    upper_pi holds the policy's cumulative rows per state and upper_sa the
    kernel's per (s, a) pair, at row s * A + a. Segment k starts in
    starts[k] at row first_rows[k] of step_u and the outputs, and runs for
    horizon steps when k < num_full, else for tail steps; the segments still
    running at any step are a prefix. The rows are taken step by step into
    one contiguous buffer, so each step reads and writes a slice of it.
    """
    num_actions = upper_pi.shape[1] + 1
    steps = np.arange(horizon)[:, None]
    rows = np.concatenate([(first_rows + steps[:tail]).ravel(),
                           (first_rows[:num_full] + steps[tail:]).ravel()])
    u = step_u[rows]
    drawn_a, drawn_s = np.empty(rows.size, dtype=np.int64), np.empty(rows.size, dtype=np.int64)
    s, lo = starts, 0
    for t in range(horizon):
        if t == tail:
            s = s[:num_full]
        hi = lo + s.shape[0]
        if hi == lo:
            break
        a = _draw_rows(upper_pi.take(s, axis=0), u[lo:hi, 0])
        s = _draw_rows(upper_sa.take(s * num_actions + a, axis=0), u[lo:hi, 1])
        drawn_a[lo:hi], drawn_s[lo:hi] = a, s
        lo = hi
    actions[rows], next_states[rows] = drawn_a, drawn_s


def sample_dataset(
    mdp: LinearMdp,
    behavior: Policy,
    n: int,
    horizon_reset: int = 100,
    labeled: bool = True,
    seed: int = 0,
    noise: bool | float = False,
) -> OfflineDataset:
    """Roll out `behavior`, resetting to the initial distribution every
    horizon_reset steps, until n transitions are collected.

    Rewards are the exact <phi, theta> values; pass noise=True for additive
    uniform noise at the default scale 0.1*r_max, or a float for an explicit
    half-width. Noisy rewards are clipped back to [0, r_max]. Unlabeled
    sampling strips rewards entirely. This is sample_datasets for one seed.
    """
    return sample_datasets(mdp, behavior, n, (seed,), horizon_reset, labeled, noise)[0]


def sample_datasets(
    mdp: LinearMdp,
    behavior: Policy,
    n: int,
    seeds,
    horizon_reset: int = 100,
    labeled: bool = True,
    noise: bool | float = False,
) -> list[OfflineDataset]:
    """sample_dataset for each seed, with the segments of all seeds rolled
    out in one lockstep pass.

    Each seed draws from its own default_rng(seed) in sample_dataset's
    order: the reset uniforms, then the step uniforms, then the noise. Every
    draw depends only on its own uniforms, so each dataset is bit for bit
    what sample_dataset gives for its seed alone.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if horizon_reset < 1:
        raise ValueError(f"horizon_reset must be >= 1, got {horizon_reset}")
    if behavior.probs.shape != (mdp.num_states, mdp.num_actions):
        raise ValueError("behavior policy shape does not match mdp")
    sigma = (DEFAULT_NOISE_FRACTION * mdp.r_max if noise is True else float(noise)) if noise else 0.0
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"noise half-width must be finite and nonnegative, got {noise}")

    seeds = list(seeds)
    num_seeds = len(seeds)
    # no segment holds more than n rows, and the rollout sizes its buffers
    # by the horizon, so a reset past n must not cost more than one at n
    horizon_reset = min(horizon_reset, n)
    num_resets = -(-n // horizon_reset)
    tail = n - (num_resets - 1) * horizon_reset  # length of each seed's last segment
    reset_u = np.empty((num_seeds, num_resets))
    step_u = np.empty((num_seeds, n, 2))
    reward_noise = np.empty((num_seeds, n)) if labeled and sigma > 0 else None
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        reset_u[i] = rng.random(num_resets)
        step_u[i] = rng.random((n, 2))
        if reward_noise is not None:
            reward_noise[i] = rng.uniform(-sigma, sigma, size=n)

    # seed i's segment g covers rows i*n + g*horizon_reset on; the full
    # segments of every seed come first and the last segments after them
    first_rows = np.arange(num_seeds)[:, None] * n + np.arange(num_resets) * horizon_reset
    starts = np.searchsorted(np.cumsum(mdp.init_dist)[:-1], reset_u, side="right")
    first_rows, starts = (np.concatenate([x[:, :-1].ravel(), x[:, -1]])
                          for x in (first_rows, starts))
    num_full = num_seeds * (num_resets - (tail < horizon_reset))

    # contiguous copies: take() on a strided table first copies all of it
    upper_pi = np.ascontiguousarray(np.cumsum(behavior.probs, axis=1)[:, :-1])
    upper_sa = np.ascontiguousarray(np.cumsum(mdp.transitions, axis=2)[:, :, :-1]).reshape(
        mdp.num_states * mdp.num_actions, -1)
    actions = np.empty(num_seeds * n, dtype=np.int64)
    next_states = np.empty(num_seeds * n, dtype=np.int64)
    block = max(1, _LOCKSTEP_BLOCK_ENTRIES // max(mdp.num_states, horizon_reset))
    for lo in range(0, first_rows.size, block):
        _rollout(upper_pi, upper_sa, starts[lo:lo + block], first_rows[lo:lo + block],
                 max(num_full - lo, 0), horizon_reset, tail, step_u.reshape(-1, 2),
                 actions, next_states)
    # within a segment each step starts where the previous one ended
    states = np.empty(num_seeds * n, dtype=np.int64)
    states[1:] = next_states[:-1]
    states[first_rows] = starts

    rewards = [None] * num_seeds
    if labeled:
        rewards = mdp.rewards[states, actions].reshape(num_seeds, n)
        if reward_noise is not None:
            rewards = np.clip(rewards + reward_noise, 0.0, mdp.r_max)
    mdp_hash = mdp.content_hash()
    return [
        OfflineDataset(s, a, r, sp, labeled=labeled, num_states=mdp.num_states,
                       num_actions=mdp.num_actions, seed=seed, mdp_hash=mdp_hash)
        for seed, s, a, r, sp in zip(seeds, states.reshape(num_seeds, n),
                                     actions.reshape(num_seeds, n), rewards,
                                     next_states.reshape(num_seeds, n))
    ]


def mix_datasets(a: OfflineDataset, b: OfflineDataset) -> OfflineDataset:
    """Concatenate a then b; the labeled flag is the conjunction."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("mix_datasets requires nonempty datasets")
    if (a.num_states, a.num_actions) != (b.num_states, b.num_actions):
        raise ValueError(
            f"dataset shapes differ: ({a.num_states},{a.num_actions}) vs "
            f"({b.num_states},{b.num_actions})"
        )
    rewards = None
    if a.rewards is not None or b.rewards is not None:
        ra = a.rewards if a.rewards is not None else np.full(len(a), np.nan)
        rb = b.rewards if b.rewards is not None else np.full(len(b), np.nan)
        rewards = np.concatenate([ra, rb])
    return OfflineDataset(
        np.concatenate([a.states, b.states]),
        np.concatenate([a.actions, b.actions]),
        rewards,
        np.concatenate([a.next_states, b.next_states]),
        labeled=a.labeled and b.labeled,
        num_states=a.num_states,
        num_actions=a.num_actions,
        source_tag=f"{a.source_tag}+{b.source_tag}",
        mdp_hash=a.mdp_hash if a.mdp_hash == b.mdp_hash else None,
    )


def occupancy_second_moments(mdp: LinearMdp, policy: Policy) -> np.ndarray:
    """Sigma_{pi,s} = (1-gamma) * sum_t gamma^t E_pi[phi phi^T | s_0 = s] for
    every start state s, shape (S, d, d).

    The discounted state occupancy kappa_s solves the adjoint linear system
    (I - gamma P_pi^T) kappa_s = (1-gamma) e_s, so one solve against
    (1-gamma) I yields all of them as columns; each second moment is then
    the kappa_s-weighted average of the per-state feature outer products.
    Exact, no sampling.
    """
    if policy.probs.shape != (mdp.num_states, mdp.num_actions):
        raise ValueError("policy shape does not match mdp")
    S, d = mdp.num_states, mdp.dim
    p_pi = np.einsum("sa,sae->se", policy.probs, mdp.transitions)
    kappa = np.linalg.solve(np.eye(S) - mdp.gamma * p_pi.T, (1.0 - mdp.gamma) * np.eye(S))
    phi = mdp.features.phi
    per_state = np.einsum("sa,sad,saf->sdf", policy.probs, phi, phi).reshape(S, d * d)
    return (kappa.T @ per_state).reshape(S, d, d)


def occupancy_second_moment(mdp: LinearMdp, policy: Policy, start_state: int) -> np.ndarray:
    """Sigma_{pi,s} for one start state; see occupancy_second_moments."""
    if not (0 <= start_state < mdp.num_states):
        raise ValueError(f"start state {start_state} out of range")
    return occupancy_second_moments(mdp, policy)[start_state]


def _min_generalized_eig(m: np.ndarray, sigma: np.ndarray) -> float:
    """Largest C with m - C*sigma >= 0, restricted to range(sigma).

    Null-space directions of sigma impose no constraint; if sigma has no
    range at all the constraint is vacuous and the value is +inf.
    """
    w, u = np.linalg.eigh(sigma)
    keep = w > SIGMA_RANGE_CUTOFF
    if not keep.any():
        return np.inf
    basis = u[:, keep] / np.sqrt(w[keep])
    reduced = basis.T @ m @ basis
    return max(0.0, float(np.linalg.eigvalsh(reduced).min()))


def coverage_coefficient(dataset: OfflineDataset, mdp: LinearMdp, optimal: Policy) -> CoverageReport:
    """C-dagger of the dataset against the optimal occupancy from every start state."""
    if len(dataset) == 0:
        raise ValueError("coverage_coefficient requires a nonempty dataset")
    feats = dataset.feature_rows(mdp.features)
    gram = feats.T @ feats / len(dataset)
    per_start = np.array(
        [_min_generalized_eig(gram, sigma) for sigma in occupancy_second_moments(mdp, optimal)]
    )
    c = float(np.min(per_start))
    if not np.isfinite(c):
        c = np.inf
    return CoverageReport(c_dagger=max(0.0, c), gram=gram, per_start_state_values=per_start)


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
        source_tag="exhaustive",
        mdp_hash=mdp.content_hash(),
    )


def _require_onehot(mdp: LinearMdp) -> None:
    phi = mdp.features.matrix()
    onehot = (phi.sum(axis=1) == 1.0) & (np.count_nonzero(phi, axis=1) == 1)
    if not onehot.all():
        raise ValueError("operation requires one-hot (tabular) features")


# ---- serialization ----------------------------------------------------------


def header_path(path: str | Path) -> Path:
    return Path(str(path) + ".header.json")


def read_header(path: str | Path, count: int) -> dict | None:
    """The sidecar header of a transition file, or None when it has none.

    count is the number of transitions read from the file; raise ValueError
    when the header's n says otherwise.
    """
    hp = header_path(path)
    meta = json.loads(hp.read_text()) if hp.exists() else None
    if meta is not None and "n" in meta and meta["n"] != count:
        raise ValueError(f"{path}: header says n={meta['n']} but the file holds "
                         f"{count} transitions")
    return meta


def write_header(path: str | Path, meta: dict) -> None:
    header_path(path).write_text(json.dumps(meta) + "\n")


def read_transitions(path: str | Path):
    """Parse a transition file into columns (states, actions, rewards, next_states, linenos).

    Each nonblank line is one {"s", "a", "r", "sp"} object. Ids must be JSON
    integers (not booleans) that fit int64; r must be a finite number
    >= -NEGATIVE_REWARD_TOL or null, which reads as NaN. Ids and linenos (each
    record's 1-based line number) come back as int64, rewards as float, unclipped.
    """
    states, actions, next_states, linenos = array("q"), array("q"), array("q"), array("q")
    rewards = array("d")
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
                s, a, r, sp = doc["s"], doc["a"], doc["r"], doc["sp"]
                if type(s) is not int or type(a) is not int or type(sp) is not int:
                    raise TypeError(f"ids must be JSON integers, got s={s!r}, a={a!r}, sp={sp!r}")
                if r is None:
                    r = np.nan
                elif type(r) in (int, float) and -NEGATIVE_REWARD_TOL <= float(r) < np.inf:
                    r = float(r)
                else:  # NaN fails the range check too
                    raise ValueError(f"reward must be a finite nonnegative number or null, got {r!r}")
                states.append(s)  # the int64 appends raise OverflowError for larger ids
                actions.append(a)
                next_states.append(sp)
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                raise ValueError(f"malformed transition at line {lineno}: {exc}") from exc
            rewards.append(r)
            linenos.append(lineno)
    return tuple(np.asarray(c) for c in (states, actions, rewards, next_states, linenos))


def write_transitions(path: str | Path, states, actions, rewards, next_states) -> None:
    """One {"s","a","r","sp"} line per record of the column arrays, NaN rewards as null.

    Floats are written as repr(float), so each line is byte for byte what
    json.dumps writes for the same record.
    """
    with Path(path).open("w") as fh:
        fh.writelines(f'{{"s": {s}, "a": {a}, "r": {"null" if r != r else repr(r)}, "sp": {sp}}}\n'
                      for s, a, r, sp in zip(states.tolist(), actions.tolist(), rewards.tolist(),
                                             next_states.tolist()))


def write_jsonl(dataset: OfflineDataset, path: str | Path) -> None:
    """One {"s","a","r","sp"} object per line plus a sidecar header file."""
    rewards = np.full(len(dataset), np.nan) if dataset.rewards is None else dataset.rewards
    write_transitions(path, dataset.states, dataset.actions, rewards, dataset.next_states)
    write_header(path, {
        "mdp_hash": dataset.mdp_hash,
        "seed": dataset.seed,
        "behavior": dataset.source_tag,
        "labeled": dataset.labeled,
        "num_states": dataset.num_states,
        "num_actions": dataset.num_actions,
        "n": len(dataset),
    })


def read_jsonl(path: str | Path) -> OfflineDataset:
    """Read a transition file; uses the sidecar header when present."""
    states, actions, rewards, next_states, _ = read_transitions(path)
    meta = read_header(path, len(states)) or {}
    observed = ~np.isnan(rewards)
    return OfflineDataset(
        states,
        actions,
        rewards if observed.any() else None,
        next_states,
        labeled=meta.get("labeled", len(states) > 0 and bool(observed.all())),
        num_states=meta.get("num_states", int(max(states.max(initial=0), next_states.max(initial=0))) + 1),
        num_actions=meta.get("num_actions", int(actions.max(initial=0)) + 1),
        source_tag=meta.get("behavior", ""),
        seed=meta.get("seed"),
        mdp_hash=meta.get("mdp_hash"),
    )
