"""Offline dataset sampling, mixing, and exact coverage computation.

Datasets are columnar (state/action/reward/next_state arrays) and immutable
by convention. phi depends only on (s, a), so the reward fit, coverage and
PEVI read a dataset only through its RowCounts (OfflineDataset.counts):
visit counts n(s, a), per-pair reward sums and its (s, a, s') counts. Its
Gram is sum_pairs n phi phi^T (FeatureMap.gram).
The coverage coefficient follows the generalized-eigenvalue reading: the
largest C with  (1/N) sum phi phi^T  >=  C * Sigma_{pi*,s}  for every start
state s, where Sigma is the (1-gamma)-normalized discounted occupancy second
moment, computed exactly from one linear solve: d x d through the kernel's
factorization when d < S, S x S otherwise.

Sigma and its eigendecomposition depend only on the MDP and pi*, so
coverage_bases computes the per-start bases once: a sweep builds them next
to its oracle solve and, like that solve, they count in no row's wall_ms.
Each dataset then costs its counts' Gram and, per group of starts of equal
Sigma rank, one stacked reduction and one batched eigvalsh.

The sampler steps the reset segments of a batch of seeds in lockstep and
step-major, so each step reads its uniforms and states and writes its draws
as contiguous slices; each seed's columns are then written once, in row
order, into arrays its dataset keeps. Each draw is by inverse CDF; on wide
rows the search runs in two levels, over every k-th cumulative entry and
then within one k-wide block, which counts exactly the same entries.

Transition files hold one {"s", "a", "r", "sp"} JSON object per line, in
UTF-8. read_transitions reads them in fixed-size chunks and parses the
text up to each chunk's last newline as one block, no object per line: a block
of canonical lines, exactly as write_transitions emits them, is checked with
one regex fullmatch and parsed with one np.loadtxt, whose C parser reads ids
as int64 and rewards as float() does, which is what json does for those
tokens; every other block, and a canonical block with an out-of-range
reward, is split into lines for the per-line json parser, which alone
defines an accepted line and words the errors. write_transitions renders
rows in blocks, each distinct value of a block's column once, and writes
each block as one joined string. Both writers fill a new file beside the
destination and rename it into place once complete, so a failed write,
also one onto its own input, leaves the destination as it was.
"""
from __future__ import annotations

import io
import json
import math
import os
import re
import stat
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from pdslab.mdp import (
    FeatureMap,
    LinearMdp,
    Policy,
    _apply_resolvent,
    nonnegative,
    positive,
    require,
)

SIGMA_RANGE_CUTOFF = 1e-10  # eigenvalues of Sigma below this are treated as null space
DEFAULT_NOISE_FRACTION = 0.1  # sigma = 0.1 * r_max when noise is requested without a scale
NEGATIVE_REWARD_TOL = 1e-12  # rewards down to -tol count as rounding of 0 and clip to 0


def check_shape(num_states: int, num_actions: int, features: FeatureMap) -> None:
    """Raise unless features has a row for every (s, a) of a dataset of this shape."""
    if features.num_states < num_states or features.num_actions < num_actions:
        raise ValueError("dataset shape exceeds feature table shape")


def _column(values, dtype) -> np.ndarray:
    """values as a read-only dtype array: kept when it already is one that
    owns its data (a sampled column, another dataset's), else copied."""
    if not (isinstance(values, np.ndarray) and values.dtype == dtype
            and values.base is None and not values.flags.writeable):
        values = np.array(values, dtype=dtype, copy=True)
        values.setflags(write=False)
    return values


class OfflineDataset:
    """Ordered transition records with an explicit labeled flag.

    rewards is None for fully reward-free data; otherwise a float array in
    which NaN marks individual missing labels (mixing labeled with
    unlabeled data produces such partial labelings) and every other reward
    is finite and nonnegative. Every column is read-only: an array its
    caller could still write is copied, and a read-only one that owns its
    data (a sampled column, another dataset's) is kept as it is.
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
    ):
        states, actions, next_states = (_column(x, np.int64) for x in (states, actions, next_states))
        n = states.shape[0]
        if not (actions.shape[0] == next_states.shape[0] == n):
            raise ValueError("state/action/next_state arrays must share length")
        if n > 0:
            if states.min() < 0 or states.max() >= num_states or next_states.min() < 0 or next_states.max() >= num_states:
                raise ValueError("state id out of range")
            if actions.min() < 0 or actions.max() >= num_actions:
                raise ValueError("action id out of range")
        if rewards is not None:
            rewards = _column(rewards, np.float64)
            if rewards.shape[0] != n:
                raise ValueError("rewards length mismatch")
            # a NaN, which marks a missing label, fails both tests
            if np.isinf(rewards).any() or (rewards < -NEGATIVE_REWARD_TOL).any():
                raise ValueError("rewards must be finite and nonnegative or NaN")
        if labeled and n > 0 and (rewards is None or np.isnan(rewards).any()):
            raise ValueError("labeled dataset requires a reward on every transition")
        # np.clip(rewards, 0.0, None) changes only entries with the sign bit set
        if rewards is not None and np.signbit(rewards).any():
            rewards = np.clip(rewards, 0.0, None)
            rewards.setflags(write=False)
        self.states = states
        self.actions = actions
        self.rewards = rewards
        self.next_states = next_states
        self.labeled = bool(labeled)
        self.num_states = int(num_states)
        self.num_actions = int(num_actions)
        self._counts = {}  # the rows are read-only, so counts() keeps each record

    def __len__(self) -> int:
        return self.states.shape[0]

    def check_features(self, features: FeatureMap) -> None:
        """Raise unless features has a row for every (s, a) this dataset can hold."""
        check_shape(self.num_states, self.num_actions, features)

    def pair_ids(self, features: FeatureMap) -> np.ndarray:
        """s_tau * A + a_tau per row, A being features' action count: the
        row of features.matrix() that holds phi(s_tau, a_tau)."""
        self.check_features(features)
        return self.states * features.num_actions + self.actions

    def counts(self, features: FeatureMap) -> "RowCounts":
        """The RowCounts of this dataset's rows under features' shape (S, A),
        reduced on the first call for that shape and kept."""
        key = (features.num_states, features.num_actions)
        if key not in self._counts:
            pairs = self.pair_ids(features)
            visits = features.pair_sums(pairs)
            if self.rewards is None:
                sums, missing = np.zeros(visits.shape), visits
            else:
                seen = ~np.isnan(self.rewards)
                sums = features.pair_sums(pairs[seen], self.rewards[seen])
                missing = features.pair_sums(pairs[~seen])
            record = RowCounts(visits, sums, missing, *np.unique(
                pairs * features.num_states + self.next_states, return_counts=True))
            for a in record:
                a.setflags(write=False)
            self._counts[key] = record
        return self._counts[key]

    def with_rewards(self, rewards, labeled: bool = True) -> "OfflineDataset":
        return OfflineDataset(self.states, self.actions, rewards, self.next_states,
                              labeled=labeled, num_states=self.num_states,
                              num_actions=self.num_actions)


class RowCounts(NamedTuple):
    """All that the reward fit, coverage and PEVI read of a row set, or of a
    stack of K row sets (RowCounts.stack): each per-pair array then has a
    leading axis of K, and row set k's transition ids are offset by k*S*A*S,
    so each is still sorted and distinct."""

    visits: np.ndarray       # rows per pair id s*A + a, (S*A,)
    reward_sums: np.ndarray  # observed rewards per pair, added in row order
    missing: np.ndarray      # rows per pair without a reward
    transitions: np.ndarray  # the sorted distinct ids (s*A + a)*S + s'
    counts: np.ndarray       # rows per transition id

    @classmethod
    def stack(cls, records, num_states: int) -> "RowCounts":
        """The stack of the row sets of records, one row set each on
        num_states states."""
        size = records[0].visits.shape[-1] * num_states  # transition ids per row set
        return cls(*(np.stack([getattr(r, name) for r in records])
                     for name in ("visits", "reward_sums", "missing")),
                   np.concatenate([r.transitions + k * size for k, r in enumerate(records)]),
                   np.concatenate([r.counts for r in records]))

    def union(self, other: "RowCounts") -> "RowCounts":
        """The record of this row set followed by other's; of two stacks of
        K, row set by row set."""
        transitions, inverse = np.unique(np.concatenate([self.transitions, other.transitions]),
                                         return_inverse=True)
        counts = np.bincount(inverse, np.concatenate([self.counts, other.counts]))
        return RowCounts(self.visits + other.visits, self.reward_sums + other.reward_sums,
                         self.missing + other.missing, transitions, counts.astype(np.int64))


@dataclass(frozen=True)
class CoverageReport:
    c_dagger: float
    gram: np.ndarray                  # (1/N) sum phi phi^T, (d, d)
    per_start_state_values: np.ndarray  # (S,), min generalized eigenvalue per start


# A rollout block steps at most this many segments x S entries: no per-step
# comparison is larger, and no buffer of a block scales with the horizon.
_LOCKSTEP_BLOCK_ENTRIES = 1 << 20


class _DrawTable(NamedTuple):
    """Cumulative rows without their last entry, set up for _draw_rows.

    A flat table holds the rows transposed, one contiguous array per entry
    position, and coarse is None. A blocked table pads each row with +inf to
    a whole number of k-wide blocks, one more than the row's width // k, and
    coarse holds every row's k-th, 2k-th, ... entry, the last entry of each
    block the row fills.
    """

    fine: np.ndarray
    coarse: np.ndarray | None
    k: int


def _draw_table(cumulative: np.ndarray) -> _DrawTable:
    """The draw table of a 2-D array of cumulative rows."""
    return _fill_table(*cumulative.shape, [(0, cumulative)])


def _kernel_table(mdp: LinearMdp) -> _DrawTable:
    """The draw table of mdp's cumulative kernel rows, row s*A + a for pair
    (s, a): built on the first call for mdp, one block of states at a time
    (LinearMdp.kernel_blocks), and kept on mdp, which never changes."""
    tables = mdp._tables
    if "kernel" not in tables:
        S, A = mdp.num_states, mdp.num_actions
        table = _fill_table(S * A, S, (
            (lo * A, np.cumsum(p, axis=2).reshape(-1, S)) for lo, p in mdp.kernel_blocks()))
        for a in (table.fine, table.coarse):
            if a is not None:
                a.setflags(write=False)  # every later call shares it
        tables["kernel"] = table
    return tables["kernel"]


def _fill_table(rows: int, entries: int, blocks, k: int | None = None) -> _DrawTable:
    """The draw table of rows cumulative rows of entries entries each,
    written straight into place from blocks: (first row, 2-D block of
    consecutive rows) pairs that cover every row. Only each row's first
    entries - 1 entries are read.

    The rows are blocked k entries wide, or flat when k is 0. By default
    blocked rows compare width // k + k entries per draw where flat rows
    compare width, with width = entries - 1 and k = isqrt(width), and rows
    are blocked only where that is at most half as many.
    """
    width = entries - 1
    if k is None:
        k = math.isqrt(width)
        k = k if k and 2 * (width // k + k) <= width else 0
    if not k:
        fine = np.empty((width, rows))
        for lo, block in blocks:
            fine[:, lo:lo + len(block)] = block[:, :width].T
        return _DrawTable(fine, None, 1)
    fine = np.empty((rows, (width // k + 1) * k))
    fine[:, width:] = np.inf
    for lo, block in blocks:
        fine[lo:lo + len(block), :width] = block[:, :width]
    return _DrawTable(fine, np.ascontiguousarray(fine[:, k - 1:width:k]), k)


def _draw_rows(table: _DrawTable, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw from row rows[i] of the table with u[i].

    On a non-decreasing row, counting the entries <= u is searchsorted(side=
    "right"), and leaving out the cumulative row's last entry clamps draws
    beyond the row's mass to the last index. A blocked table counts the
    whole blocks whose last entry is <= u, then the entries <= u in the
    block after them; the +inf padding is never counted, so the result is
    the flat count exactly. A flat table is counted one entry position at a
    time, which adds up the same integers.
    """
    if table.coarse is None:
        count = np.zeros(rows.shape, dtype=np.int64)
        for column in table.fine:
            count += column.take(rows) <= u
        return count
    blocks = (table.coarse.take(rows, axis=0) <= u[:, None]).sum(axis=1)
    per_row = table.fine.shape[1] // table.k
    block = table.fine.reshape(-1, table.k).take(rows * per_row + blocks, axis=0)
    return blocks * table.k + (block <= u[:, None]).sum(axis=1)


def _rollout(pi_table, sa_table, num_actions, u, actions, states) -> None:
    """Step a block of segments in lockstep: step t reads u[0, t], u[1, t]
    and states[t] and writes actions[t] and states[t + 1], contiguous slices
    with one entry per segment. pi_table holds the policy's draw table per
    state, sa_table the kernel's per (s, a) pair, at row s * num_actions + a.
    """
    for t in range(len(actions)):
        a = _draw_rows(pi_table, states[t], u[0, t])
        actions[t], states[t + 1] = a, _draw_rows(sa_table, states[t] * num_actions + a, u[1, t])


def _seed_copy(rows, seed, head, rest, into_rows: bool):
    """Copy one seed's entries of one kind between rows, its n rows in row
    order, and head and rest, the kind laid out as in sample_datasets with
    steps then segments last (after a row's vector, if any): into rows,
    which become read-only, when into_rows, else out of them. Returns rows."""
    tail, horizon = head.shape[-2], head.shape[-2] + rest.shape[-2]
    g = (len(rows) - tail) // horizon  # the seed's segments before its last
    segments = rows[:g * horizon].reshape(g, horizon, *rows.shape[1:]).T
    for pair in ((segments[..., :tail, :], head[..., seed * g:seed * g + g]),
                 (segments[..., tail:, :], rest[..., seed * g:seed * g + g]),
                 (rows[g * horizon:].T, head[..., rest.shape[-1] + seed])):
        np.copyto(*(pair if into_rows else pair[::-1]))
    if into_rows:
        rows.setflags(write=False)
    return rows


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
    what sample_dataset gives for its seed alone. The uniforms are freed
    after the rollout, and each seed's columns are written once, into
    read-only arrays its dataset keeps.
    """
    require("n", n, positive, "an integer >= 1", integer=True)
    require("horizon_reset", horizon_reset, positive, "an integer >= 1", integer=True)
    if not isinstance(noise, bool):
        require("noise", noise, nonnegative, "a boolean or a finite nonnegative number")
    if behavior.probs.shape != (mdp.num_states, mdp.num_actions):
        raise ValueError("behavior policy shape does not match mdp")
    sigma = (DEFAULT_NOISE_FRACTION * mdp.r_max if noise is True else float(noise)) if noise else 0.0

    seeds = list(seeds)
    num_seeds = len(seeds)
    horizon_reset = min(horizon_reset, n)  # no segment holds more than n rows
    num_resets = -(-n // horizon_reset)
    tail = n - (num_resets - 1) * horizon_reset  # length of each seed's last segment
    # Step-major, a column per segment: seed i's segment g < num_resets - 1
    # is column i * (num_resets - 1) + g and its last segment column
    # full + i. Head arrays hold steps t < tail of every segment; rest arrays
    # hold the later steps of the first `full` columns, the only segments
    # that run them.
    full = num_seeds * (num_resets - 1)
    shapes = (tail, full + num_seeds), (horizon_reset - tail, full)
    u = [np.empty((2, *shape)) for shape in shapes]
    reset_u = np.empty((num_seeds, num_resets))
    reward_noise = [None] * num_seeds
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        reset_u[i] = rng.random(num_resets)
        _seed_copy(rng.random((n, 2)), i, *u, into_rows=False)
        if labeled and sigma > 0:
            reward_noise[i] = rng.uniform(-sigma, sigma, size=n)

    actions = [np.empty(shape, dtype=np.int64) for shape in shapes]
    states = [np.empty((steps + 1, width), dtype=np.int64) for steps, width in shapes]
    starts = np.searchsorted(np.cumsum(mdp.init_dist)[:-1], reset_u, side="right")
    states[0][0] = np.concatenate([starts[:, :-1].ravel(), starts[:, -1]])
    # contiguous tables: take() on a strided table first copies all of it
    pi_table = _draw_table(np.cumsum(behavior.probs, axis=1))
    sa_table = _kernel_table(mdp)
    block = max(1, _LOCKSTEP_BLOCK_ENTRIES // mdp.num_states)
    for p, (_, width) in enumerate(shapes):
        if p:  # the first `full` segments go on from their last head states
            states[1][0] = states[0][-1, :full]
        for lo in range(0, width, block):
            _rollout(pi_table, sa_table, mdp.num_actions,
                     *(x[p][..., lo:lo + block] for x in (u, actions, states)))
    del u

    states, actions, next_states = (  # the step-major arrays are dropped once copied
        [_seed_copy(np.empty(n, dtype=np.int64), i, *steps, into_rows=True)
         for i in range(num_seeds)]
        for steps in ((states[0][:-1], states[1][:-1]), actions, (states[0][1:], states[1][1:])))
    rewards = [mdp.rewards[s, a] if labeled else None for s, a in zip(states, actions)]
    for r, r_noise in zip(rewards, reward_noise):
        if r_noise is not None:
            np.clip(np.add(r, r_noise, out=r), 0.0, mdp.r_max, out=r)
        if r is not None:
            r.setflags(write=False)
    return [
        OfflineDataset(s, a, r, sp, labeled=labeled, num_states=mdp.num_states,
                       num_actions=mdp.num_actions)
        for s, a, r, sp in zip(states, actions, rewards, next_states)
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
    )


def occupancy_second_moments(mdp: LinearMdp, policy: Policy) -> np.ndarray:
    """Sigma_{pi,s} = (1-gamma) * sum_t gamma^t E_pi[phi phi^T | s_0 = s] for
    every start state s, shape (S, d, d).

    With M the per-state second moments sum_a pi(a|s) phi phi^T as an
    (S, d*d) matrix, Sigma = (1-gamma) (I - gamma P_pi)^-1 M. When the MDP
    keeps a kernel factor that is Sigma = (1-gamma) (M + gamma Phi_pi K)
    with K = (I_d - gamma mu Phi_pi)^-1 mu M, one d x d solve with d*d
    right-hand sides; otherwise the discounted occupancies solve the adjoint
    system (I - gamma P_pi^T) kappa_s = (1-gamma) e_s, all starts in one
    solve against (1-gamma) I, and each second moment is the kappa_s-weighted
    average of M. Exact, no sampling.
    """
    if policy.probs.shape != (mdp.num_states, mdp.num_actions):
        raise ValueError("policy shape does not match mdp")
    S, d = mdp.num_states, mdp.dim
    phi = mdp.features.phi
    per_state = np.einsum("sa,sad,saf->sdf", policy.probs, phi, phi).reshape(S, d * d)
    return _apply_resolvent(mdp, policy, per_state, 1.0 - mdp.gamma).reshape(S, d, d)


@dataclass(frozen=True)
class CoverageBases:
    """The range bases u_keep / sqrt(w_keep) of every start's Sigma_{pi,s},
    from its eigenpairs (w, u) with w > SIGMA_RANGE_CUTOFF, grouped by rank.

    groups holds one (starts, bases) pair per rank r: the start states whose
    Sigma has r range directions and their (len(starts), d, r) bases. Starts
    whose Sigma has no range are in no group.
    """

    num_states: int
    dim: int
    groups: tuple


def coverage_bases(mdp: LinearMdp, policy: Policy) -> CoverageBases:
    """The coverage bases of policy's occupancy from every start state, for
    coverage_coefficient to reuse across datasets."""
    return _bases_of(occupancy_second_moments(mdp, policy))


def _bases_of(sigmas: np.ndarray) -> CoverageBases:
    """CoverageBases of an (S, d, d) stack of second moments.

    eigh returns ascending eigenvalues, so a start's kept eigenpairs are
    its last r.
    """
    w, u = np.linalg.eigh(sigmas)
    ranks = (w > SIGMA_RANGE_CUTOFF).sum(axis=1)
    groups = []
    for r in np.unique(ranks[ranks > 0]).tolist():
        starts = np.flatnonzero(ranks == r)
        groups.append((starts, u[starts, :, -r:] / np.sqrt(w[starts, None, -r:])))
    num_states, dim = sigmas.shape[:2]
    return CoverageBases(num_states, dim, tuple(groups))


def _per_start_values(gram: np.ndarray, bases: CoverageBases) -> np.ndarray:
    """Per start state, the largest C with gram - C*Sigma >= 0 on range(Sigma),
    clipped below at 0: the least eigenvalue of B^T gram B for its basis B.

    Null-space directions of Sigma impose no constraint; if Sigma has no
    range at all the constraint is vacuous and the value is +inf.
    """
    values = np.full(bases.num_states, np.inf)
    for starts, basis in bases.groups:
        least = np.linalg.eigvalsh(np.swapaxes(basis, 1, 2) @ gram @ basis).min(axis=1)
        values[starts] = np.where(least > 0.0, least, 0.0)
    return values


def coverage_coefficient(dataset: OfflineDataset, mdp: LinearMdp,
                         optimal: Policy | CoverageBases) -> CoverageReport:
    """C-dagger of the dataset against the optimal occupancy from every start state.

    optimal is the optimal policy, or its coverage_bases when many datasets
    are measured against the same occupancy.
    """
    if len(dataset) == 0:
        raise ValueError("coverage_coefficient requires a nonempty dataset")
    bases = optimal if isinstance(optimal, CoverageBases) else coverage_bases(mdp, optimal)
    if (bases.num_states, bases.dim) != (mdp.num_states, mdp.dim):
        raise ValueError("coverage bases do not match the mdp's shape")
    features = mdp.features
    gram = features.gram(dataset.counts(features).visits) / len(dataset)
    per_start = _per_start_values(gram, bases)
    c = float(np.min(per_start))
    return CoverageReport(c_dagger=c, gram=gram, per_start_state_values=per_start)


# ---- serialization ----------------------------------------------------------


def header_path(path: str | Path) -> Path:
    return Path(str(path) + ".header.json")


def read_header(path: str | Path, count: int) -> dict | None:
    """The sidecar header of a transition file, or None when it has none.

    count is the number of transitions read from the file; raise ValueError
    when the header is not a JSON object, when it holds num_states or
    num_actions that are not positive JSON integers, n that is not a
    nonnegative one or labeled that is not a boolean, or when its n says
    otherwise.
    """
    hp = header_path(path)
    if not hp.exists():
        return None
    meta = json.loads(hp.read_text(encoding="utf-8"))
    if not isinstance(meta, dict):
        raise ValueError(f"{hp}: the header must be a JSON object, got "
                         f"{type(meta).__name__}")
    for key, ok, want in (("num_states", positive, "a positive integer"),
                          ("num_actions", positive, "a positive integer"),
                          ("n", nonnegative, "a nonnegative integer")):
        if key in meta:
            require(f"{hp}: header field {key!r}", meta[key], ok, want, integer=True)
    if type(meta.get("labeled", False)) is not bool:
        raise ValueError(f"{hp}: header field 'labeled' must be a boolean, "
                         f"got {meta['labeled']!r}")
    if "n" in meta and meta["n"] != count:
        raise ValueError(f"{path}: header says n={meta['n']} but the file holds "
                         f"{count} transitions")
    return meta


def write_header(path: str | Path, meta: dict) -> None:
    """Write path's sidecar header, replacing the old one only once complete."""
    with _replacing(header_path(path)) as fh:
        fh.write(json.dumps(meta) + "\n")


# read_transitions reads the file in chunks of this many characters: a block
# this small stays in cache, and chunks up to 2^18 measured no faster
_READ_BLOCK_CHARS = 1 << 14
_ID = r"(?:0|[1-9][0-9]{0,17})"  # no leading zero and at most 18 digits, so it fits int64
# a line exactly as write_transitions emits it: ids as above, r null or a float
# token with a fraction or an exponent, which float() and np.loadtxt read as json does
_CANONICAL_LINE = (
    r'\{"s": ' + _ID + r', "a": ' + _ID
    + r', "r": (?:null|-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))'
    + r', "sp": ' + _ID + r'\}')
_CANONICAL_BLOCK = re.compile("(?:" + _CANONICAL_LINE + "\n)*")
# deleting these from a canonical line leaves its four tokens and the commas between them
_KEY_CHARS = str.maketrans("", "", '{}":sarp ')
_RECORD = np.dtype([("s", np.int64), ("a", np.int64), ("r", np.float64), ("sp", np.int64)])
# the surrogateescape error handler decodes each byte that is not UTF-8 to one of these
_NOT_UTF8 = re.compile("[\udc80-\udcff]")
# write_transitions renders this many rows per block
_WRITE_BLOCK_ROWS = 1 << 14


@contextmanager
def _replacing(path: str | Path):
    """A new UTF-8 text file to write in place of path: it is created in
    path's directory and replaces path only once the with block completes,
    and is removed when the block raises, so a failed write leaves path
    as it was. path keeps its permission bits; a symlink is written through.
    A path that is not a regular file, such as a pipe or /dev/stdout, holds
    nothing to keep and cannot be replaced, so it is written directly."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    tmp = f"{target}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        if os.path.exists(target):
            os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
        os.replace(tmp, target)
    finally:
        Path(tmp).unlink(missing_ok=True)


def read_transitions(path: str | Path):
    """Parse a transition file into columns (states, actions, rewards, next_states, linenos).

    Each nonblank line is one {"s", "a", "r", "sp"} object. Ids must be JSON
    integers (not booleans) that fit int64; r must be a finite number
    >= -NEGATIVE_REWARD_TOL or null, which reads as NaN. Ids and linenos (each
    record's 1-based line number) come back as int64, rewards as float, unclipped.
    The file is UTF-8; a line holding a byte that is not raises like any
    other malformed line.

    The file is read in chunks of _READ_BLOCK_CHARS characters, and each
    block ends after a chunk's last newline: the rest of the chunk, the
    start of a line, is kept as pieces until a later chunk ends that line.
    A block of canonical lines, which one fullmatch of _CANONICAL_BLOCK
    accepts, is stripped to its tokens and parsed with one np.loadtxt, whose
    C parser reads each float with PyOS_string_to_double, as float() and
    json do; any other block is split into lines and goes through the
    per-line json parser, _append_lines, which alone defines what is
    accepted and words the errors.
    """
    columns = (array("q"), array("q"), array("d"), array("q"), array("q"))
    lineno, pieces = 1, []
    with Path(path).open(encoding="utf-8", errors="surrogateescape") as fh:
        while chunk := fh.read(_READ_BLOCK_CHARS):
            end = chunk.rfind("\n") + 1
            if end:
                lineno += _append_block("".join(pieces + [chunk[:end]]), lineno, columns)
                pieces = []
            if end < len(chunk):
                pieces.append(chunk[end:])
    if pieces:  # a last line without a newline
        _append_block("".join(pieces), lineno, columns)
    return tuple(np.asarray(c) for c in columns)


def _append_block(text: str, first_lineno: int, columns) -> int:
    """Append the lines of text to the columns and return how many it holds."""
    count = _append_canonical(text, first_lineno, columns)
    if not count:
        # StringIO splits after each "\n" only, as the file's own readlines would
        lines = io.StringIO(text).readlines()
        _append_lines(lines, first_lineno, columns)
        count = len(lines)
    return count


def _append_canonical(text: str, first_lineno: int, columns) -> int:
    """Append a block of canonical lines to the columns and return how many
    there are; 0, appending nothing, when some line is not canonical or its
    reward is out of range."""
    if not _CANONICAL_BLOCK.fullmatch(text):
        return 0
    tokens = text.translate(_KEY_CHARS).replace("null", "nan")  # null is NaN
    rows = np.loadtxt(io.StringIO(tokens), dtype=_RECORD, delimiter=",", comments=None,
                      ndmin=1)
    rewards = rows["r"]
    if ((rewards < -NEGATIVE_REWARD_TOL) | (rewards == np.inf)).any():
        return 0
    linenos = np.arange(first_lineno, first_lineno + len(rows), dtype=np.int64)
    for column, values in zip(columns, [rows[name] for name in _RECORD.names] + [linenos]):
        column.frombytes(values.tobytes())
    return len(rows)


def _append_lines(lines: list, first_lineno: int, columns) -> None:
    """Parse each nonblank line with json and append it to the columns; the
    first bad line raises ValueError naming its line number."""
    states, actions, rewards, next_states, linenos = columns
    for lineno, line in enumerate(lines, start=first_lineno):
        if not line.strip():
            continue
        try:
            if byte := _NOT_UTF8.search(line):
                raise ValueError(f"byte 0x{ord(byte[0]) - 0xDC00:02X} is not UTF-8")
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


def write_transitions(path: str | Path, states, actions, rewards, next_states) -> None:
    """One {"s","a","r","sp"} line per record of the column arrays, NaN rewards as null.

    Floats are written as repr(float), so each line is byte for byte what
    json.dumps writes for the same record. Rows are rendered in blocks of
    _WRITE_BLOCK_ROWS: per block, each column renders each of its distinct
    values once, with the line's text around it, into its column of one
    rows x 4 object array, which is joined into one string and written with
    one call. Rewards are told apart by their bit pattern, which keeps -0.0
    apart from 0.0 and every NaN apart from every number. The file is
    written beside path and replaces it only once complete.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    with _replacing(path) as fh:
        for lo in range(0, len(rewards), _WRITE_BLOCK_ROWS):
            hi = lo + _WRITE_BLOCK_ROWS
            bits, which = np.unique(rewards[lo:hi].view(np.int64), return_inverse=True)
            reward_tokens = np.array(["null" if r != r else repr(r)
                                      for r in bits.view(np.float64).tolist()], dtype=object)
            pieces = np.empty((len(which), 4), dtype=object)
            pieces[:, 0] = _column_tokens(states[lo:hi], '{{"s": {}, "a": ')
            pieces[:, 1] = _column_tokens(actions[lo:hi], '{}, "r": ')
            pieces[:, 2] = reward_tokens[which]
            pieces[:, 3] = _column_tokens(next_states[lo:hi], ', "sp": {}}}\n')
            fh.write("".join(pieces.ravel().tolist()))


def _column_tokens(values: np.ndarray, template: str) -> np.ndarray:
    """template.format(v) for each of values, as an object array; each
    distinct value is formatted once."""
    distinct, which = np.unique(values, return_inverse=True)
    return np.array([template.format(v) for v in distinct.tolist()], dtype=object)[which]


def write_jsonl(dataset: OfflineDataset, path: str | Path, **provenance) -> None:
    """One {"s","a","r","sp"} object per line plus a sidecar header file: the
    caller's provenance fields, then the labeled flag, shape and row count."""
    rewards = np.full(len(dataset), np.nan) if dataset.rewards is None else dataset.rewards
    write_transitions(path, dataset.states, dataset.actions, rewards, dataset.next_states)
    write_header(path, {
        **provenance,
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
    )
