"""Finite linear MDPs with explicit feature factorization.

The model is the discounted linear MDP: transition and reward factor through
a known feature map phi : S x A -> R^d as

    P(s'|s,a) = <phi(s,a), mu(s')>,      r(s,a) = <phi(s,a), theta>,

with ||phi(s,a)||_2 <= 1, rewards in [0, r_max], and discount gamma in [0,1).
Everything here is finite and exact: policy evaluation is one linear solve
and optimal values come from policy iteration over those solves, so
downstream modules can treat these as ground truth.

When d < S the solve goes through the factorization. P_pi = Phi_pi mu has
rank d, so by the Woodbury identity

    (I - gamma Phi_pi mu)^-1 = I + gamma Phi_pi (I_d - gamma mu Phi_pi)^-1 mu

and a d x d system replaces the S x S one. Otherwise (tabular features with
d = S*A, single-state MDPs) the dense S x S system is the smaller one.
"""
from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

KERNEL_ROW_TOL = 1e-10     # transition rows must sum to 1 within this
KERNEL_ENTRY_TOL = 1e-12   # entries may undershoot 0 by at most this
REWARD_TOL = 1e-9
# the kernel is checked and computed in blocks of states holding near this
# many of its S*A*S entries, so no array of that size is made on the way
KERNEL_BLOCK_ENTRIES = 1 << 16
# the keys an MDP file must hold; seed and feature_scale may be left out
MDP_FIELDS = ("num_states", "num_actions", "dim", "gamma", "r_max", "phi", "mu", "theta",
              "init_dist")


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def json_number(what: str, key: str, value) -> float:
    """value, field key of a what file, as a float; anything but a JSON
    number (a bool, string or null, say) raises a ValueError naming the
    field instead of passing through float()."""
    if type(value) not in (int, float):
        raise ValueError(f"{what} field {key!r} must be a number, got {value!r}")
    return float(value)


def json_seed(what: str, value) -> int | None:
    """value, the seed field of a what file: a JSON integer or null; a bool,
    float, string, list or object raises a ValueError naming the field."""
    if value is not None and type(value) is not int:
        raise ValueError(f"{what} field 'seed' must be an integer or null, got {value!r}")
    return value


def json_numbers(what: str, key: str, value) -> np.ndarray:
    """value, field key of a what file and JSON numbers in nested lists, as
    a float array; any other entry raises a ValueError naming the field."""
    items = np.asarray(value, dtype=object).ravel()
    if not set(map(type, items)) <= {int, float}:
        bad = next(v for v in items if type(v) not in (int, float))
        raise ValueError(f"{what} field {key!r} must hold only numbers, got {bad!r}")
    return np.asarray(value, dtype=float)


def _state_blocks(num_states: int, num_actions: int) -> list:
    """Consecutive (lo, hi) ranges covering every state, each holding
    near KERNEL_BLOCK_ENTRIES kernel entries and at least one state."""
    step = max(1, KERNEL_BLOCK_ENTRIES // (num_actions * num_states))
    return [(lo, min(lo + step, num_states)) for lo in range(0, num_states, step)]


def _check_r_max(r_max: float) -> None:
    if not (np.isfinite(r_max) and r_max > 0):
        raise ValueError(f"r_max must be finite and positive, got {r_max}")


@dataclass(frozen=True)
class FeatureMap:
    """Feature table phi[s, a] in R^d with ||phi(s,a)||_2 <= 1."""

    phi: np.ndarray  # (S, A, d)

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        if phi.ndim != 3:
            raise ValueError(f"phi must be (S, A, d), got shape {phi.shape}")
        if min(phi.shape) < 1:
            raise ValueError(f"empty feature table: shape {phi.shape}")
        if not np.all(np.isfinite(phi)):
            raise ValueError("phi contains non-finite entries")
        norms = np.linalg.norm(phi, axis=2)
        if norms.max() > 1.0 + 1e-9:
            s, a = np.unravel_index(np.argmax(norms), norms.shape)
            raise ValueError(
                f"||phi({s},{a})||_2 = {norms[s, a]:.12g} exceeds 1"
            )
        object.__setattr__(self, "phi", _readonly(phi))

    @property
    def num_states(self) -> int:
        return self.phi.shape[0]

    @property
    def num_actions(self) -> int:
        return self.phi.shape[1]

    @property
    def dim(self) -> int:
        return self.phi.shape[2]

    def matrix(self) -> np.ndarray:
        """All features stacked row-major into an (S*A, d) matrix."""
        return self.phi.reshape(-1, self.dim)

    def pair_sums(self, pairs: np.ndarray, weights=None) -> np.ndarray:
        """Per pair id s*A + a, how many entries of pairs hold it or, with
        weights, the sum of their weights, added in row order: (S*A,)."""
        return np.bincount(pairs, weights=weights, minlength=self.matrix().shape[0])

    def gram(self, counts: np.ndarray) -> np.ndarray:
        """sum over pairs of counts * phi phi^T, (d, d): the Gram of a row
        set that visits each pair counts times, whatever the rows' order; a
        (K, S*A) stack of counts gives the (K, d, d) stack of their Grams,
        each with the bits it gets alone."""
        rows = self.matrix()
        return (rows.T * counts[..., None, :]) @ rows


@dataclass(frozen=True)
class LinearMdp:
    """A finite linear MDP (Definition-style factorization, discounted).

    mu has one row per feature dimension; column s' stacks the measure
    weights so that P(s'|s,a) = phi(s,a) @ mu[:, s'].
    """

    features: FeatureMap
    mu: np.ndarray       # (d, S), entries in [0, 1]
    theta: np.ndarray    # (d,), ||theta|| <= sqrt(d) * r_max
    gamma: float
    r_max: float
    init_dist: np.ndarray  # (S,), probability over start states
    seed: int | None = None
    feature_scale: float = 1.0  # bookkeeping for rescaled constructions

    def __post_init__(self):
        S, A, d = self.features.phi.shape
        mu = np.asarray(self.mu, dtype=float)
        theta = np.asarray(self.theta, dtype=float)
        init = np.asarray(self.init_dist, dtype=float)
        if mu.shape != (d, S):
            raise ValueError(f"mu must be ({d},{S}), got {mu.shape}")
        if theta.shape != (d,):
            raise ValueError(f"theta must be ({d},), got {theta.shape}")
        if init.shape != (S,):
            raise ValueError(f"init_dist must be ({S},), got {init.shape}")
        for name, values in (("mu", mu), ("theta", theta), ("init_dist", init)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} contains non-finite entries")
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError(f"gamma must be in [0,1), got {self.gamma}")
        _check_r_max(self.r_max)

        if mu.min() < -KERNEL_ENTRY_TOL or mu.max() > 1.0 + 1e-9:
            raise ValueError("mu entries must lie in [0, 1]")
        mu = np.clip(mu, 0.0, None)

        tnorm = np.linalg.norm(theta)
        cap = np.sqrt(d) * self.r_max
        if tnorm > cap * (1 + 1e-9):
            raise ValueError(f"||theta|| = {tnorm:.12g} exceeds sqrt(d)*r_max = {cap:.12g}")

        # The kernel is clip(phi mu) / row_sums (kernel_rows): entries in
        # [-1e-12, 0) are clamped to 0 and each row renormalized. Checked one
        # block of states at a time, so no S x A x S array is made here.
        phi = self.features.phi
        p_min, row_sums = np.inf, np.empty((S, A))
        for lo, hi in _state_blocks(S, A):
            p = np.einsum("sad,de->sae", phi[lo:hi], mu)
            p_min = min(p_min, p.min())
            row_sums[lo:hi] = np.clip(p, 0.0, None, out=p).sum(axis=2)
        if p_min < -KERNEL_ENTRY_TOL:
            raise ValueError(f"negative transition probability {p_min:.3e}")
        if np.abs(row_sums - 1.0).max() > KERNEL_ROW_TOL:
            bad = np.abs(row_sums - 1.0).max()
            raise ValueError(f"transition rows must sum to 1 within 1e-10 (off by {bad:.3e})")

        r = phi @ theta
        if r.min() < -REWARD_TOL or r.max() > self.r_max + REWARD_TOL:
            raise ValueError(
                f"rewards <phi,theta> must lie in [0, r_max]; saw [{r.min():.6g}, {r.max():.6g}]"
            )
        r = np.clip(r, 0.0, self.r_max)

        # Stored verbatim (not renormalized) so serialization round-trips
        # bit for bit; samplers tolerate the <=1e-9 mass slack.
        if init.min() < 0 or abs(init.sum() - 1.0) > 1e-9:
            raise ValueError("init_dist must be a probability vector")

        object.__setattr__(self, "mu", _readonly(mu))
        object.__setattr__(self, "theta", _readonly(theta))
        object.__setattr__(self, "init_dist", _readonly(init))
        object.__setattr__(self, "_r_table", _readonly(r))
        object.__setattr__(self, "_row_sums", _readonly(row_sums))
        # Row-normalized phi times mu is the kernel up to rounding unless the
        # clip changed an entry. The exact solves use it only then, and only
        # when d < S, where its d x d systems are the smaller; such an MDP
        # stores no kernel. Every other MDP stores P, which its dense solves
        # read on every call; when d >= S its phi is no smaller.
        factor = None
        if d < S and p_min >= 0.0:
            factor = _readonly(phi / row_sums[:, :, None])
        object.__setattr__(self, "_factor", factor)
        object.__setattr__(self, "_kernel", None)
        if factor is None:
            object.__setattr__(self, "_kernel", _readonly(self.kernel_rows(0, S)))
        # tables derived from the MDP alone, which their builders keep here
        # on first use (data._kernel_table): the MDP never changes
        object.__setattr__(self, "_tables", {})

    @property
    def num_states(self) -> int:
        return self.features.num_states

    @property
    def num_actions(self) -> int:
        return self.features.num_actions

    @property
    def dim(self) -> int:
        return self.features.dim

    @property
    def v_max(self) -> float:
        return self.r_max / (1.0 - self.gamma)

    @property
    def transitions(self) -> np.ndarray:
        """P[s, a, s'], shape (S, A, S): the stored kernel, or for an MDP
        with a factor a fresh array computed on every access."""
        return self.kernel_rows(0, self.num_states)

    def kernel_rows(self, lo: int, hi: int) -> np.ndarray:
        """P[lo:hi], shape (hi - lo, A, S): a view of the stored kernel, or
        clip(phi mu) / row_sums computed for those states alone, which is
        bit for bit those rows of the whole product."""
        if self._kernel is not None:
            return self._kernel[lo:hi]
        p = np.einsum("sad,de->sae", self.features.phi[lo:hi], self.mu)
        np.clip(p, 0.0, None, out=p)
        p /= self._row_sums[lo:hi, :, None]
        return p

    def kernel_blocks(self):
        """(lo, kernel_rows(lo, hi)) for consecutive blocks of states that
        cover them all, each holding near KERNEL_BLOCK_ENTRIES entries."""
        for lo, hi in _state_blocks(self.num_states, self.num_actions):
            yield lo, self.kernel_rows(lo, hi)

    @property
    def rewards(self) -> np.ndarray:
        """r[s, a] = <phi(s,a), theta>, shape (S, A)."""
        return self._r_table

    # ---- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "num_states": self.num_states,
            "num_actions": self.num_actions,
            "dim": self.dim,
            "gamma": self.gamma,
            "r_max": self.r_max,
            "phi": self.features.phi.ravel().tolist(),
            "mu": self.mu.ravel().tolist(),
            "theta": self.theta.tolist(),
            "init_dist": self.init_dist.tolist(),
            "seed": self.seed,
            "feature_scale": self.feature_scale,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "LinearMdp":
        for key in MDP_FIELDS:
            if key not in doc:
                raise ValueError(f"MDP file is missing field {key!r}")
        for key in ("num_states", "num_actions", "dim"):
            if type(doc[key]) is not int or doc[key] < 1:
                raise ValueError(f"MDP field {key!r} must be a positive integer, "
                                 f"got {doc[key]!r}")
        S, A, d = doc["num_states"], doc["num_actions"], doc["dim"]
        arrays = {}
        for key, size, formula in (("phi", S * A * d, "num_states*num_actions*dim"),
                                   ("mu", d * S, "dim*num_states"), ("theta", d, "dim"),
                                   ("init_dist", S, "num_states")):
            arrays[key] = json_numbers("MDP", key, doc[key])
            if arrays[key].size != size:
                raise ValueError(f"MDP field {key!r} must hold {formula} = {size} numbers, "
                                 f"got {arrays[key].size}")
        return cls(
            features=FeatureMap(arrays["phi"].reshape(S, A, d)),
            mu=arrays["mu"].reshape(d, S),
            theta=arrays["theta"],
            gamma=json_number("MDP", "gamma", doc["gamma"]),
            r_max=json_number("MDP", "r_max", doc["r_max"]),
            init_dist=arrays["init_dist"],
            seed=json_seed("MDP", doc.get("seed")),
            feature_scale=json_number("MDP", "feature_scale", doc.get("feature_scale", 1.0)),
        )

    def content_hash(self) -> str:
        """Stable short hash of the serialized MDP for `pdslab sample` headers;
        it serializes every float, which is slow at large S, so no sweep calls it."""
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def save_mdp(mdp: LinearMdp, path: str | Path) -> None:
    Path(path).write_text(json.dumps(mdp.to_dict()) + "\n")


def load_mdp(path: str | Path) -> LinearMdp:
    return LinearMdp.from_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class Policy:
    """Row-stochastic action distribution per state."""

    probs: np.ndarray  # (S, A)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 2:
            raise ValueError(f"policy must be (S, A), got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("policy probabilities must be finite")
        if p.min() < 0:
            raise ValueError("policy probabilities must be nonnegative")
        if np.abs(p.sum(axis=1) - 1.0).max() > 1e-12:
            raise ValueError("policy rows must sum to 1 within 1e-12")
        object.__setattr__(self, "probs", _readonly(p))

    @property
    def num_states(self) -> int:
        return self.probs.shape[0]

    @property
    def num_actions(self) -> int:
        return self.probs.shape[1]

    @classmethod
    def uniform(cls, num_states: int, num_actions: int) -> "Policy":
        return cls(np.full((num_states, num_actions), 1.0 / num_actions))

    @classmethod
    def deterministic(cls, actions: np.ndarray, num_actions: int) -> "Policy":
        actions = np.asarray(actions, dtype=int)
        p = np.zeros((actions.shape[0], num_actions))
        p[np.arange(actions.shape[0]), actions] = 1.0
        return cls(p)

    @classmethod
    def greedy(cls, q: np.ndarray) -> "Policy":
        """Deterministic argmax policy; ties go to the lowest action index."""
        q = np.asarray(q, dtype=float)
        return cls.deterministic(np.argmax(q, axis=1), q.shape[1])

    def mixed_with_uniform(self, epsilon: float) -> "Policy":
        """(1-eps) * this policy + eps * uniform; epsilon-greedy smoothing."""
        if not (0.0 <= epsilon <= 1.0):
            raise ValueError(f"epsilon must be in [0,1], got {epsilon}")
        A = self.num_actions
        return Policy((1.0 - epsilon) * self.probs + epsilon / A)


@dataclass(frozen=True)
class ValueReport:
    """Exact V and Q for some policy (or the optimum)."""

    v: np.ndarray  # (S,)
    q: np.ndarray  # (S, A)

    def __post_init__(self):
        object.__setattr__(self, "v", _readonly(self.v))
        object.__setattr__(self, "q", _readonly(self.q))


def _check_value_range(v: np.ndarray, q: np.ndarray, v_max: float) -> tuple[np.ndarray, np.ndarray]:
    # Direct solves can undershoot 0 by rounding; snap those, reject real violations.
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(q))):
        raise ValueError("values are not finite")
    lo = min(v.min(), q.min())
    hi = max(v.max(), q.max())
    if lo < -1e-9 or hi > v_max + 1e-9:
        raise ValueError(f"values outside [0, v_max]: range [{lo:.6g}, {hi:.6g}], v_max={v_max:.6g}")
    return np.clip(v, 0.0, None), np.clip(q, 0.0, None)


def _apply_resolvent(mdp: LinearMdp, policy: Policy, rhs: np.ndarray,
                     scale: float = 1.0) -> np.ndarray:
    """scale * (I - gamma P_pi)^-1 rhs for an (S,) or (S, k) right-hand side.

    With the MDP's factor (row-normalized phi, so that P = factor @ mu),
    P_pi = Phi_pi mu with Phi_pi[s] = sum_a pi(a|s) factor(s,a), and the
    Woodbury identity leaves one d x d solve against mu @ rhs. Without a
    factor the S x S system is solved densely: directly for a vector, and
    for a matrix through the adjoint system against scale * I (the
    discounted occupancy of every start state) and one product with rhs.
    """
    gamma, probs = mdp.gamma, policy.probs
    factor = mdp._factor
    if factor is None:
        S = mdp.num_states
        system = np.eye(S) - gamma * np.einsum("sa,sae->se", probs, mdp.transitions)
        if rhs.ndim == 1:
            return np.linalg.solve(system, scale * rhs)
        return np.linalg.solve(system.T, scale * np.eye(S)).T @ rhs
    phi_pi = np.einsum("sa,sad->sd", probs, factor)
    mu = mdp.mu
    x = np.linalg.solve(np.eye(mdp.dim) - gamma * (mu @ phi_pi), mu @ rhs)
    return scale * (rhs + gamma * (phi_pi @ x))


def evaluate_policy(mdp: LinearMdp, policy: Policy) -> ValueReport:
    """Exact policy evaluation by one linear solve.

    Solves (I - gamma * P_pi) V = r_pi, where P_pi and r_pi average the
    kernel and rewards over the policy, then backs out Q = r + gamma * P V.
    When the MDP keeps a kernel factor both go through it: the solve is
    d x d and P V is factor @ (mu @ V).
    """
    if policy.probs.shape != (mdp.num_states, mdp.num_actions):
        raise ValueError(
            f"policy shape {policy.probs.shape} does not match mdp "
            f"({mdp.num_states},{mdp.num_actions})"
        )
    r_pi = np.einsum("sa,sa->s", policy.probs, mdp.rewards)
    v = _apply_resolvent(mdp, policy, r_pi)
    factor = mdp._factor
    if factor is None:
        q = mdp.rewards + mdp.gamma * mdp.transitions @ v
    else:
        q = mdp.rewards + mdp.gamma * (factor @ (mdp.mu @ v))
    v, q = _check_value_range(v, q, mdp.v_max)
    return ValueReport(v=v, q=q)


def solve_optimal(mdp: LinearMdp) -> tuple[Policy, ValueReport]:
    """Optimal policy and its exact values, by Howard's policy iteration.

    Starts from the reward-greedy policy, evaluates each policy exactly and
    moves to the greedy policy of its Q until that policy repeats, so the
    returned report solves the Bellman optimality equation to solver
    precision. Ties break to the lowest action index.

    In exact arithmetic each step raises V somewhere or reaches the fixed
    point, so no policy comes back and the loop ends within the finitely
    many deterministic policies. A policy that comes back is rounding in
    the evaluations and raises, rather than returning a policy that is
    not optimal.
    """
    policy = Policy.greedy(mdp.rewards)
    visited = set()
    while True:
        report = evaluate_policy(mdp, policy)
        improved = Policy.greedy(report.q)
        if np.array_equal(improved.probs, policy.probs):
            return policy, report
        visited.add(policy.probs.tobytes())
        if improved.probs.tobytes() in visited:
            raise FloatingPointError(
                "policy iteration revisited a policy: rounding in the policy "
                "evaluations made it cycle"
            )
        policy = improved


def suboptimality(mdp: LinearMdp, policy: Policy, state: int) -> float:
    """SubOpt(pi; s) = V*(s) - V^pi(s), computed from exact solves."""
    if isinstance(state, bool) or not isinstance(state, numbers.Integral):
        raise ValueError(f"state must be an integer, got {state!r}")
    if not (0 <= state < mdp.num_states):
        raise ValueError(f"state {state} out of range")
    _, star = solve_optimal(mdp)
    mine = evaluate_policy(mdp, policy)
    return float(star.v[state] - mine.v[state])


# ---- constructors ---------------------------------------------------------


def make_tabular_mdp(
    num_states: int,
    num_actions: int,
    gamma: float = 0.9,
    r_max: float = 1.0,
    seed: int = 0,
) -> LinearMdp:
    """Random tabular MDP embedded as a linear MDP with one-hot features.

    d = S*A; phi(s,a) is the indicator of the pair, mu row idx(s,a) holds
    the Dirichlet-drawn transition distribution of that pair, and theta
    holds the uniform [0, r_max] reward table.
    """
    if num_states < 1 or num_actions < 1:
        raise ValueError("num_states and num_actions must be >= 1")
    _check_r_max(r_max)
    rng = np.random.default_rng(seed)
    S, A = num_states, num_actions
    d = S * A
    phi = np.eye(d).reshape(S, A, d)
    mu = rng.dirichlet(np.ones(S), size=d)          # (d, S) rows are P(.|s,a)
    theta = rng.uniform(0.0, r_max, size=d)
    return LinearMdp(
        features=FeatureMap(phi),
        mu=mu,
        theta=theta,
        gamma=gamma,
        r_max=r_max,
        init_dist=np.full(S, 1.0 / S),
        seed=seed,
    )


def make_lowrank_mdp(
    num_states: int,
    num_actions: int,
    dim: int,
    gamma: float = 0.9,
    r_max: float = 1.0,
    seed: int = 0,
) -> LinearMdp:
    """Random rank-d linear MDP.

    Features are drawn on the d-simplex (so ||phi||_2 <= 1 automatically),
    each mu row is a distribution over states, hence every transition row
    is a convex combination of distributions; theta uniform in [0, r_max]
    keeps rewards in range.
    """
    if not (1 <= dim <= num_states * num_actions):
        raise ValueError(f"dim must be in [1, {num_states * num_actions}], got {dim}")
    _check_r_max(r_max)
    rng = np.random.default_rng(seed)
    phi = rng.dirichlet(np.ones(dim), size=(num_states, num_actions))
    mu = rng.dirichlet(np.ones(num_states), size=dim)
    theta = rng.uniform(0.0, r_max, size=dim)
    return LinearMdp(
        features=FeatureMap(phi),
        mu=mu,
        theta=theta,
        gamma=gamma,
        r_max=r_max,
        init_dist=np.full(num_states, 1.0 / num_states),
        seed=seed,
    )


def make_adversarial_mdp(
    num_actions: int,
    dim: int,
    gamma: float = 0.9,
    r_max: float = 1.0,
) -> LinearMdp:
    """Single-state construction whose optimal occupancy second moment is
    proportional to the identity.

    The first `dim` actions carry scaled one-hot features sqrt(d)*e_i; for
    d > 1 that violates the norm cap, so all features are rescaled by
    1/sqrt(d) (recorded in feature_scale) which preserves proportionality
    to I. Remaining actions sit at the simplex barycenter. With one state,
    kernel validity pins mu = all-ones, and identical Q* across the d
    one-hot actions then forces theta = r_max * ones: every action earns
    r_max, so the uniform mixture over the first d actions is optimal.
    """
    if num_actions <= dim:
        raise ValueError(f"need num_actions > dim, got {num_actions} <= {dim}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    scale = 1.0 if dim == 1 else 1.0 / np.sqrt(dim)
    phi = np.zeros((1, num_actions, dim))
    phi[0, :dim, :] = np.sqrt(dim) * np.eye(dim) * scale   # = e_i exactly
    phi[0, dim:, :] = 1.0 / dim
    return LinearMdp(
        features=FeatureMap(phi),
        mu=np.ones((dim, 1)),
        theta=np.full(dim, r_max),
        gamma=gamma,
        r_max=r_max,
        init_dist=np.array([1.0]),
        feature_scale=scale,
    )
