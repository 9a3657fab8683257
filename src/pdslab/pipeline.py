"""Data-sharing experiment driver: method definitions, single runs, and sweeps.

A run takes a labeled dataset d0 and a reward-free dataset d1, fills in d1's
rewards according to the method (reward.fill_table), and hands the union to
the pessimistic solver; so every method but no_share trains on the same rows
and is only a reward vector on them:

    pds            lower-confidence reward (prediction minus ellipsoid width)
    uds            zero reward everywhere
    reward_predict plain clamped prediction
    oracle         true rewards (diagnostic upper baseline)
    no_share       drops d1 entirely

Suboptimality is measured against the exact optimal policy, reported both
in expectation over the initial distribution and as the worst state. Dataset
seeds derive from the cell coordinates only, so every method inside a cell
sees identical data. Work that does not depend on the method is done once
per cell: the reward fit, coverage, and the pevi_prepare reduction of each
of its row sets (d0, and d0 then d1). Work that depends only on the MDP is
done once per sweep: the oracle solve and the coverage bases (the range
bases of every start's optimal occupancy moment, see data.coverage_bases),
so a cell's coverage costs one Gram and a few batched eigvalsh per dataset.

Sweeps run the grid column by column, a column being one (n0, n1) pair. Its
seeds are sampled in batches (sample_datasets, one lockstep rollout per
batch and dataset role), each cell of a batch is prepared up to its PEVI
problems with the same code run_method uses, and the batch's datasets are
dropped before the next batch. The PEVI problems are then solved in one
pevi_lockstep per column, or per chunk of its seeds when the column's
stacked problem tables would exceed _SOLVE_CHUNK_ENTRIES. Every number in a
row is bit for bit what run_method gives for that cell alone. A row's
wall_ms is the cell's shared work (reward fit, coverage), an equal share of
its row set's reduction (the mix and pevi_prepare), its own reward vector,
an equal share of its lockstep solve, and its own policy evaluation
(sampling, the oracle solve and the coverage bases are not counted).
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from pdslab.data import (
    CoverageBases,
    OfflineDataset,
    coverage_bases,
    coverage_coefficient,
    mix_datasets,
    sample_datasets,
)
from pdslab.mdp import LinearMdp, Policy, evaluate_policy, solve_optimal
from pdslab.pevi import PeviConfig, PeviProblem, pevi_lockstep, pevi_prepare, theorem_beta
from pdslab.reward import ALPHA_MODES, fill_missing, fill_table, fit_reward

# the sweep does not call these, but perfbench's tracer wraps them under
# these names, so they stay importable from this module
from pdslab.data import sample_dataset  # noqa: F401
from pdslab.pevi import pevi_solve  # noqa: F401
from pdslab.reward import relabel  # noqa: F401

QUALITIES = ("expert", "medium", "random")
_EPS_GREEDY = {"expert": 0.05, "medium": 0.3}

CSV_HEADER = "method,n0,n1,c0,c1,gamma,d,seed,subopt_mean,subopt_max,vhat_start,wall_ms"

# A sweep samples the seeds of one grid column in batches of at most this
# many dataset rows, n0 + n1 per seed; a batch holds at least one seed.
_SEED_BATCH_ROWS = 1 << 16

# A sweep solves a column's PEVI problems in lockstep chunks of whole seeds
# whose stacked (A + d) x S tables, one per problem, hold at most this many
# entries; a chunk holds at least one seed.
_SOLVE_CHUNK_ENTRIES = 1 << 20


class MethodId(Enum):
    PDS = "pds"
    UDS = "uds"
    REWARD_PREDICT = "reward_predict"
    ORACLE = "oracle"
    NO_SHARE = "no_share"


_RELABEL_MODE = {
    MethodId.PDS: "pds",
    MethodId.UDS: "uds",
    MethodId.REWARD_PREDICT: "predict",
    MethodId.ORACLE: "oracle",
}


def behavior_policy(mdp: LinearMdp, quality: str, optimal: Policy | None = None) -> Policy:
    """Dataset-quality presets: expert/medium mix the optimal policy with
    uniform exploration (epsilon 0.05 / 0.3), random is uniform."""
    if quality not in QUALITIES:
        raise ValueError(f"quality must be one of {QUALITIES}, got {quality!r}")
    if quality == "random":
        return Policy.uniform(mdp.num_states, mdp.num_actions)
    if optimal is None:
        optimal = solve_optimal(mdp)[0]
    return optimal.mixed_with_uniform(_EPS_GREEDY[quality])


def _require(name: str, value, ok, want: str, *, integer: bool = False,
             nullable: bool = False) -> None:
    """Raise ValueError naming the setting unless value is a finite number
    (an integer when asked), not a bool, for which ok holds; None passes
    only when the setting is nullable."""
    if value is None and nullable:
        return
    kind = numbers.Integral if integer else numbers.Real
    if (isinstance(value, bool) or not isinstance(value, kind) or not math.isfinite(value)
            or not ok(value)):
        raise ValueError(f"{name} must be {want}, got {value!r}")


def _positive(v) -> bool:
    return v > 0


def _probability(v) -> bool:
    return 0 < v < 1


@dataclass(frozen=True)
class RewardSettings:
    nu: float = 1.0
    delta: float = 0.1
    alpha_mode: str = "lemma"

    def __post_init__(self):
        _require("reward.nu", self.nu, _positive, "a finite positive number")
        _require("reward.delta", self.delta, _probability, "a number in (0, 1)")
        if self.alpha_mode not in ALPHA_MODES:
            raise ValueError(
                f"reward.alpha_mode must be one of {ALPHA_MODES}, got {self.alpha_mode!r}"
            )


@dataclass(frozen=True)
class PeviSettings:
    """PEVI settings: the bonus multiplier beta comes from the theorem
    (lambda_reg, delta, c) unless beta_override fixes it; tol and max_sweeps
    None keep PeviConfig's defaults."""

    lambda_reg: float = 1.0
    delta: float = 0.1
    c: float = 1.0
    beta_override: float | None = None
    tol: float | None = None
    max_sweeps: int | None = None

    def __post_init__(self):
        _require("pevi.lambda_reg", self.lambda_reg, _positive, "a finite positive number")
        _require("pevi.delta", self.delta, _probability, "a number in (0, 1)")
        _require("pevi.c", self.c, _positive, "a finite positive number")
        _require("pevi.beta_override", self.beta_override, lambda v: v >= 0,
                 "a finite nonnegative number or null", nullable=True)
        _require("pevi.tol", self.tol, _positive, "a finite positive number or null",
                 nullable=True)
        _require("pevi.max_sweeps", self.max_sweeps, lambda v: v >= 1,
                 "an integer >= 1 or null", integer=True, nullable=True)

    def config_for(self, mdp: LinearMdp, n_total: int) -> PeviConfig:
        if self.beta_override is not None:
            beta = self.beta_override
        else:
            beta = theorem_beta(mdp.dim, n_total, mdp.gamma, mdp.r_max, self.delta, self.c)
        return PeviConfig.for_mdp(
            mdp.gamma, mdp.r_max, beta, lambda_reg=self.lambda_reg,
            tol=self.tol, max_sweeps=self.max_sweeps,
        )


@dataclass(frozen=True)
class RunResult:
    method: MethodId
    n0: int
    n1: int
    c0_dagger: float
    c1_dagger: float
    gamma: float
    dim: int
    seed: int
    subopt_mean: float
    subopt_max: float
    v_hat_start: float
    wall_time_ms: float
    converged: bool
    policy_actions: tuple = ()

    def __post_init__(self):
        if self.subopt_mean < -1e-8 or self.subopt_max < -1e-8:
            raise ValueError(
                f"negative suboptimality beyond oracle tolerance: {self.subopt_mean}"
            )

    def csv_row(self) -> str:
        return ",".join([
            self.method.value,
            str(self.n0),
            str(self.n1),
            repr(self.c0_dagger),
            repr(self.c1_dagger),
            repr(self.gamma),
            str(self.dim),
            str(self.seed),
            repr(self.subopt_mean),
            repr(self.subopt_max),
            repr(self.v_hat_start),
            f"{self.wall_time_ms:.3f}",
        ])


def run_method(
    mdp: LinearMdp,
    d0: OfflineDataset,
    d1: OfflineDataset | None,
    method: MethodId,
    reward_cfg: RewardSettings = RewardSettings(),
    pevi_cfg: PeviSettings = PeviSettings(),
    seed: int = 0,
    oracle: tuple | None = None,
) -> RunResult:
    """Execute one method on one dataset pair and measure exact suboptimality.

    oracle, if given, is a precomputed (optimal_policy, optimal_values) pair;
    sweeps pass it to avoid re-solving the same MDP hundreds of times.
    """
    (outcome,) = _solve_prepared(mdp, _prepare_methods(
        mdp, d0, d1, (MethodId(method),), reward_cfg, pevi_cfg, seed, oracle))
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


@dataclass(frozen=True)
class _Prepared:
    """One method's run on one dataset pair up to its PEVI solve."""

    method: MethodId
    problem: PeviProblem
    n0: int
    n1: int
    c0: float
    c1: float
    seed: int
    optimal_v: np.ndarray
    seconds: float  # the cell's shared work plus this method's own preparation


def _prepare_methods(
    mdp: LinearMdp,
    d0: OfflineDataset,
    d1: OfflineDataset | None,
    methods: tuple,
    reward_cfg: RewardSettings,
    pevi_cfg: PeviSettings,
    seed: int,
    oracle: tuple | None,
    bases: CoverageBases | None = None,
) -> list:
    """Prepare each method's PEVI problem on one dataset pair: a _Prepared
    or the raised exception per method, in order.

    The reward fit and both coverage coefficients do not depend on the
    method, so they are computed once, against bases (the optimal policy's
    coverage_bases, built here when not given); if that shared work fails,
    every method gets its exception. Each method is then a reward vector on
    one of two row sets, d0 or d0 then d1 (see the module docstring), and
    pevi_prepare reduces each row set once for all of its vectors.
    """
    start = time.perf_counter()
    n1 = 0 if d1 is None else len(d1)
    try:
        if not d0.labeled or len(d0) == 0:
            raise ValueError("run_method requires nonempty labeled d0")
        if d1 is not None and d1.labeled:
            raise ValueError("d1 must be reward-free")
        if oracle is None:
            oracle = solve_optimal(mdp)
        optimal_policy, optimal_values = oracle
        if bases is None:
            bases = coverage_bases(mdp, optimal_policy)
        model = fit_reward(
            d0, mdp.features, nu=reward_cfg.nu, delta=reward_cfg.delta,
            r_max=mdp.r_max, alpha_mode=reward_cfg.alpha_mode,
        )
        c0 = coverage_coefficient(d0, mdp, bases).c_dagger
        c1 = coverage_coefficient(d1, mdp, bases).c_dagger if n1 > 0 else 0.0
    except Exception as exc:  # reported per method by the caller
        return [exc] * len(methods)
    shared_s = time.perf_counter() - start

    outcomes = {m: ValueError(f"{m.value} needs an unlabeled dataset (may be empty)")
                for m in methods if d1 is None and m is not MethodId.NO_SHARE}
    on_d0 = [m for m in methods if m not in outcomes and (m is MethodId.NO_SHARE or n1 == 0)]
    on_mixed = [m for m in methods if m not in outcomes and m not in on_d0]

    def mixed_rewards(method):
        # oracle replaces every d1 reward, the others fill only the missing ones
        observed = None if method is MethodId.ORACLE else d1.rewards
        table = fill_table(model, mdp.features, _RELABEL_MODE[method], mdp)
        return np.concatenate([d0.rewards, fill_missing(observed, table, d1.states, d1.actions)])

    for members, rows_of, rewards_of in ((on_d0, lambda: d0, lambda m: d0.rewards),
                                         (on_mixed, lambda: mix_datasets(d0, d1), mixed_rewards)):
        if not members:
            continue
        start = time.perf_counter()
        try:
            rows, rewards, own_s = rows_of(), [], []
            for method in members:
                vector_start = time.perf_counter()
                rewards.append(rewards_of(method))
                own_s.append(time.perf_counter() - vector_start)
            config = pevi_cfg.config_for(mdp, len(rows))
            problems = pevi_prepare(rows, mdp.features, config, rewards)
        except Exception as exc:  # reported per method by the caller
            outcomes.update(dict.fromkeys(members, exc))
            continue
        share_s = (time.perf_counter() - start - sum(own_s)) / len(members)
        for method, problem, vector_s in zip(members, problems, own_s):
            outcomes[method] = _Prepared(
                method=method, problem=problem, n0=len(d0), n1=n1, c0=c0, c1=c1, seed=seed,
                optimal_v=optimal_values.v, seconds=shared_s + share_s + vector_s,
            )
    return [outcomes[method] for method in methods]


def _solve_prepared(mdp: LinearMdp, outcomes: list) -> list:
    """Solve every _Prepared in outcomes with one pevi_lockstep, then evaluate
    each policy exactly; returns outcomes with each _Prepared replaced by its
    RunResult or the raised exception.

    A row's wall time is its _Prepared seconds, an equal share of the
    lockstep solve, and its own evaluation.
    """
    pending = [i for i, o in enumerate(outcomes) if isinstance(o, _Prepared)]
    start = time.perf_counter()
    try:
        solutions = pevi_lockstep([outcomes[i].problem for i in pending], mdp.features)
    except Exception as exc:  # reported per method by the caller
        solutions = [exc] * len(pending)
    share_s = (time.perf_counter() - start) / max(len(pending), 1)

    outcomes = list(outcomes)
    for i, solution in zip(pending, solutions):
        if isinstance(solution, Exception):
            outcomes[i] = solution
            continue
        prep, start = outcomes[i], time.perf_counter()
        try:
            gaps = prep.optimal_v - evaluate_policy(mdp, solution.policy).v
            outcomes[i] = RunResult(
                method=prep.method,
                n0=prep.n0,
                n1=prep.n1,
                c0_dagger=prep.c0,
                c1_dagger=prep.c1,
                gamma=mdp.gamma,
                dim=mdp.dim,
                seed=prep.seed,
                subopt_mean=float(mdp.init_dist @ gaps),
                subopt_max=float(gaps.max()),
                v_hat_start=float(mdp.init_dist @ solution.v_hat),
                wall_time_ms=(prep.seconds + share_s + time.perf_counter() - start) * 1e3,
                converged=solution.converged,
                policy_actions=tuple(int(a) for a in np.argmax(solution.policy.probs, axis=1)),
            )
        except Exception as exc:  # reported per method by the caller
            outcomes[i] = exc
    return outcomes


@dataclass(frozen=True)
class SweepGrid:
    n0_values: tuple
    n1_values: tuple
    methods: tuple
    seeds: tuple
    labeled_quality: str = "medium"
    unlabeled_quality: str = "expert"
    noise: bool | float = False
    horizon_reset: int = 100
    reward: RewardSettings = field(default_factory=RewardSettings)
    pevi: PeviSettings = field(default_factory=PeviSettings)

    def __post_init__(self):
        if not self.n0_values or not self.n1_values or not self.methods or not self.seeds:
            raise ValueError("grid axes must be nonempty")
        for name, values in (("n0", self.n0_values), ("n1", self.n1_values),
                             ("seed", self.seeds)):
            if len(set(values)) != len(values):
                raise ValueError(f"{name} values must be distinct, got {list(values)}")
        if any(s < 0 for s in self.seeds):
            raise ValueError(f"seeds must be nonnegative, got {list(self.seeds)}")
        if any(n < 1 for n in self.n0_values):
            raise ValueError("n0 values must be >= 1")
        if any(n < 0 for n in self.n1_values):
            raise ValueError("n1 values must be >= 0")
        for name, q in (("labeled_quality", self.labeled_quality),
                        ("unlabeled_quality", self.unlabeled_quality)):
            if q not in QUALITIES:
                raise ValueError(f"data.{name} must be one of {QUALITIES}, got {q!r}")
        if not isinstance(self.noise, bool):
            _require("data.noise", self.noise, lambda v: v >= 0,
                     "a boolean or a finite nonnegative number")
        _require("data.horizon_reset", self.horizon_reset, lambda v: v >= 1,
                 "an integer >= 1", integer=True)
        valid = sorted(m.value for m in MethodId)
        for m in self.methods:
            if not isinstance(m, MethodId) and m not in valid:
                raise ValueError(f"unknown method {m!r}, valid: {valid}")
        methods = tuple(MethodId(m) for m in self.methods)
        if len(set(methods)) != len(methods):
            raise ValueError(f"methods must be distinct, got {[m.value for m in methods]}")
        object.__setattr__(self, "methods", methods)


@dataclass(frozen=True)
class SweepReport:
    results: tuple
    failures: tuple


def _cell_seeds(seed: int, n0: int, n1: int, grid: SweepGrid) -> tuple[int, int]:
    # dataset randomness is keyed by the cell coordinates alone; the method
    # axis must never perturb the data it is compared on
    key = [
        int(seed), int(n0), int(n1),
        QUALITIES.index(grid.labeled_quality),
        QUALITIES.index(grid.unlabeled_quality),
    ]
    state = np.random.SeedSequence(key).generate_state(2)
    return int(state[0]), int(state[1])


def _prepare_batch(mdp: LinearMdp, grid: SweepGrid, n0: int, n1: int, seeds, oracle,
                   bases, behaviors) -> list:
    """Sample the d0 and d1 of every seed in seeds with one sample_datasets
    call each, then prepare every method of each cell: the outcomes in
    (seed, method) order.

    The datasets are locals, so they are gone before the next batch is
    sampled; exceptions lose their tracebacks, which would keep them alive.
    """
    d0_seeds, d1_seeds = zip(*(_cell_seeds(seed, n0, n1, grid) for seed in seeds))
    pi0, pi1 = behaviors
    try:
        d0s = sample_datasets(mdp, pi0, n0, d0_seeds, horizon_reset=grid.horizon_reset,
                              labeled=True, noise=grid.noise)
        if n1 > 0:
            d1s = sample_datasets(mdp, pi1, n1, d1_seeds, horizon_reset=grid.horizon_reset,
                                  labeled=False)
        else:
            d1s = [OfflineDataset([], [], None, [], labeled=False, num_states=mdp.num_states,
                                  num_actions=mdp.num_actions)] * len(seeds)
    except Exception as exc:  # cell failures are data, not crashes
        outcomes = [exc] * (len(seeds) * len(grid.methods))
    else:
        outcomes = [
            outcome
            for seed, d0, d1 in zip(seeds, d0s, d1s)
            for outcome in _prepare_methods(mdp, d0, d1, grid.methods, grid.reward,
                                            grid.pevi, seed, oracle, bases)
        ]
    return [o.with_traceback(None) if isinstance(o, Exception) else o for o in outcomes]


def _run_column(mdp: LinearMdp, grid: SweepGrid, n0: int, n1: int, oracle, bases, behaviors):
    """Every seed's cell of one (n0, n1) grid column. The seeds are split
    into chunks of at most _SOLVE_CHUNK_ENTRIES problem entries; a chunk's
    seeds are sampled and prepared in batches of at most _SEED_BATCH_ROWS
    dataset rows, then all of its PEVI problems are solved in one lockstep."""
    per_batch = max(1, _SEED_BATCH_ROWS // (n0 + n1))
    per_problem = mdp.num_states * (mdp.num_actions + mdp.dim)
    per_chunk = max(1, _SOLVE_CHUNK_ENTRIES // (per_problem * len(grid.methods)))
    out, failures = [], []
    for chunk_lo in range(0, len(grid.seeds), per_chunk):
        seeds = grid.seeds[chunk_lo:chunk_lo + per_chunk]
        outcomes = []
        for lo in range(0, len(seeds), per_batch):
            outcomes += _prepare_batch(mdp, grid, n0, n1, seeds[lo:lo + per_batch], oracle,
                                       bases, behaviors)
        keys = [(seed, method) for seed in seeds for method in grid.methods]
        for (seed, method), outcome in zip(keys, _solve_prepared(mdp, outcomes)):
            if isinstance(outcome, RunResult):
                out.append(outcome)
            else:
                failures.append({
                    "method": method.value, "n0": n0, "n1": n1, "seed": seed,
                    "error": f"{type(outcome).__name__}: {outcome}",
                })
    return out, failures


def sweep(mdp: LinearMdp, grid: SweepGrid) -> SweepReport:
    """Run every (n0, n1, seed) cell of the grid, all methods per cell; rows
    come out in (n0, n1, seed, method) order."""
    oracle = solve_optimal(mdp)
    bases = coverage_bases(mdp, oracle[0])
    behaviors = (
        behavior_policy(mdp, grid.labeled_quality, oracle[0]),
        behavior_policy(mdp, grid.unlabeled_quality, oracle[0]),
    )
    results, failures = [], []
    for n0 in grid.n0_values:
        for n1 in grid.n1_values:
            out, fails = _run_column(mdp, grid, n0, n1, oracle, bases, behaviors)
            results.extend(out)
            failures.extend(fails)
    return SweepReport(results=tuple(results), failures=tuple(failures))


def results_to_csv(results) -> str:
    lines = [CSV_HEADER]
    lines.extend(r.csv_row() for r in results)
    return "\n".join(lines) + "\n"


def _group_stats(results, column):
    groups: dict = {}
    for r in results:
        groups.setdefault((r.method, getattr(r, column)), []).append(r.subopt_mean)
    return {
        key: (float(np.mean(vals)), float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0)
        for key, vals in groups.items()
    }


def markdown_summary(results, column: str = "n1") -> str:
    """Method-by-column table of mean +/- std suboptimality.

    Per column, the best mean among methods without true-reward access is
    bolded, along with every such method within one pooled standard
    deviation of it (ties bold together).
    """
    results = list(results)
    if not results:
        raise ValueError("no results to summarize")
    stats = _group_stats(results, column)
    methods = sorted({r.method for r in results}, key=lambda m: m.value)
    col_values = sorted({getattr(r, column) for r in results})

    bold = set()
    for val in col_values:
        contenders = [m for m in methods if m is not MethodId.ORACLE and (m, val) in stats]
        if not contenders:
            continue
        best = min(stats[(m, val)][0] for m in contenders)
        variances = [stats[(m, val)][1] ** 2 for m in contenders]
        pooled = float(np.sqrt(np.mean(variances)))
        for m in contenders:
            if stats[(m, val)][0] <= best + pooled:
                bold.add((m, val))

    header = "| method | " + " | ".join(f"{column}={v}" for v in col_values) + " |"
    sep = "|" + "---|" * (len(col_values) + 1)
    lines = [header, sep]
    for m in methods:
        cells = []
        for val in col_values:
            if (m, val) not in stats:
                cells.append("-")
                continue
            mean, std = stats[(m, val)]
            text = f"{mean:.4f} ± {std:.4f}"
            cells.append(f"**{text}**" if (m, val) in bold else text)
        lines.append(f"| {m.value} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"
