"""Data-sharing experiment driver: method definitions, single runs, and sweeps.

A run takes a labeled dataset d0 and a reward-free dataset d1, fills in d1's
rewards according to the method (reward.fill_table), and hands the union to
the pessimistic solver; so every method but no_share trains on the same rows
and is only a reward vector on them, held as its per-pair sums:

    pds            lower-confidence reward (prediction minus ellipsoid width)
    uds            zero reward everywhere
    reward_predict plain clamped prediction
    oracle         true rewards (diagnostic upper baseline)
    no_share       drops d1 entirely

Suboptimality is measured against the exact optimal policy, reported both
in expectation over the initial distribution and as the worst state. Dataset
seeds derive from the cell coordinates only, so every method inside a cell
sees identical data. Work that depends only on the MDP is done once per
sweep: the oracle solve and the coverage bases (the range bases of every
start's optimal occupancy moment, see data.coverage_bases), so a cell's
coverage costs the Gram of its visit counts and a few batched eigvalsh per
dataset.

Sweeps run the grid column by column, a column being one (n0, n1) pair, in
three stages:
1. sample: d0 and d1 each come from their own generator (_datasets),
   which draws its kind for as many seeds as fit in _SEED_BATCH_ROWS rows
   (n0 or n1 per seed) with one sample_datasets call, made when the first
   of those seeds' cells is prepared; a failed call fails every method of
   its seeds' cells and no other cell;
2. per cell (_prepare_cell): the reward fit and both coverage
   coefficients, which reduce d0 and d1 once (OfflineDataset.counts),
   then per row set (d0, and d0 then d1) each method's per-pair reward
   sums and pevi_problems, which factors Lambda once for all of them;
3. solve: one pevi_lockstep per column, or per chunk of its seeds when the
   column's stacked problem tables would exceed _SOLVE_CHUNK_ENTRIES, then
   an exact evaluation of each policy.
A call's datasets are dropped before the next call of their kind.
run_method runs the same per-cell code, and a lockstep gives each problem
the bits it gets alone, so every number in a row is bit for bit what
run_method gives for that cell alone. Methods that train on the same rows
with the same rewards, which is every method of a cell whose d1 is empty,
share one PEVI problem, solved and evaluated once.

A row's wall_ms is its cell's shared work (see _prepare_cell), an equal
share of its row set's, an equal share of its lockstep solve and its own
policy evaluation; the last two are divided among the methods that share
the problem. Sampling, the oracle solve and the coverage bases are not
counted.
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
    sample_datasets,
)
from pdslab.mdp import LinearMdp, Policy, evaluate_policy, solve_optimal
from pdslab.pevi import (
    PeviConfig,
    PeviProblem,
    pevi_lockstep,
    pevi_problems,
    theorem_beta,
)
from pdslab.reward import ALPHA_MODES, fill_table, fit_reward

# the sweep does not call these, but perfbench's tracer wraps them under
# these names, so they stay importable from this module
from pdslab.data import mix_datasets, sample_dataset  # noqa: F401
from pdslab.pevi import pevi_solve  # noqa: F401
from pdslab.reward import relabel  # noqa: F401

QUALITIES = ("expert", "medium", "random")
_EPS_GREEDY = {"expert": 0.05, "medium": 0.3}

CSV_HEADER = "method,n0,n1,c0,c1,gamma,d,seed,subopt_mean,subopt_max,vhat_start,wall_ms"

# A sweep samples each kind of dataset (d0, d1) of a grid column in calls of
# at most this many of that kind's rows, n0 or n1 per seed; a call holds at
# least one seed.
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
    seconds: float  # this method's share of its cell's preparation


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

    This checks what a sweep's sampled cells satisfy by construction, then
    runs _prepare_cell against bases (the optimal policy's coverage_bases,
    built here when not given). A failed check, like a failure of the work
    every method shares, gives every method its exception. Methods that
    would train on d1 fail alone when d1 is missing or does not have d0's
    shape.
    """
    try:
        if not d0.labeled or len(d0) == 0:
            raise ValueError("run_method requires nonempty labeled d0")
        if d1 is not None and d1.labeled:
            raise ValueError("d1 must be reward-free")
        d0.check_features(mdp.features)
        if d1 is not None and len(d1) > 0:
            d1.check_features(mdp.features)
        if oracle is None:
            oracle = solve_optimal(mdp)
        if bases is None:
            bases = coverage_bases(mdp, oracle[0])
    except Exception as exc:  # reported per method by the caller
        return [exc] * len(methods)
    if d1 is None:
        unusable = "{} needs an unlabeled dataset (may be empty)"
    elif len(d1) > 0 and (d1.num_states, d1.num_actions) != (d0.num_states, d0.num_actions):
        unusable = (f"dataset shapes differ: ({d0.num_states},{d0.num_actions}) vs "
                    f"({d1.num_states},{d1.num_actions})")
    else:
        unusable = None
    outcomes = {m: ValueError(unusable.format(m.value)) for m in methods
                if unusable and m is not MethodId.NO_SHARE}
    rest = tuple(m for m in methods if m not in outcomes)
    if rest:
        outcomes.update(zip(rest, _prepare_cell(mdp, seed, d0, d1, rest, reward_cfg, pevi_cfg,
                                                bases, oracle[1].v)))
    return [outcomes[m] for m in methods]


def _prepare_cell(mdp: LinearMdp, seed: int, d0: OfflineDataset, d1: OfflineDataset | None,
                  methods: tuple, reward_cfg: RewardSettings, pevi_cfg: PeviSettings,
                  bases: CoverageBases, optimal_v: np.ndarray) -> list:
    """Prepare every method of one cell up to its PEVI problem: a _Prepared
    or the raised exception per method, in order. d1 is None when empty.

    Each method is a vector of per-pair reward sums on one of two row sets,
    d0 or d0 then d1. The shared work is the reward fit and both coverage
    coefficients, which reduce each dataset to its RowCounts once: s0 and
    obs1 are d0's and d1's reward_sums, n1 and miss1 d1's visits and
    missing. A sharing method has the vector s0 + obs1 + miss1 * fill, fill
    being its fill_table, on the union of both records; oracle, which
    replaces every d1 reward, has s0 + n1 * r. The methods on d0 share s0
    and so one problem, which _solve_prepared solves once. A failure of the
    shared work fails every method, and a failed row set its own methods.
    A method's seconds are the shared work and its share of its row set's.
    """
    features = mdp.features
    n0, n1 = len(d0), 0 if d1 is None else len(d1)
    on_d0 = tuple(m for m in methods if m is MethodId.NO_SHARE or n1 == 0)
    on_both = tuple(m for m in methods if m not in on_d0)
    start = time.perf_counter()
    try:
        model = fit_reward(d0, features, nu=reward_cfg.nu, delta=reward_cfg.delta,
                           r_max=mdp.r_max, alpha_mode=reward_cfg.alpha_mode)
        c0 = coverage_coefficient(d0, mdp, bases).c_dagger
        c1 = coverage_coefficient(d1, mdp, bases).c_dagger if n1 else 0.0
        counts0, counts1 = d0.counts(features), d1.counts(features) if n1 else None
    except Exception as exc:  # reported per method by the caller
        return [exc] * len(methods)
    shared_s = time.perf_counter() - start

    def reward_sums(method, both):
        fill = fill_table(model, features, _RELABEL_MODE[method], mdp).reshape(-1)
        return (counts0.reward_sums + counts1.visits * fill if method is MethodId.ORACLE
                else both.reward_sums + counts1.missing * fill)

    prepared = {}
    for sharing, members, n_rows in ((False, on_d0, n0), (True, on_both, n0 + n1)):
        if not members:
            continue
        start = time.perf_counter()
        try:
            counts = counts0.union(counts1) if sharing else counts0
            vectors = [reward_sums(m, counts) for m in members] if sharing else [counts.reward_sums]
            problems = pevi_problems(features, counts, vectors, pevi_cfg.config_for(mdp, n_rows))
        except Exception as exc:  # reported per method by the caller
            prepared.update(dict.fromkeys(members, exc))
            continue
        seconds = shared_s + (time.perf_counter() - start) / len(members)
        problems *= len(members) // len(problems)  # the methods on d0 share one
        prepared.update((method, _Prepared(
            method=method, problem=problem, n0=n0, n1=n1, c0=c0, c1=c1, seed=seed,
            optimal_v=optimal_v, seconds=seconds)) for method, problem in zip(members, problems))
    return [prepared[m] for m in methods]


def _solve_prepared(mdp: LinearMdp, outcomes: list) -> list:
    """Solve each distinct problem of the _Prepared in outcomes once, all in
    one pevi_lockstep, then evaluate each solution's policy exactly; returns
    outcomes with each _Prepared replaced by its RunResult or the raised
    exception.

    Methods that share a problem (every method of a cell whose d1 is empty)
    share its solve and evaluation. A row's wall time is its _Prepared
    seconds, an equal share of the lockstep solve per distinct problem and
    its own evaluation, each of the last two divided among the methods that
    share the problem.
    """
    sharing: dict = {}  # id(problem) -> indices of the outcomes that hold it
    for i, o in enumerate(outcomes):
        if isinstance(o, _Prepared):
            sharing.setdefault(id(o.problem), []).append(i)
    groups = list(sharing.values())
    start = time.perf_counter()
    try:
        solutions = pevi_lockstep([outcomes[g[0]].problem for g in groups], mdp.features)
    except Exception as exc:  # reported per method by the caller
        solutions = [exc] * len(groups)
    share_s = (time.perf_counter() - start) / max(len(groups), 1)

    outcomes = list(outcomes)
    for group, solution in zip(groups, solutions):
        for i, result in zip(group, _run_results(mdp, [outcomes[i] for i in group], solution,
                                                 share_s)):
            outcomes[i] = result
    return outcomes


def _run_results(mdp: LinearMdp, preps: list, solution, share_s: float) -> list:
    """The RunResult of each _Prepared in preps, which share one problem, from
    its solution or the exception that replaced it; every method gets the
    same exception when the evaluation fails."""
    if isinstance(solution, Exception):
        return [solution] * len(preps)
    start = time.perf_counter()
    try:
        gaps = preps[0].optimal_v - evaluate_policy(mdp, solution.policy).v
        own_s = (share_s + time.perf_counter() - start) / len(preps)
        return [RunResult(
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
            wall_time_ms=(prep.seconds + own_s) * 1e3,
            converged=solution.converged,
            policy_actions=tuple(int(a) for a in np.argmax(solution.policy.probs, axis=1)),
        ) for prep in preps]
    except Exception as exc:  # reported per method by the caller
        return [exc] * len(preps)


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
        for name, values, ok, want in (
                ("n0 values", self.n0_values, _positive, "integers >= 1"),
                ("n1 values", self.n1_values, lambda v: v >= 0, "integers >= 0"),
                ("seeds", self.seeds, lambda v: v >= 0, "nonnegative integers")):
            for value in values:
                _require(name, value, ok, want, integer=True)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must be distinct, got {list(values)}")
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


def _datasets(mdp: LinearMdp, behavior: Policy, n: int, seeds, **kwargs):
    """Yield each seed's dataset of n rows, from sample_datasets calls (given
    kwargs) of at most _SEED_BATCH_ROWS // n seeds, at least one; None per
    seed when n is 0. A failed call yields its exception once per seed of
    that call, without its traceback, which would keep the call's frames
    alive. A call's datasets are dropped before the next call is made.
    """
    per_call = max(1, _SEED_BATCH_ROWS // max(n, 1))
    for lo in range(0, len(seeds), per_call):
        batch = seeds[lo:lo + per_call]
        try:
            datasets = (sample_datasets(mdp, behavior, n, batch, **kwargs) if n
                        else [None] * len(batch))
        except Exception as exc:  # cell failures are data, not crashes
            datasets = [exc.with_traceback(None)] * len(batch)
        yield from datasets
        del datasets


def _run_column(mdp: LinearMdp, grid: SweepGrid, n0: int, n1: int, oracle, bases, behaviors):
    """Every seed's cell of one (n0, n1) grid column. The seeds are split
    into chunks of at most _SOLVE_CHUNK_ENTRIES problem entries; a chunk's
    cells are prepared one by one from its d0 and d1 (_datasets), then all
    of its PEVI problems are solved in one lockstep. A cell whose d0 or d1
    failed to sample fails every method with that exception."""
    per_problem = mdp.num_states * (mdp.num_actions + mdp.dim)
    per_chunk = max(1, _SOLVE_CHUNK_ENTRIES // (per_problem * len(grid.methods)))
    out, failures = [], []
    for chunk_lo in range(0, len(grid.seeds), per_chunk):
        seeds = grid.seeds[chunk_lo:chunk_lo + per_chunk]
        d0_seeds, d1_seeds = zip(*(_cell_seeds(seed, n0, n1, grid) for seed in seeds))
        d0s = _datasets(mdp, behaviors[0], n0, d0_seeds, horizon_reset=grid.horizon_reset,
                        labeled=True, noise=grid.noise)
        d1s = _datasets(mdp, behaviors[1], n1, d1_seeds, horizon_reset=grid.horizon_reset,
                        labeled=False)
        outcomes = []
        for seed, d0, d1 in zip(seeds, d0s, d1s):
            failed = d0 if isinstance(d0, Exception) else d1
            cell = ([failed] * len(grid.methods) if isinstance(failed, Exception) else
                    _prepare_cell(mdp, seed, d0, d1, grid.methods, grid.reward, grid.pevi,
                                  bases, oracle[1].v))
            # a traceback would keep the cell's datasets alive until the solve
            outcomes += [o.with_traceback(None) if isinstance(o, Exception) else o
                         for o in cell]
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
