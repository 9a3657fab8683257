"""Data-sharing experiment driver: method definitions, single runs, and sweeps.

A run takes a labeled dataset d0 and a reward-free dataset d1, fills in d1's
rewards according to the method (reward.fill_tables), and hands the union to
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

Sweeps take the cells in row order, a column being one (n0, n1) pair, in
four stages:
1. sample: d0 and d1 each come from their own generator (_datasets),
   which draws its kind for as many seeds as fit in _SEED_BATCH_ROWS rows
   (n0 or n1 per seed) with one sample_datasets call, made when the first
   of those seeds' cells is reduced; a failed call fails every method of
   its seeds' cells and no other cell. A call's datasets are dropped
   before the next call of their kind;
2. reduce, per cell (_reduce_cell): both coverage coefficients, which
   reduce d0 and d1 once to their counts (OfflineDataset.counts); only the
   counts and the coefficients are kept, and a failure fails the cell's
   methods;
3. build, per group (_build_group): cells of one column in one lockstep
   chunk, at most about _SEED_BATCH_ROWS distinct transitions of records
   (see sweep), are built together, per row set (d0, and d0 then d1):
   one stacked call each for the counts union, the fill tables, the
   reward-sum vectors and pevi_problems, which factors every cell's Lambda
   at once. The row set d0 then d1 also makes the group's one reward fit
   (fit_rewards over the stacked d0 records), when pds or reward_predict
   reads it; no fit is made for a column whose n1 is 0. A stacked build
   that raises is rerun cell by cell, so only the offending cell's rows on
   that row set fail;
4. solve: one pevi_lockstep per chunk of at most _SOLVE_CHUNK_ENTRIES
   problem entries, filled across columns, then an exact evaluation of
   each distinct greedy policy once per sweep.
run_method runs the same code on a group of one cell and one method, and
every stacked call and lockstep gives each cell and problem the bits it
gets alone, so every number in a row is bit for bit what run_method gives
for that cell alone. Methods that train on the same rows with the same
rewards, which is every method of a cell whose d1 is empty, share one PEVI
problem, solved once.

A row's wall_ms is its cell's reduction, plus an equal share of its row
set's build among the group's rows on that row set (so each sharing row
holds a share of its group's reward fit), plus an equal share of
its lockstep chunk per distinct problem, plus an equal share of its
policy's evaluation among the sweep's rows that hold the policy; the
lockstep share is divided among the methods that share the problem.
Sampling, the oracle solve and the coverage bases are not counted.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from pdslab.data import (
    CoverageBases,
    OfflineDataset,
    RowCounts,
    coverage_bases,
    coverage_coefficient,
    sample_datasets,
)
from pdslab.mdp import (
    LinearMdp,
    Policy,
    evaluate_policy,
    nonnegative,
    positive,
    probability,
    require,
    solve_optimal,
)
from pdslab.pevi import (
    PeviConfig,
    PeviProblem,
    pevi_lockstep,
    pevi_problems,
    theorem_beta,
)
from pdslab.reward import ALPHA_MODES, fill_tables, fit_rewards

# the sweep does not call these, but perfbench's tracer wraps them under
# these names, so they stay importable from this module
from pdslab.data import mix_datasets, sample_dataset  # noqa: F401
from pdslab.pevi import pevi_solve  # noqa: F401
from pdslab.reward import fit_reward, relabel  # noqa: F401

QUALITIES = ("expert", "medium", "random")
_EPS_GREEDY = {"expert": 0.05, "medium": 0.3}

CSV_HEADER = "method,n0,n1,c0,c1,gamma,d,seed,subopt_mean,subopt_max,vhat_start,wall_ms"

# A sweep samples each kind of dataset (d0, d1) of a grid column in calls of
# at most this many of that kind's rows, n0 or n1 per seed; a call holds at
# least one seed. A group of cells is built once its records reach this many
# distinct transitions, which bounds the stacked build's arrays alike.
_SEED_BATCH_ROWS = 1 << 16

# A sweep solves its PEVI problems in lockstep chunks of whole cells, taken
# in row order across columns, whose stacked (A + d) x S tables, one per
# method, hold at most this many entries; a chunk holds at least one cell.
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


@dataclass(frozen=True)
class RewardSettings:
    nu: float = 1.0
    delta: float = 0.1
    alpha_mode: str = "lemma"

    def __post_init__(self):
        require("reward.nu", self.nu, positive, "a finite positive number")
        require("reward.delta", self.delta, probability, "a number in (0, 1)")
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
        require("pevi.lambda_reg", self.lambda_reg, positive, "a finite positive number")
        require("pevi.delta", self.delta, probability, "a number in (0, 1)")
        require("pevi.c", self.c, positive, "a finite positive number")
        require("pevi.beta_override", self.beta_override, nonnegative,
                 "a finite nonnegative number or null", nullable=True)
        require("pevi.tol", self.tol, positive, "a finite positive number or null",
                 nullable=True)
        require("pevi.max_sweeps", self.max_sweeps, positive,
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

    The refusals here cover what a sweep's sampled cells satisfy by
    construction. Only the methods that train on d1 need it present (it may
    be empty) and, when nonempty, of d0's shape. The run is a sweep's code on
    a group of one cell and one method.
    """
    method = MethodId(method)
    if not d0.labeled or len(d0) == 0:
        raise ValueError("run_method requires nonempty labeled d0")
    if d1 is not None and d1.labeled:
        raise ValueError("d1 must be reward-free")
    d0.check_features(mdp.features)
    if d1 is not None and len(d1) > 0:
        d1.check_features(mdp.features)
    if method is not MethodId.NO_SHARE:
        if d1 is None:
            raise ValueError(f"{method.value} needs an unlabeled dataset (may be empty)")
        if len(d1) > 0 and (d1.num_states, d1.num_actions) != (d0.num_states, d0.num_actions):
            raise ValueError(f"dataset shapes differ: ({d0.num_states},{d0.num_actions}) vs "
                             f"({d1.num_states},{d1.num_actions})")
    if oracle is None:
        oracle = solve_optimal(mdp)
    cell = _reduce_cell(mdp, d0, d1, coverage_bases(mdp, oracle[0]))
    rows = _build_group(mdp, len(d0), 0 if d1 is None else len(d1), [(seed, cell)],
                        (method,), reward_cfg, pevi_cfg)
    evaluations: dict = {}
    _solve_chunk(mdp, rows, evaluations, oracle[1].v)
    return _run_result(mdp, rows[0], evaluations)


class _Cell(NamedTuple):
    """One cell reduced (_reduce_cell): all that its group's build reads."""

    c0: float
    c1: float
    counts0: RowCounts
    counts1: RowCounts | None  # None when d1 is missing or empty
    seconds: float


def _reduce_cell(mdp: LinearMdp, d0: OfflineDataset, d1: OfflineDataset | None,
                 bases: CoverageBases) -> _Cell:
    """A cell's own work: both coverage coefficients, which reduce d0 and d1
    (None or empty when n1 = 0) to their RowCounts once
    (OfflineDataset.counts). The datasets are not kept."""
    features = mdp.features
    start = time.perf_counter()
    sharing = d1 is not None and len(d1) > 0
    c0 = coverage_coefficient(d0, mdp, bases).c_dagger
    c1 = coverage_coefficient(d1, mdp, bases).c_dagger if sharing else 0.0
    return _Cell(c0, c1, d0.counts(features), d1.counts(features) if sharing else None,
                 time.perf_counter() - start)


@dataclass
class _Row:
    """One method of one cell on its way to a RunResult. outcome is the
    method's PeviProblem, then what the row keeps of its solution
    (vhat_start, converged, its policy's key), or the exception that
    failed it; seconds is the row's share of the work so far."""

    method: MethodId
    n0: int
    n1: int
    seed: int
    outcome: object
    c0: float = 0.0
    c1: float = 0.0
    seconds: float = 0.0


def _row_set_problems(mdp: LinearMdp, cells: list, members: tuple, sharing: bool,
                      reward_cfg: RewardSettings, config: PeviConfig) -> list:
    """Per _Cell of cells, its members' PeviProblems on one row set, d0 or
    (sharing) d0 then d1, all cells in one stacked build.

    Each method is a vector of per-pair reward sums on the row set. With s0
    and obs1 d0's and d1's reward_sums and n1 and miss1 d1's visits and
    missing, a sharing method has s0 + obs1 + miss1 * fill, fill being its
    fill_tables table, on the union of both records; oracle, which replaces
    every d1 reward, has s0 + n1 * r. The reward models that pds and
    reward_predict fill from are one fit_rewards over the stacked d0
    records, made only when one of them is a member. The methods on d0
    share s0 and so one problem, which _solve_chunk solves once.
    """
    features = mdp.features
    counts0 = RowCounts.stack([c.counts0 for c in cells], features.num_states)
    if not sharing:
        return [[p] * len(members)
                for p in pevi_problems(features, counts0, [counts0.reward_sums], config)]
    counts1 = RowCounts.stack([c.counts1 for c in cells], features.num_states)
    both = counts0.union(counts1)
    if MethodId.PDS in members or MethodId.REWARD_PREDICT in members:
        models = fit_rewards(counts0, features, nu=reward_cfg.nu, delta=reward_cfg.delta,
                             r_max=mdp.r_max, alpha_mode=reward_cfg.alpha_mode)
    else:  # uds and oracle read only how many cells there are
        models = [None] * len(cells)
    vectors = []
    for method in members:
        fill = fill_tables(models, features, _RELABEL_MODE[method], mdp).reshape(len(cells), -1)
        vectors.append(counts0.reward_sums + counts1.visits * fill if method is MethodId.ORACLE
                       else both.reward_sums + counts1.missing * fill)
    problems = pevi_problems(features, both, vectors, config)
    return [problems[k:k + len(members)] for k in range(0, len(problems), len(members))]


def _build_row_set(mdp: LinearMdp, cells: list, rows: list, sharing: bool, n_rows: int,
                   reward_cfg: RewardSettings, pevi_cfg: PeviSettings) -> None:
    """Build one row set of n_rows rows for every _Cell of cells, rows
    holding each cell's _Rows on it in one order of methods: each row's
    outcome becomes its PeviProblem (_row_set_problems), its seconds gaining
    an equal share of the build, or the exception that failed its cell's
    build. A stacked build that raises is rerun cell by cell, so only a cell
    whose own build raises fails."""
    start = time.perf_counter()
    methods = tuple(row.method for row in rows[0])
    try:
        problems = _row_set_problems(mdp, cells, methods, sharing, reward_cfg,
                                     pevi_cfg.config_for(mdp, n_rows))
    except Exception as exc:  # reported per method by the caller
        if len(cells) > 1:
            for cell, cell_rows in zip(cells, rows):
                _build_row_set(mdp, [cell], [cell_rows], sharing, n_rows, reward_cfg,
                               pevi_cfg)
            return
        problems = [[exc.with_traceback(None)] * len(methods)]
    share_s = (time.perf_counter() - start) / (len(cells) * len(methods))
    for cell_rows, cell_problems in zip(rows, problems):
        for row, problem in zip(cell_rows, cell_problems):
            row.outcome = problem
            row.seconds += share_s


def _build_group(mdp: LinearMdp, n0: int, n1: int, cells: list, methods: tuple,
                 reward_cfg: RewardSettings, pevi_cfg: PeviSettings) -> list:
    """The _Rows, cell by cell and method by method, of a group of cells of
    one (n0, n1), given as (seed, _Cell or the exception that failed the
    cell) pairs; a failed cell fails every method. The methods on d0 (every
    method when n1 = 0) and the sharing methods are built per row set, all
    cells together (_build_row_set). A row's seconds are its cell's
    reduction and its share of its row set's build."""
    rows = [[_Row(m, n0, n1, seed, cell) if isinstance(cell, Exception) else
             _Row(m, n0, n1, seed, None, cell.c0, cell.c1, cell.seconds) for m in methods]
            for seed, cell in cells]
    reduced = [i for i, (_, cell) in enumerate(cells) if isinstance(cell, _Cell)]
    on_d0 = [m is MethodId.NO_SHARE or n1 == 0 for m in methods]
    for sharing, n_rows in ((False, n0), (True, n0 + n1)):
        picked = [[row for row, d0_only in zip(rows[i], on_d0) if d0_only != sharing]
                  for i in reduced]
        if picked and picked[0]:
            _build_row_set(mdp, [cells[i][1] for i in reduced], picked, sharing, n_rows,
                           reward_cfg, pevi_cfg)
    return [row for cell_rows in rows for row in cell_rows]


def _solve_chunk(mdp: LinearMdp, rows: list, evaluations: dict, optimal_v: np.ndarray) -> None:
    """Solve each distinct problem of rows once, all in one pevi_lockstep,
    and replace each row's problem with what it keeps of its solution.

    Rows that share a problem (every method of a cell whose d1 is empty)
    share its solve. Each greedy policy not yet in evaluations, a dict
    local to one sweep keyed by the policy's action bytes, is evaluated
    exactly once into it (_evaluation). A row's seconds gain an equal share
    of the lockstep per distinct problem, divided among the rows that share
    the problem.
    """
    sharing: dict = {}  # id(problem) -> the rows that hold it
    for row in rows:
        if isinstance(row.outcome, PeviProblem):
            sharing.setdefault(id(row.outcome), []).append(row)
    groups = list(sharing.values())
    if not groups:
        return
    start = time.perf_counter()
    try:
        solutions = pevi_lockstep([g[0].outcome for g in groups], mdp.features)
    except Exception as exc:  # reported per method by the caller
        solutions = [exc.with_traceback(None)] * len(groups)
    share_s = (time.perf_counter() - start) / len(groups)
    for group, solution in zip(groups, solutions):
        if not isinstance(solution, Exception):
            actions = np.argmax(solution.policy.probs, axis=1)
            key = actions.tobytes()
            if key not in evaluations:
                evaluations[key] = _evaluation(mdp, solution.policy, optimal_v)
            evaluations[key][2] += len(group)
            solution = (float(mdp.init_dist @ solution.v_hat), solution.converged, key)
        for row in group:
            row.outcome = solution
            row.seconds += share_s / len(group)


def _evaluation(mdp: LinearMdp, policy: Policy, optimal_v: np.ndarray) -> list:
    """[(subopt_mean, subopt_max) or the exception evaluate_policy raised,
    the evaluation's seconds, the number of rows that hold the policy]."""
    start = time.perf_counter()
    try:
        gaps = optimal_v - evaluate_policy(mdp, policy).v
        subopt = (float(mdp.init_dist @ gaps), float(gaps.max()))
    except Exception as exc:  # reported per method by the caller
        subopt = exc.with_traceback(None)
    return [subopt, time.perf_counter() - start, 0]


def _run_result(mdp: LinearMdp, row: _Row, evaluations: dict) -> RunResult:
    """The RunResult of a solved row, whose wall time adds an equal share of
    its policy's evaluation among the rows that hold the policy; raises the
    exception that failed the row instead."""
    if isinstance(row.outcome, Exception):
        raise row.outcome
    v_hat_start, converged, key = row.outcome
    subopt, eval_s, holders = evaluations[key]
    if isinstance(subopt, Exception):
        raise subopt
    return RunResult(
        method=row.method,
        n0=row.n0,
        n1=row.n1,
        c0_dagger=row.c0,
        c1_dagger=row.c1,
        gamma=mdp.gamma,
        dim=mdp.dim,
        seed=row.seed,
        subopt_mean=subopt[0],
        subopt_max=subopt[1],
        v_hat_start=v_hat_start,
        wall_time_ms=(row.seconds + eval_s / holders) * 1e3,
        converged=converged,
        policy_actions=tuple(np.frombuffer(key, dtype=np.intp).tolist()),
    )


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
                ("n0 values", self.n0_values, positive, "integers >= 1"),
                ("n1 values", self.n1_values, nonnegative, "integers >= 0"),
                ("seeds", self.seeds, nonnegative, "nonnegative integers")):
            for value in values:
                require(name, value, ok, want, integer=True)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must be distinct, got {list(values)}")
        for name, q in (("labeled_quality", self.labeled_quality),
                        ("unlabeled_quality", self.unlabeled_quality)):
            if q not in QUALITIES:
                raise ValueError(f"data.{name} must be one of {QUALITIES}, got {q!r}")
        if not isinstance(self.noise, bool):
            require("data.noise", self.noise, nonnegative,
                     "a boolean or a finite nonnegative number")
        require("data.horizon_reset", self.horizon_reset, positive,
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


def sweep(mdp: LinearMdp, grid: SweepGrid) -> SweepReport:
    """Run every (n0, n1, seed) cell of the grid, all methods per cell; rows
    come out in (n0, n1, seed, method) order.

    Cells are taken in that order. Each is reduced as soon as its d0 and d1
    are sampled (_datasets), and a cell whose d0 or d1 failed to sample fails
    every method with that exception. A lockstep chunk holds the cells of at
    most _SOLVE_CHUNK_ENTRIES problem entries, at least one, across columns,
    and a full chunk is solved at once (_solve_chunk). A group is cells of
    one column in one chunk, built together (_build_group) when the column
    ends, the chunk is full or the group's records hold _SEED_BATCH_ROWS
    distinct transitions, so a stacked build's arrays stay about the size of
    one sampling call's rows.
    """
    oracle = solve_optimal(mdp)
    bases = coverage_bases(mdp, oracle[0])
    behaviors = (
        behavior_policy(mdp, grid.labeled_quality, oracle[0]),
        behavior_policy(mdp, grid.unlabeled_quality, oracle[0]),
    )
    methods = grid.methods
    per_problem = mdp.num_states * (mdp.num_actions + mdp.dim)
    per_chunk = max(1, _SOLVE_CHUNK_ENTRIES // (per_problem * len(methods)))
    evaluations: dict = {}
    rows, chunk, group, group_ids = [], [], [], 0
    for n0 in grid.n0_values:
        for n1 in grid.n1_values:
            d0_seeds, d1_seeds = zip(*(_cell_seeds(seed, n0, n1, grid) for seed in grid.seeds))
            d0s = _datasets(mdp, behaviors[0], n0, d0_seeds, horizon_reset=grid.horizon_reset,
                            labeled=True, noise=grid.noise)
            d1s = _datasets(mdp, behaviors[1], n1, d1_seeds, horizon_reset=grid.horizon_reset,
                            labeled=False)
            for seed, d0, d1 in zip(grid.seeds, d0s, d1s):
                cell = d0 if isinstance(d0, Exception) else d1
                if not isinstance(cell, Exception):
                    try:
                        cell = _reduce_cell(mdp, d0, d1, bases)
                    except Exception as exc:  # cell failures are data, not crashes
                        # a traceback would keep the cell's datasets alive
                        cell = exc.with_traceback(None)
                group.append((seed, cell))
                if isinstance(cell, _Cell):
                    group_ids += sum(len(c.transitions) for c in (cell.counts0, cell.counts1)
                                     if c is not None)
                chunk_full = len(chunk) // len(methods) + len(group) == per_chunk
                if chunk_full or group_ids >= _SEED_BATCH_ROWS:
                    chunk += _build_group(mdp, n0, n1, group, methods, grid.reward,
                                          grid.pevi)
                    group, group_ids = [], 0
                if chunk_full:
                    _solve_chunk(mdp, chunk, evaluations, oracle[1].v)
                    rows += chunk
                    chunk = []
            chunk += _build_group(mdp, n0, n1, group, methods, grid.reward, grid.pevi)
            group, group_ids = [], 0
    _solve_chunk(mdp, chunk, evaluations, oracle[1].v)
    results, failures = [], []
    for row in rows + chunk:
        try:
            results.append(_run_result(mdp, row, evaluations))
        except Exception as exc:  # cell failures are data, not crashes
            failures.append({
                "method": row.method.value, "n0": row.n0, "n1": row.n1, "seed": row.seed,
                "error": f"{type(exc).__name__}: {exc}",
            })
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
