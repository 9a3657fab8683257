"""Method runs, grids, and result tables."""
import numpy as np
import pytest

from pdslab.data import OfflineDataset, mix_datasets, sample_dataset
from pdslab.mdp import Policy, make_lowrank_mdp, make_tabular_mdp, solve_optimal
from pdslab.pevi import pevi_problems, pevi_solve
from pdslab.pipeline import (
    CSV_HEADER,
    MethodId,
    PeviSettings,
    RewardSettings,
    RunResult,
    SweepGrid,
    behavior_policy,
    markdown_summary,
    results_to_csv,
    run_method,
    sweep,
)
from pdslab.reward import fit_reward, relabel

ALL_METHODS = tuple(MethodId)


def _mdp(seed=5, **kwargs):
    return make_lowrank_mdp(5, 3, dim=2, gamma=0.9, seed=seed, **kwargs)


def _pair(mdp, n0=60, n1=40, seed=0, noise=False):
    pi = Policy.uniform(mdp.num_states, mdp.num_actions)
    d0 = sample_dataset(mdp, pi, n=n0, seed=seed, noise=noise)
    d1 = sample_dataset(mdp, pi, n=n1, seed=seed + 1, labeled=False)
    return d0, d1


def _empty_unlabeled(mdp):
    return OfflineDataset([], [], None, [], labeled=False,
                          num_states=mdp.num_states, num_actions=mdp.num_actions)


def _strip_wall(csv_text):
    return [",".join(line.split(",")[:-1]) for line in csv_text.splitlines()]


def test_run_method_reports_consistent_fields():
    mdp = _mdp()
    d0, d1 = _pair(mdp)
    res = run_method(mdp, d0, d1, MethodId.PDS, seed=9)
    assert res.method is MethodId.PDS
    assert (res.n0, res.n1) == (60, 40)
    assert (res.gamma, res.dim) == (0.9, 2)
    assert res.seed == 9
    assert res.subopt_mean >= 0.0 and res.subopt_max >= res.subopt_mean - 1e-12
    assert 0.0 <= res.v_hat_start <= mdp.v_max
    assert res.c0_dagger >= 0.0 and res.c1_dagger >= 0.0
    assert len(res.policy_actions) == mdp.num_states
    assert res.wall_time_ms > 0.0


def test_empty_unlabeled_makes_all_methods_identical():
    mdp = _mdp(seed=7)
    d0, _ = _pair(mdp, n0=50, n1=1)
    empty = _empty_unlabeled(mdp)
    outs = [run_method(mdp, d0, empty, m, seed=0) for m in ALL_METHODS]
    signature = {(r.subopt_mean, r.subopt_max, r.v_hat_start, r.policy_actions)
                 for r in outs}
    assert len(signature) == 1
    assert all(r.n1 == 0 for r in outs)


def test_uds_equals_hand_zeroed_training_set():
    mdp = _mdp(seed=11)
    d0, d1 = _pair(mdp, n0=40, n1=30)
    pevi_cfg = PeviSettings(beta_override=0.5)
    res = run_method(mdp, d0, d1, MethodId.UDS, pevi_cfg=pevi_cfg)
    train = mix_datasets(d0, d1.with_rewards(np.zeros(len(d1))))
    sol = pevi_solve(train, mdp.features, pevi_cfg.config_for(mdp, len(train)))
    assert res.v_hat_start == pytest.approx(float(mdp.init_dist @ sol.v_hat), abs=0.0)
    assert res.policy_actions == tuple(np.argmax(sol.policy.probs, axis=1))


def test_no_share_ignores_unlabeled_data():
    mdp = _mdp(seed=13)
    d0, d1 = _pair(mdp, n0=50, n1=80)
    with_d1 = run_method(mdp, d0, d1, MethodId.NO_SHARE)
    without = run_method(mdp, d0, None, MethodId.NO_SHARE)
    assert with_d1.v_hat_start == without.v_hat_start
    assert with_d1.policy_actions == without.policy_actions
    assert with_d1.n1 == 80 and without.n1 == 0


def test_run_method_argument_errors():
    mdp = _mdp()
    d0, d1 = _pair(mdp)
    with pytest.raises(ValueError, match="unlabeled"):
        run_method(mdp, d0, None, MethodId.PDS)
    with pytest.raises(ValueError, match="reward-free"):
        run_method(mdp, d0, d0, MethodId.PDS)
    empty_labeled = OfflineDataset([], [], [], [], labeled=True,
                                   num_states=5, num_actions=3)
    with pytest.raises(ValueError, match="d0"):
        run_method(mdp, empty_labeled, d1, MethodId.PDS)


def test_plentiful_noiseless_labels_align_pds_with_oracle():
    mdp = _mdp(seed=17)
    agree, total = 0, 0
    for s in range(20):
        d0, d1 = _pair(mdp, n0=1500, n1=300, seed=100 + 2 * s)
        cfg = PeviSettings(beta_override=0.3)
        pds = run_method(mdp, d0, d1, MethodId.PDS, pevi_cfg=cfg)
        oracle = run_method(mdp, d0, d1, MethodId.ORACLE, pevi_cfg=cfg)
        agree += sum(a == b for a, b in zip(pds.policy_actions, oracle.policy_actions))
        total += mdp.num_states
    assert agree / total >= 0.95


def test_run_method_deterministic_up_to_wall_time():
    mdp = _mdp(seed=19)
    d0, d1 = _pair(mdp)
    rows = [run_method(mdp, d0, d1, MethodId.PDS, seed=4).csv_row() for _ in range(2)]
    assert _strip_wall("\n".join(rows))[0] == _strip_wall("\n".join(rows))[1]


def test_sweep_singleton_matches_direct_run():
    from pdslab.pipeline import _cell_seeds

    mdp = _mdp(seed=23)
    grid = SweepGrid(n0_values=(40,), n1_values=(30,), methods=(MethodId.PDS,),
                     seeds=(3,), labeled_quality="random", unlabeled_quality="random",
                     pevi=PeviSettings(beta_override=0.5))
    report = sweep(mdp, grid)
    assert not report.failures and len(report.results) == 1

    d0_seed, d1_seed = _cell_seeds(3, 40, 30, grid)
    pi = Policy.uniform(5, 3)
    d0 = sample_dataset(mdp, pi, n=40, seed=d0_seed)
    d1 = sample_dataset(mdp, pi, n=30, seed=d1_seed, labeled=False)
    direct = run_method(mdp, d0, d1, MethodId.PDS, grid.reward, grid.pevi, seed=3)
    got, want = report.results[0].csv_row(), direct.csv_row()
    assert _strip_wall(got)[0] == _strip_wall(want)[0]


def test_sweep_records_failures_and_continues(monkeypatch):
    import pdslab.pipeline as pipeline

    def broken_fit(*args, **kwargs):
        raise ValueError("reward fit failed")

    monkeypatch.setattr(pipeline, "fit_reward", broken_fit)
    mdp = _mdp(seed=31)
    grid = SweepGrid(n0_values=(20,), n1_values=(10,), methods=(MethodId.PDS, MethodId.UDS),
                     seeds=(0, 1))
    report = sweep(mdp, grid)
    assert report.results == ()
    assert len(report.failures) == 4  # 2 seeds x 2 methods, all hit the broken fit
    assert all(f["error"] == "ValueError: reward fit failed" for f in report.failures)
    assert {f["seed"] for f in report.failures} == {0, 1}


def test_sampling_failure_is_recorded_per_method(monkeypatch):
    import pdslab.pipeline as pipeline

    real = pipeline.sample_datasets

    def flaky(mdp, behavior, n, seeds, **kwargs):
        if n == 20 and not kwargs["labeled"]:
            raise RuntimeError("sampler broke")
        return real(mdp, behavior, n, seeds, **kwargs)

    monkeypatch.setattr(pipeline, "sample_datasets", flaky)
    mdp = _mdp(seed=33)
    grid = SweepGrid(n0_values=(30,), n1_values=(0, 20, 25), methods=(MethodId.PDS, MethodId.UDS),
                     seeds=(0, 1), pevi=PeviSettings(beta_override=0.5))
    report = sweep(mdp, grid)
    assert len(report.failures) == 4  # the n1=20 cells: 2 seeds x 2 methods
    assert all(f["n1"] == 20 and f["error"] == "RuntimeError: sampler broke"
               for f in report.failures)
    assert {(f["method"], f["seed"]) for f in report.failures} == {
        (m, s) for m in ("pds", "uds") for s in (0, 1)}
    assert [(r.n1, r.seed, r.method) for r in report.results] == [
        (n1, seed, m) for n1 in (0, 25) for seed in (0, 1) for m in (MethodId.PDS, MethodId.UDS)]


@pytest.mark.parametrize("labeled", [True, False], ids=["d0", "d1"])
def test_a_failed_sampling_call_fails_only_its_cells(monkeypatch, labeled):
    # each kind samples the six seeds in three calls of two; the second call
    # of one kind raises, which fails its two seeds' cells and no others
    import pdslab.pipeline as pipeline

    mdp = _mdp(seed=91)
    grid = SweepGrid(n0_values=(40,), n1_values=(30,), methods=ALL_METHODS,
                     seeds=(7, 2, 0, 5, 9, 4), noise=True, pevi=PeviSettings(c=0.05))
    monkeypatch.setattr(pipeline, "_SEED_BATCH_ROWS", 80)
    clean = sweep(mdp, grid)
    real, calls = pipeline.sample_datasets, []

    def flaky(mdp, behavior, n, seeds, **kwargs):
        if kwargs["labeled"] is labeled:
            calls.append(tuple(seeds))
            if len(calls) == 2:
                raise RuntimeError("sampler broke")
        return real(mdp, behavior, n, seeds, **kwargs)

    monkeypatch.setattr(pipeline, "sample_datasets", flaky)
    report = sweep(mdp, grid)
    assert not clean.failures and len(calls) == 3
    assert all(len(c) == 2 for c in calls)
    broken = (0, 5)
    assert sorted((f["seed"], f["method"]) for f in report.failures) == sorted(
        (seed, m.value) for seed in broken for m in ALL_METHODS)
    assert all(f["error"] == "RuntimeError: sampler broke" and (f["n0"], f["n1"]) == (40, 30)
               for f in report.failures)
    kept = [r for r in clean.results if r.seed not in broken]
    assert _strip_wall(results_to_csv(report.results)) == _strip_wall(results_to_csv(kept))


def test_sweep_rows_match_per_method_runs():
    # the per-cell shared work must not change what any single method reports
    from pdslab.pipeline import _cell_seeds

    mdp = _mdp(seed=47)
    grid = SweepGrid(n0_values=(40,), n1_values=(30,), methods=ALL_METHODS, seeds=(2,),
                     pevi=PeviSettings(beta_override=0.5))
    report = sweep(mdp, grid)
    d0_seed, d1_seed = _cell_seeds(2, 40, 30, grid)
    oracle = solve_optimal(mdp)
    d0 = sample_dataset(mdp, behavior_policy(mdp, "medium", oracle[0]), n=40, seed=d0_seed)
    d1 = sample_dataset(mdp, behavior_policy(mdp, "expert", oracle[0]), n=30, seed=d1_seed,
                        labeled=False)
    direct = [run_method(mdp, d0, d1, m, grid.reward, grid.pevi, seed=2, oracle=oracle)
              for m in ALL_METHODS]
    assert _strip_wall(results_to_csv(report.results)) == _strip_wall(results_to_csv(direct))


def test_seed_batches_do_not_change_rows(monkeypatch):
    # all five seeds in one batch and one lockstep, lockstep chunks of two
    # seeds, or also one seed per sampling batch, give the per-cell rows
    import pdslab.pipeline as pipeline
    from pdslab.pipeline import _cell_seeds

    mdp = _mdp(seed=53)
    grid = SweepGrid(n0_values=(40, 25), n1_values=(30, 0), methods=ALL_METHODS,
                     seeds=(4, 0, 9, 2, 7), horizon_reset=15, noise=True,
                     pevi=PeviSettings(c=0.05))
    together = sweep(mdp, grid)
    per_problem = mdp.num_states * (mdp.num_actions + mdp.dim)
    monkeypatch.setattr(pipeline, "_SOLVE_CHUNK_ENTRIES", 2 * per_problem * len(ALL_METHODS))
    chunked = sweep(mdp, grid)
    monkeypatch.setattr(pipeline, "_SEED_BATCH_ROWS", 70)
    apart = sweep(mdp, grid)
    assert not together.failures and not chunked.failures and not apart.failures
    oracle = solve_optimal(mdp)
    pi0 = behavior_policy(mdp, "medium", oracle[0])
    pi1 = behavior_policy(mdp, "expert", oracle[0])
    direct = []
    for n0 in grid.n0_values:
        for n1 in grid.n1_values:
            for seed in grid.seeds:
                d0_seed, d1_seed = _cell_seeds(seed, n0, n1, grid)
                d0 = sample_dataset(mdp, pi0, n=n0, horizon_reset=15, seed=d0_seed, noise=True)
                d1 = (sample_dataset(mdp, pi1, n=n1, horizon_reset=15, seed=d1_seed,
                                     labeled=False) if n1 else
                      OfflineDataset([], [], None, [], labeled=False, num_states=5, num_actions=3))
                direct += [run_method(mdp, d0, d1, m, grid.reward, grid.pevi, seed=seed,
                                      oracle=oracle) for m in ALL_METHODS]
    want = _strip_wall(results_to_csv(direct))
    for report in (together, chunked, apart):
        assert _strip_wall(results_to_csv(report.results)) == want
        assert all(r.wall_time_ms > 0 for r in report.results)


# the relabel mode of each sharing method, for the reference below
REFERENCE_MODES = {MethodId.PDS: "pds", MethodId.UDS: "uds",
                   MethodId.REWARD_PREDICT: "predict", MethodId.ORACLE: "oracle"}
PROBLEM_FIELDS = ("lambda_matrix", "sweep_map", "w_reward", "bonus")


def _reference_problem(mdp, d0, d1, method, model, pevi_cfg):
    """The method's PeviProblem built for it alone: d1 relabeled and mixed
    into d0, or d0 alone, reduced with its own rewards."""
    train = d0
    if method is not MethodId.NO_SHARE and len(d1) > 0:
        train = mix_datasets(d0, relabel(d1, model, mdp.features, REFERENCE_MODES[method], mdp))
    counts = train.counts(mdp.features)
    (problem,) = pevi_problems(mdp.features, counts, [counts.reward_sums],
                               pevi_cfg.config_for(mdp, len(train)))
    return problem


def _assert_same_problem(got, want, w_reward_tol=0.0):
    """got and want agree bit for bit, apart from w_reward, which may differ
    by w_reward_tol in each entry."""
    assert got.config == want.config
    for name in PROBLEM_FIELDS:
        if name != "w_reward":
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (np.abs(got.w_reward - want.w_reward) <= w_reward_tol).all()


def _summation_bound(mdp, want, datasets):
    """How far apart two w_reward of the row set datasets (d0 then d1) may
    be when their per-pair reward sums were added in different orders.

    The reference adds each pair's n(s, a) rewards, all in [0, r_max], one
    row at a time; the sweep adds d0's rows, then d1's observed rewards and
    n_miss * fill, in at most n + 2 rounded steps. By the recursive
    summation bound (Higham, Accuracy and Stability of Numerical Algorithms,
    eq. 4.4) each is within gamma_(n+2) * n * r_max of the exact sum, with
    gamma_k = k u / (1 - k u) and u the unit roundoff, so the two are within
    twice that. Lambda^-1 Phi^T carries that gap into w_reward at most as
    |Lambda^-1 Phi^T| times it, and each side's Phi^T product and two
    triangular solves add a first-order forward error of at most
    (d + 2) u kappa_inf(Lambda) |w_reward|.
    """
    features, u = mdp.features, np.finfo(float).eps / 2
    n = sum(features.pair_sums(d.pair_ids(features)) for d in datasets)
    gamma = (n + 2) * u / (1 - (n + 2) * u)
    carried = np.abs(np.linalg.solve(want.lambda_matrix, features.matrix().T)) @ (
        2 * gamma * n * mdp.r_max)
    kappa = np.linalg.cond(want.lambda_matrix, np.inf)
    return carried + 2 * (features.dim + 2) * u * kappa * np.abs(want.w_reward).max()


@pytest.mark.parametrize("make", [
    lambda: make_lowrank_mdp(6, 3, dim=3, gamma=0.9, seed=59),
    lambda: make_tabular_mdp(5, 2, gamma=0.9, seed=61),
], ids=["lowrank", "tabular"])
def test_sweep_problems_equal_relabel_and_mix_reference(monkeypatch, make):
    import pdslab.pipeline as pipeline
    from pdslab.pipeline import _cell_seeds

    mdp = make()
    grid = SweepGrid(n0_values=(40,), n1_values=(30, 0), methods=ALL_METHODS, seeds=(0, 1),
                     noise=True, reward=RewardSettings(nu=2.0), pevi=PeviSettings(c=0.05))
    built, real = [], pipeline.pevi_lockstep

    def recording(problems, features):
        built.extend(problems)
        return real(problems, features)

    monkeypatch.setattr(pipeline, "pevi_lockstep", recording)
    assert not sweep(mdp, grid).failures
    oracle = solve_optimal(mdp)
    pi0 = behavior_policy(mdp, "medium", oracle[0])
    pi1 = behavior_policy(mdp, "expert", oracle[0])
    want = []
    for n1 in grid.n1_values:
        for seed in grid.seeds:
            d0_seed, d1_seed = _cell_seeds(seed, 40, n1, grid)
            d0 = sample_dataset(mdp, pi0, n=40, seed=d0_seed, noise=True)
            d1 = (sample_dataset(mdp, pi1, n=n1, seed=d1_seed, labeled=False) if n1 else
                  _empty_unlabeled(mdp))
            model = fit_reward(d0, mdp.features, nu=2.0, r_max=mdp.r_max)
            # with d1 empty every method trains on d0 and shares one problem
            methods = ALL_METHODS if n1 else (MethodId.NO_SHARE,)
            want += [(_reference_problem(mdp, d0, d1, m, model, grid.pevi),
                      (d0, d1) if m is not MethodId.NO_SHARE and n1 else None)
                     for m in methods]
    assert len(built) == len(want) == 12
    for got, (expected, row_set) in zip(built, want):
        # a problem on d0 alone has the reference's reward sums bit for bit
        tol = 0.0 if row_set is None else _summation_bound(mdp, expected, row_set)
        _assert_same_problem(got, expected, tol)


def test_empty_d1_cells_solve_one_problem_per_seed(monkeypatch):
    # all five methods of an n1 = 0 cell train on d0 alone: the sweep hands
    # pevi_lockstep one problem per seed, and each row is still what
    # run_method gives for its method alone
    import pdslab.pipeline as pipeline
    from pdslab.pipeline import _cell_seeds

    mdp = _mdp(seed=73)
    grid = SweepGrid(n0_values=(35,), n1_values=(0,), methods=ALL_METHODS, seeds=(3, 0, 5),
                     noise=True, pevi=PeviSettings(c=0.05))
    calls, real = [], pipeline.pevi_lockstep

    def recording(problems, features):
        calls.append(len(problems))
        return real(problems, features)

    monkeypatch.setattr(pipeline, "pevi_lockstep", recording)
    report = sweep(mdp, grid)
    assert not report.failures and calls == [len(grid.seeds)]
    oracle = solve_optimal(mdp)
    pi0 = behavior_policy(mdp, "medium", oracle[0])
    direct = []
    for seed in grid.seeds:
        d0 = sample_dataset(mdp, pi0, n=35, seed=_cell_seeds(seed, 35, 0, grid)[0], noise=True)
        direct += [run_method(mdp, d0, _empty_unlabeled(mdp), m, grid.reward, grid.pevi,
                              seed=seed, oracle=oracle) for m in ALL_METHODS]
    assert len(calls) == 1 + len(direct)  # run_method solves its one problem alone
    assert _strip_wall(results_to_csv(report.results)) == _strip_wall(results_to_csv(direct))
    assert all(r.wall_time_ms > 0 for r in report.results)


def test_one_failed_fit_fails_only_its_cell(monkeypatch):
    # a batch prepares its cells together, but a cell's failure is its own:
    # the second fit of the sweep (seed 1 of the n1 = 30 column) raises
    import pdslab.pipeline as pipeline

    mdp = _mdp(seed=79)
    grid = SweepGrid(n0_values=(40,), n1_values=(30, 0), methods=ALL_METHODS, seeds=(0, 1, 2),
                     noise=True, pevi=PeviSettings(c=0.05))
    clean = sweep(mdp, grid)
    calls, real = [], pipeline.fit_reward

    def second_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise ValueError("reward fit failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "fit_reward", second_fails)
    report = sweep(mdp, grid)
    assert len(calls) == 6
    assert [(f["method"], f["n1"], f["seed"]) for f in report.failures] == [
        (m.value, 30, 1) for m in ALL_METHODS]
    assert all(f["error"] == "ValueError: reward fit failed" for f in report.failures)
    want = [r for r in clean.results if (r.n1, r.seed) != (30, 1)]
    assert _strip_wall(results_to_csv(report.results)) == _strip_wall(results_to_csv(want))


def test_multi_batch_column_equals_separate_datasets(monkeypatch):
    # a column split into several batches of cells: every c0, c1 and PEVI
    # problem is what the cell's own datasets give, one by one
    import pdslab.pipeline as pipeline
    from pdslab.data import coverage_coefficient
    from pdslab.pipeline import _cell_seeds, _prepare_methods

    mdp = _mdp(seed=83)
    grid = SweepGrid(n0_values=(40,), n1_values=(30, 0), methods=ALL_METHODS,
                     seeds=(5, 0, 3, 8, 1, 6), noise=True, pevi=PeviSettings(c=0.05))
    # d0 in calls of three seeds (120 rows) and d1 in calls of four seeds
    # (120 rows), each kind's calls holding at most 140 of its rows
    monkeypatch.setattr(pipeline, "_SEED_BATCH_ROWS", 140)
    built, sampled = [], []
    real_lockstep, real_sample = pipeline.pevi_lockstep, pipeline.sample_datasets

    def recording(problems, features):
        built.extend(problems)
        return real_lockstep(problems, features)

    def counting(mdp, behavior, n, seeds, **kwargs):
        sampled.append((n, len(seeds)))
        return real_sample(mdp, behavior, n, seeds, **kwargs)

    monkeypatch.setattr(pipeline, "pevi_lockstep", recording)
    monkeypatch.setattr(pipeline, "sample_datasets", counting)
    report = sweep(mdp, grid)
    assert not report.failures
    # each kind's next call is made when its first seed's cell is prepared
    assert sampled == [(40, 3), (30, 4), (40, 3), (30, 2), (40, 3), (40, 3)]

    oracle = solve_optimal(mdp)
    pi0 = behavior_policy(mdp, "medium", oracle[0])
    pi1 = behavior_policy(mdp, "expert", oracle[0])
    rows, want = iter(report.results), []
    for n1 in grid.n1_values:
        for seed in grid.seeds:
            d0_seed, d1_seed = _cell_seeds(seed, 40, n1, grid)
            d0 = sample_dataset(mdp, pi0, n=40, seed=d0_seed, noise=True)
            d1 = (sample_dataset(mdp, pi1, n=n1, seed=d1_seed, labeled=False) if n1 else
                  _empty_unlabeled(mdp))
            c0 = coverage_coefficient(d0, mdp, oracle[0]).c_dagger
            c1 = coverage_coefficient(d1, mdp, oracle[0]).c_dagger if n1 else 0.0
            for method in ALL_METHODS:
                row = next(rows)
                assert (row.seed, row.n1, row.method) == (seed, n1, method)
                assert (row.c0_dagger, row.c1_dagger) == (c0, c1)
            alone = _prepare_methods(mdp, d0, d1, ALL_METHODS, grid.reward, grid.pevi, seed,
                                     oracle)
            # with d1 empty the methods share one problem, which is solved once
            want += [p.problem for p in (alone if n1 else alone[:1])]
    assert len(built) == len(want) == 36
    for got, expected in zip(built, want):
        _assert_same_problem(got, expected)


def test_partly_labeled_d1_matches_relabel_reference():
    # oracle replaces d1's observed rewards too; the other methods keep them
    from pdslab.pipeline import _prepare_methods

    mdp = _mdp(seed=67)
    d0, d1 = _pair(mdp, n0=30, n1=20, noise=True)
    observed = np.where(np.arange(20) % 3 == 0, 0.5, np.nan)
    d1 = d1.with_rewards(observed, labeled=False)
    pevi_cfg = PeviSettings(beta_override=0.4)
    prepared = _prepare_methods(mdp, d0, d1, ALL_METHODS, RewardSettings(), pevi_cfg, 0, None)
    model = fit_reward(d0, mdp.features, r_max=mdp.r_max)
    for method, got in zip(ALL_METHODS, prepared):
        assert got.method is method
        want = _reference_problem(mdp, d0, d1, method, model, pevi_cfg)
        tol = 0.0 if method is MethodId.NO_SHARE else _summation_bound(mdp, want, (d0, d1))
        _assert_same_problem(got.problem, want, tol)


def test_missing_d1_fails_only_the_sharing_methods():
    from pdslab.pipeline import _prepare_methods

    mdp = _mdp(seed=71)
    d0, _ = _pair(mdp, n0=30, n1=1)
    pevi_cfg = PeviSettings(beta_override=0.4)
    pds, no_share = _prepare_methods(mdp, d0, None, (MethodId.PDS, MethodId.NO_SHARE),
                                     RewardSettings(), pevi_cfg, 0, None)
    assert isinstance(pds, ValueError) and "pds needs an unlabeled dataset" in str(pds)
    assert no_share.method is MethodId.NO_SHARE and no_share.n1 == 0
    model = fit_reward(d0, mdp.features, r_max=mdp.r_max)
    _assert_same_problem(no_share.problem, _reference_problem(
        mdp, d0, _empty_unlabeled(mdp), MethodId.NO_SHARE, model, pevi_cfg))


def test_methods_never_perturb_cell_data():
    # same grid, different method lists: the shared method's rows must match
    mdp = _mdp(seed=37)
    base = dict(n0_values=(30,), n1_values=(20,), seeds=(0, 1),
                pevi=PeviSettings(beta_override=0.5))
    only_pds = sweep(mdp, SweepGrid(methods=(MethodId.PDS,), **base))
    many = sweep(mdp, SweepGrid(methods=ALL_METHODS, **base))
    pds_rows = [r.csv_row() for r in many.results if r.method is MethodId.PDS]
    assert _strip_wall("\n".join(pds_rows)) == _strip_wall(
        "\n".join(r.csv_row() for r in only_pds.results))


def test_csv_format():
    mdp = _mdp(seed=41)
    d0, d1 = _pair(mdp, n0=25, n1=15)
    res = run_method(mdp, d0, d1, MethodId.PDS)
    text = results_to_csv([res])
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == "method,n0,n1,c0,c1,gamma,d,seed,subopt_mean,subopt_max,vhat_start,wall_ms"
    fields = lines[1].split(",")
    assert fields[0] == "pds"
    assert int(fields[1]) == 25 and int(fields[2]) == 15
    assert float(fields[8]) == res.subopt_mean
    assert text.endswith("\n")


def _fake_result(method, n1, subopt, seed):
    return RunResult(method=method, n0=10, n1=n1, c0_dagger=0.5, c1_dagger=0.5,
                     gamma=0.9, dim=2, seed=seed, subopt_mean=subopt,
                     subopt_max=subopt, v_hat_start=0.0, wall_time_ms=1.0,
                     converged=True)


def test_markdown_summary_bolds_best_non_oracle():
    results = []
    for seed, (pds, uds, orc) in enumerate([(0.10, 0.50, 0.01), (0.12, 0.52, 0.02)]):
        results += [
            _fake_result(MethodId.PDS, 100, pds, seed),
            _fake_result(MethodId.UDS, 100, uds, seed),
            _fake_result(MethodId.ORACLE, 100, orc, seed),
        ]
    table = markdown_summary(results)
    lines = {line.split("|")[1].strip(): line for line in table.splitlines()[2:]}
    assert "**" in lines["pds"]
    assert "**" not in lines["uds"]
    assert "**" not in lines["oracle"]  # best overall, but it sees true rewards
    assert "n1=100" in table.splitlines()[0]


def test_markdown_summary_bolds_ties_within_pooled_std():
    results = []
    for seed, (a, b) in enumerate([(0.10, 0.11), (0.12, 0.13), (0.11, 0.12)]):
        results += [
            _fake_result(MethodId.PDS, 0, a, seed),
            _fake_result(MethodId.UDS, 0, b, seed),
        ]
    table = markdown_summary(results)
    lines = {line.split("|")[1].strip(): line for line in table.splitlines()[2:]}
    assert "**" in lines["pds"] and "**" in lines["uds"]
    with pytest.raises(ValueError, match="summarize"):
        markdown_summary([])


def test_grid_validation():
    with pytest.raises(ValueError, match="nonempty"):
        SweepGrid(n0_values=(), n1_values=(0,), methods=(MethodId.PDS,), seeds=(0,))
    with pytest.raises(ValueError, match="distinct"):
        SweepGrid(n0_values=(10,), n1_values=(0,), methods=(MethodId.PDS,), seeds=(0, 0))
    with pytest.raises(ValueError, match="quality"):
        SweepGrid(n0_values=(10,), n1_values=(0,), methods=(MethodId.PDS,), seeds=(0,),
                  labeled_quality="superb")
    grid = SweepGrid(n0_values=(10,), n1_values=(0,), methods=("pds",), seeds=(0,))
    assert grid.methods == (MethodId.PDS,)  # string names normalize to the enum
    # the settings types check their own values, so a library sweep fails fast
    with pytest.raises(ValueError, match=r"reward\.alpha_mode"):
        RewardSettings(alpha_mode="bogus")
    with pytest.raises(ValueError, match=r"pevi\.c"):
        PeviSettings(c=float("inf"))
    axes = dict(n0_values=(10,), n1_values=(0,), methods=(MethodId.PDS,), seeds=(0,))
    with pytest.raises(ValueError, match=r"data\.horizon_reset"):
        SweepGrid(horizon_reset=0, **axes)
    with pytest.raises(ValueError, match=r"data\.noise"):
        SweepGrid(noise=-0.1, **axes)


@pytest.mark.parametrize("axis,values,match", [
    ("n0_values", (50, 50), "n0"),
    ("n1_values", (0, 20, 0), "n1"),
    ("methods", ("pds", "pds"), "methods"),
    ("methods", (MethodId.UDS, "uds"), "methods"),  # the same method, named two ways
])
def test_grid_rejects_repeated_axis_values(axis, values, match):
    # a repeated value would emit the same cell's rows twice
    axes = dict(n0_values=(50,), n1_values=(0,), methods=("pds",), seeds=(0,))
    axes[axis] = values
    with pytest.raises(ValueError, match=rf"{match} .*distinct"):
        SweepGrid(**axes)


@pytest.mark.parametrize("axis,values,match", [
    ("seeds", (0.5,), "seeds"),  # data keyed by int(0.5), but 0.5 in the CSV
    ("seeds", (True,), "seeds"),
    ("seeds", (0, 1.0), "seeds"),
    ("n0_values", (40.0,), "n0"),
    ("n0_values", (True,), "n0"),
    ("n1_values", (0, 20.5), "n1"),
    ("n1_values", (True,), "n1"),
    ("n1_values", (float("nan"),), "n1"),
])
def test_grid_rejects_non_integer_axis_values(axis, values, match):
    axes = dict(n0_values=(50,), n1_values=(0,), methods=("pds",), seeds=(0,))
    axes[axis] = values
    with pytest.raises(ValueError, match=rf"{match} .*integers"):
        SweepGrid(**axes)


def test_behavior_policy_presets():
    mdp = _mdp(seed=43)
    optimal = solve_optimal(mdp)[0]
    expert = behavior_policy(mdp, "expert", optimal)
    uniform = behavior_policy(mdp, "random")
    expect = 0.95 * optimal.probs + 0.05 / 3.0
    assert np.allclose(expert.probs, expect, atol=1e-12)
    assert np.allclose(uniform.probs, 1.0 / 3.0, atol=0.0)
    with pytest.raises(ValueError, match="quality"):
        behavior_policy(mdp, "perfect")


def test_run_result_rejects_negative_suboptimality():
    with pytest.raises(ValueError, match="suboptimality"):
        _fake_result(MethodId.PDS, 0, -1e-3, 0)
