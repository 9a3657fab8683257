"""Acceptance gate: one test per shipping criterion, each printing a verdict line.

These are end-to-end checks of the public API at desk scale. Tolerances are
fixed here on purpose; loosening them to get a green run defeats the point.
"""
import json
import math
import time
from pathlib import Path

import numpy as np

from conftest import (
    chain_mdp,
    confidence_coverage_trial,
    exhaustive_dataset,
    quantize_transitions,
)
from pdslab.cli import run_config
from pdslab.data import sample_dataset, write_jsonl
from pdslab.ensemble import fit_ensemble, gaussian_min_coefficient, relabel_file
from pdslab.mdp import (
    FeatureMap,
    LinearMdp,
    evaluate_policy,
    make_lowrank_mdp,
    make_tabular_mdp,
    solve_optimal,
)
from pdslab.pevi import PeviConfig, pevi_solve, theorem_beta
from pdslab.pipeline import (
    MethodId,
    PeviSettings,
    RewardSettings,
    SweepGrid,
    behavior_policy,
    run_method,
    sweep,
)
from pdslab.reward import fit_reward, relabel
from pdslab.theory import BoundInputs, bound_holds_rate, sbr_approx, sbr_exact, uds_bias


def _verdict(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[{num:>2}/11] {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    return ok


def _pooled_se(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.sqrt(np.var(a, ddof=1) / len(a) + np.var(b, ddof=1) / len(b)))


def _two_mode_mdp() -> LinearMdp:
    """Every action mixes a 'good' and a 'bad' next-state mode; the mixing
    weight doubles as the reward, so action quality is linear in two features
    and the gaps are wide enough to survive a pessimistic reward haircut."""
    p = np.array([0.05, 0.45, 0.95])
    phi = np.zeros((4, 3, 2))
    phi[:, :, 0] = p[None, :]
    phi[:, :, 1] = 1.0 - p[None, :]
    mu = np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]])
    theta = np.array([1.0, 0.0])
    return LinearMdp(FeatureMap(phi), mu, theta, gamma=0.9, r_max=1.0,
                     init_dist=np.full(4, 0.25))


def test_01_reward_confidence_region_coverage():
    t0 = time.perf_counter()
    trials_per_mdp = 250
    rates = []
    for dim, states, actions, seed in [(4, 6, 3, 0), (8, 10, 4, 1)]:
        mdp = make_lowrank_mdp(states, actions, dim, gamma=0.9, seed=seed)
        rates.append(confidence_coverage_trial(
            mdp, n0=200, noise=True, delta=0.1, trials=trials_per_mdp, seed=seed))
    rate = float(np.mean(rates))
    elapsed = time.perf_counter() - t0

    total = 2 * trials_per_mdp
    threshold = 0.90 - 3.0 * math.sqrt(0.9 * 0.1 / total)
    ok = rate >= threshold and elapsed < 60.0
    assert _verdict(1, "reward confidence region coverage", ok,
                    f"rate={rate:.3f} >= {threshold:.3f} over {total} trials, "
                    f"{elapsed:.1f}s < 60s")


def test_02_pessimistic_value_underestimates():
    t0 = time.perf_counter()
    sizes = [(6, 3), (8, 3), (10, 4), (7, 2)]
    hits = 0
    runs = 200
    for i in range(runs):
        states, actions = sizes[(i // 5) % len(sizes)]
        mdp = make_tabular_mdp(states, actions, gamma=0.9, seed=i // 5)
        beh = behavior_policy(mdp, "medium")
        ds = sample_dataset(mdp, beh, 120, seed=1000 + i, noise=True)
        cfg = PeviConfig.for_mdp(mdp.gamma, mdp.r_max, beta=theorem_beta(
            mdp.dim, len(ds), mdp.gamma, mdp.r_max, delta=0.1, c=1.0))
        sol = pevi_solve(ds, mdp.features, cfg)
        s0 = int(np.argmax(mdp.init_dist))
        v_pi = evaluate_policy(mdp, sol.policy).v[s0]
        hits += sol.v_hat[s0] <= v_pi + 1e-9
    rate = hits / runs
    elapsed = time.perf_counter() - t0

    ok = rate >= 0.85 and elapsed < 120.0
    assert _verdict(2, "pessimistic value underestimates", ok,
                    f"rate={rate:.3f} >= 0.85 over {runs} runs, {elapsed:.1f}s < 120s")


def test_03_exact_recovery_with_zero_bonus():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(20):
        states, actions = [(6, 3), (8, 4)][i % 2]
        mdp = quantize_transitions(
            make_tabular_mdp(states, actions, gamma=0.9, seed=i), 200)
        ds = exhaustive_dataset(mdp, 200)
        cfg = PeviConfig.for_mdp(mdp.gamma, mdp.r_max, beta=0.0, lambda_reg=1e-8)
        sol = pevi_solve(ds, mdp.features, cfg)
        v_star = solve_optimal(mdp)[1].v
        worst = max(worst, float(np.max(np.abs(sol.v_hat - v_star))))
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-4 and elapsed < 30.0
    assert _verdict(3, "exact recovery with zero bonus", ok,
                    f"sup gap={worst:.2e} <= 1e-4 on 20 MDPs, {elapsed:.1f}s < 30s")


def test_04_suboptimality_bound_validity():
    results = []
    dims = []
    for i in range(200):
        mdp = make_lowrank_mdp(6, 3, 3, gamma=0.9, seed=i // 20)
        beh = behavior_policy(mdp, "medium")
        d0 = sample_dataset(mdp, beh, 200, seed=3000 + i, noise=True)
        d1 = sample_dataset(mdp, beh, 500, labeled=False, seed=4000 + i)
        results.append(run_method(mdp, d0, d1, MethodId.PDS, seed=i))
        dims.append(mdp.dim)

    def inputs(c):
        return [
            BoundInputs(d=dim, n0=200, n1=500, c0_dagger=res.c0_dagger,
                        c1_dagger=res.c1_dagger, gamma=0.9, r_max=1.0,
                        delta=0.1, c=c)
            for res, dim in zip(results, dims)
        ]

    rate1 = bound_holds_rate(results, inputs(1.0))
    rate10 = bound_holds_rate(results, inputs(10.0))
    slack = 3.0 * math.sqrt(0.8 * 0.2 / len(results))
    ok = rate1 >= 0.80 - slack and rate10 == 1.0
    assert _verdict(4, "suboptimality bound validity", ok,
                    f"rate={rate1:.3f} >= {0.80 - slack:.3f} at c=1, "
                    f"rate={rate10:.3f} == 1.0 at c=10, over {len(results)} runs")


def test_05_more_shared_data_never_hurts():
    n1s = (0, 2000, 20000)
    grid = SweepGrid(
        n0_values=(200,), n1_values=n1s, methods=(MethodId.PDS,),
        seeds=tuple(range(50)), labeled_quality="medium",
        unlabeled_quality="medium", reward=RewardSettings(),
        pevi=PeviSettings(c=0.02),
    )
    report = sweep(chain_mdp(), grid)
    assert not report.failures
    by_n1 = {n1: [r.subopt_mean for r in report.results if r.n1 == n1] for n1 in n1s}
    means = {n1: float(np.mean(v)) for n1, v in by_n1.items()}

    ok = True
    steps = []
    for lo, hi in zip(n1s, n1s[1:]):
        se = _pooled_se(by_n1[lo], by_n1[hi])
        ok &= means[hi] <= means[lo] + se
        steps.append(f"{means[lo]:.3f}->{means[hi]:.3f} (se {se:.3f})")
    assert _verdict(5, "more shared data never hurts", ok,
                    "mean subopt " + ", ".join(steps) + " over 50 seeds")


def test_06_pessimistic_sharing_beats_zero_labels():
    grid = SweepGrid(
        n0_values=(200,), n1_values=(10000,),
        methods=(MethodId.PDS, MethodId.UDS, MethodId.REWARD_PREDICT),
        seeds=tuple(range(50)), labeled_quality="random",
        unlabeled_quality="expert", reward=RewardSettings(),
        pevi=PeviSettings(c=0.02),
    )
    report = sweep(_two_mode_mdp(), grid)
    assert not report.failures
    by_m = {m: [r.subopt_mean for r in report.results if r.method == m]
            for m in grid.methods}
    mean = {m: float(np.mean(v)) for m, v in by_m.items()}
    se = _pooled_se(by_m[MethodId.PDS], by_m[MethodId.REWARD_PREDICT])

    ok = (mean[MethodId.PDS] < mean[MethodId.UDS]
          and mean[MethodId.PDS] <= mean[MethodId.REWARD_PREDICT] + se)
    assert _verdict(6, "pessimistic sharing beats zero labels", ok,
                    f"pds={mean[MethodId.PDS]:.3f} < uds={mean[MethodId.UDS]:.3f}, "
                    f"pds <= predict={mean[MethodId.REWARD_PREDICT]:.3f} + se {se:.3f}, "
                    "50 seeds")


def test_07_zero_label_bias_formula():
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(100):
        mdp = make_lowrank_mdp(5, 3, 2, gamma=0.9, seed=i % 7)
        beh = behavior_policy(mdp, "random")
        n1 = int(rng.integers(1, 400))
        n0 = int(rng.integers(0, 3000))
        shared = sample_dataset(mdp, beh, n1, seed=5000 + i, noise=True)
        expected = (n1 / (n0 + n1)) * (math.fsum(abs(float(r)) for r in shared.rewards) / n1)
        worst = max(worst, abs(uds_bias(shared, n0) - expected))
    ok = worst <= 1e-12
    assert _verdict(7, "zero label bias formula", ok,
                    f"max |bias - closed form|={worst:.2e} <= 1e-12 on 100 datasets")


def test_08_min_coefficient_matches_monte_carlo():
    rng = np.random.default_rng(108)
    total = 0.0
    n_samples = 10_000_000
    chunk = 500_000
    for _ in range(n_samples // chunk):
        total += float(np.sum(np.min(rng.standard_normal((chunk, 10)), axis=1)))
    mc_expected_min = total / n_samples  # about -1.5388, estimator noise ~2e-4

    coef10 = gaussian_min_coefficient(10)
    coef1 = gaussian_min_coefficient(1)
    gap = abs(coef10 - (-mc_expected_min))
    ok = gap <= 0.02 and abs(coef1) <= 1e-9

    detail = (f"coef(10)={coef10:.6f} vs -E[min]={-mc_expected_min:.6f}, "
              f"gap={gap:.6f} (tol 0.02); coef(1)={coef1:.2e} (tol 1e-9)")
    if gap > 0.02:
        print(
            "analysis: the closed-form coefficient is an asymptotic plug-in rule "
            "for the expected extreme of a Gaussian sample; at size 10 its "
            "inherent approximation error is about 0.021, which exceeds the "
            "stated 0.02 tolerance. Monte-Carlo noise here is ~2e-4, so the gap "
            "is the rule itself, not sampling error. Sizes of 20 or more land "
            "inside the tolerance.",
            flush=True,
        )
    assert _verdict(8, "min coefficient matches monte carlo", ok, detail)


def test_09_scarce_labels_degenerate_to_zero(tmp_path):
    mdp = make_lowrank_mdp(10, 4, 8, gamma=0.9, seed=0)
    beh = behavior_policy(mdp, "medium")

    fracs = []
    for ds_seed in range(10):
        d0 = sample_dataset(mdp, beh, 5, seed=100 + ds_seed)
        d1 = sample_dataset(mdp, beh, 400, labeled=False, seed=200 + ds_seed)
        model = fit_reward(d0, mdp.features)
        shared = relabel(d1, model, mdp.features, mode="pds")
        fracs.append(float(np.mean(shared.rewards == 0.0)))
    clause1 = min(fracs) >= 0.95

    d0 = sample_dataset(mdp, beh, 30, seed=7, noise=True)
    ensemble = fit_ensemble(d0, mdp.features, ensemble_size=10, seed=11)
    d1 = sample_dataset(mdp, beh, 200, labeled=False, seed=2)
    src, dst = tmp_path / "u.jsonl", tmp_path / "filled.jsonl"
    write_jsonl(d1, src)
    summary = relabel_file(src, dst, ensemble, k_mode=1e30)
    filled = [json.loads(line)["r"] for line in dst.read_text().strip().splitlines()]
    clause2 = summary["relabeled"] == 200 and all(r == 0.0 for r in filled)

    ok = clause1 and clause2
    assert _verdict(9, "scarce labels degenerate to zero", ok,
                    f"5-sample zero fraction >= {min(fracs):.3f} (need 0.95); "
                    f"huge-k ensemble zeros: {clause2}")


def test_10_sharing_ratio_approximation():
    worst = 0.0
    count = 0
    for d in (4, 5, 6, 8):
        for n0 in (200, 500, 1000, 2000, 5000):
            for n1 in (1000, 2000, 5000, 10000, 20000):
                inp = BoundInputs(d=d, n0=n0, n1=n1, c0_dagger=0.5, c1_dagger=0.5,
                                  gamma=0.9, r_max=1.0, delta=0.1, c=1.0)
                exact = sbr_exact(inp)
                worst = max(worst, abs(sbr_approx(inp) - exact) / exact)
                count += 1
    base = BoundInputs(d=4, n0=1000, n1=0, c0_dagger=0.5, c1_dagger=0.5,
                       gamma=0.9, r_max=1.0, delta=0.1, c=1.0)
    mass0 = base.n0 * base.c0_dagger
    term_at_zero = math.sqrt(mass0 / (mass0 + base.n1 * base.c1_dagger))
    exact_at_zero = sbr_exact(base)

    ok = worst <= 0.25 and term_at_zero == 1.0 and exact_at_zero == 1.0
    assert _verdict(10, "sharing ratio approximation", ok,
                    f"max rel err={worst:.3f} <= 0.25 on {count} grid points; "
                    f"no-sharing term={term_at_zero} and ratio={exact_at_zero} (exactly 1)")


def _strip_wall(text: str) -> str:
    return "\n".join(line.rsplit(",", 1)[0] for line in text.strip().splitlines())


def test_11_csv_output_is_deterministic(tmp_path):
    configs = [
        {
            "schema_version": 1,
            "mdp": {"kind": "tabular", "num_states": 6, "num_actions": 3,
                    "gamma": 0.9, "r_max": 1.0, "seed": 2},
            "data": {"n0": [120], "n1": [0, 50], "labeled_quality": "medium",
                     "unlabeled_quality": "expert", "noise": True},
            "methods": ["no_share", "uds"],
            "seeds": [0, 1, 2],
            "output": str(tmp_path / "a.csv"),
        },
        {
            "schema_version": 1,
            "mdp": {"kind": "lowrank", "num_states": 6, "num_actions": 3,
                    "dim": 3, "gamma": 0.9, "r_max": 1.0, "seed": 4},
            "data": {"n0": [150], "n1": [0, 100], "labeled_quality": "medium",
                     "unlabeled_quality": "expert", "noise": False},
            "methods": ["pds", "uds", "reward_predict", "oracle", "no_share"],
            "reward": {"nu": 2.0},
            "pevi": {"c": 0.02},
            "seeds": [0, 1],
            "output": str(tmp_path / "b.csv"),
        },
        {
            "schema_version": 1,
            "mdp": {"kind": "adversarial", "num_actions": 3, "dim": 1,
                    "gamma": 0.9, "r_max": 1.0},
            "data": {"n0": [80], "n1": [40], "labeled_quality": "random",
                     "unlabeled_quality": "expert"},
            "methods": ["pds", "reward_predict"],
            "pevi": {"beta_override": 0.5},
            "seeds": [5, 6],
            "output": str(tmp_path / "c.csv"),
        },
    ]
    all_same = True
    rows = []
    for i, doc in enumerate(configs):
        cfg_path = tmp_path / f"cfg{i}.json"
        cfg_path.write_text(json.dumps(doc))
        out_path = Path(doc["output"])
        assert run_config(cfg_path) == 0
        first = _strip_wall(out_path.read_text())
        assert run_config(cfg_path) == 0
        second = _strip_wall(out_path.read_text())
        all_same &= first == second
        rows.append(len(first.splitlines()) - 1)

    assert _verdict(11, "csv output is deterministic", all_same,
                    f"3 configs re-run byte-identical modulo wall time "
                    f"({rows} data rows)")
