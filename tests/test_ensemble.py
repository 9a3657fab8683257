"""Bootstrap reward ensembles, the extreme-value coefficient, and file relabeling."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdslab.data import OfflineDataset, read_jsonl, sample_dataset, write_jsonl, header_path
from pdslab.ensemble import (
    EnsembleRewardModel,
    auto_k,
    ensemble_stats,
    fit_ensemble,
    gaussian_min_coefficient,
    load_ensemble,
    pessimistic_ensemble_reward,
    relabel_file,
    resolve_k,
    save_ensemble,
)
from pdslab.mdp import FeatureMap, Policy, make_adversarial_mdp, make_lowrank_mdp
from pdslab.reward import fit_reward


def _uniform_data(mdp, n, seed=0, labeled=True, noise=False):
    pi = Policy.uniform(mdp.num_states, mdp.num_actions)
    return sample_dataset(mdp, pi, n=n, seed=seed, labeled=labeled, noise=noise)


def _toy_model(members, labeled_mean=1.0, **kwargs):
    d = np.asarray(members).shape[1]
    feats = FeatureMap(np.full((1, 1, d), 1.0 / np.sqrt(d)))
    return EnsembleRewardModel(
        members=np.asarray(members, dtype=float),
        features=feats,
        labeled_mean=labeled_mean,
        nu=1.0,
        **kwargs,
    )


# ------------------------------------------------------------------- fitting


def test_constant_data_gives_identical_members():
    mdp = make_adversarial_mdp(3, 1)  # every row has feature [1.0], reward r_max
    ds = _uniform_data(mdp, 40, seed=1)
    model = fit_ensemble(ds, mdp.features, ensemble_size=5, nu=1.0, seed=0)
    assert np.all(model.members == model.members[0])
    mu, sigma, low = ensemble_stats(model, mdp.features, 0, 0)
    assert sigma == pytest.approx(0.0, abs=1e-15)  # identical members, spread is roundoff
    assert low == pytest.approx(mu, abs=1e-15)


def test_member_mean_tracks_single_fit():
    mdp = make_lowrank_mdp(6, 3, dim=3, seed=4)
    ds = _uniform_data(mdp, 300, seed=2, noise=True)
    model = fit_ensemble(ds, mdp.features, ensemble_size=10, nu=1.0, seed=7)
    single = fit_reward(ds, mdp.features, nu=1.0).theta_hat
    spread = model.members.std(axis=0, ddof=1) / np.sqrt(model.l_count)
    assert np.all(np.abs(model.members.mean(axis=0) - single) <= 3.0 * spread + 1e-3)


def test_fit_determinism_and_seed_sensitivity():
    mdp = make_lowrank_mdp(5, 2, dim=2, seed=0)
    ds = _uniform_data(mdp, 50, seed=0, noise=True)
    a = fit_ensemble(ds, mdp.features, ensemble_size=4, seed=3)
    b = fit_ensemble(ds, mdp.features, ensemble_size=4, seed=3)
    c = fit_ensemble(ds, mdp.features, ensemble_size=4, seed=4)
    assert np.array_equal(a.members, b.members)
    assert not np.array_equal(a.members, c.members)
    assert a.labeled_mean == ds.rewards.mean()


def test_fit_argument_errors():
    mdp = make_lowrank_mdp(4, 2, dim=2, seed=0)
    ds = _uniform_data(mdp, 10)
    with pytest.raises(ValueError, match="ensemble_size"):
        fit_ensemble(ds, mdp.features, ensemble_size=1)
    unlab = _uniform_data(mdp, 10, labeled=False)
    with pytest.raises(ValueError, match="labeled"):
        fit_ensemble(unlab, mdp.features, ensemble_size=3)
    wide = OfflineDataset(ds.states, ds.actions, ds.rewards, ds.next_states, labeled=True,
                          num_states=9, num_actions=mdp.num_actions)
    with pytest.raises(ValueError, match="exceeds feature table shape"):
        fit_ensemble(wide, mdp.features, ensemble_size=3)
    with pytest.raises(ValueError, match="members"):
        EnsembleRewardModel(np.zeros((1, 2)), mdp.features, 0.5, 1.0)


# ------------------------------------------------------------------ statistics


def test_stats_two_member_arithmetic():
    model = _toy_model([[0.0], [1.0]])
    mu, sigma, low = ensemble_stats(model, model.features, 0, 0)
    assert mu == pytest.approx(0.5)
    assert sigma == pytest.approx(0.5)  # population convention, divide by L
    assert low == pytest.approx(0.0)


def test_stats_match_two_pass_oracle():
    rng = np.random.default_rng(11)
    members = rng.normal(size=(7, 3))
    model = _toy_model(members)
    phi = model.features.vector(0, 0)
    vals = [float(m @ phi) for m in members]
    mean = sum(vals) / len(vals)
    var = sum((v - mean) ** 2 for v in vals) / len(vals)
    mu, sigma, low = ensemble_stats(model, model.features, 0, 0)
    assert mu == pytest.approx(mean, abs=1e-12)
    assert sigma == pytest.approx(np.sqrt(var), abs=1e-12)
    assert low == pytest.approx(min(vals), abs=1e-12)


# --------------------------------------------------- extreme-value coefficient


def test_coefficient_symmetric_base_case():
    # (1 - pi/8)/(2 - pi/4) is exactly one half, so the quantile is zero
    assert gaussian_min_coefficient(1) == pytest.approx(0.0, abs=1e-9)


def test_coefficient_frozen_value_and_monotonicity():
    assert gaussian_min_coefficient(10) == pytest.approx(1.559371880117404, abs=1e-10)
    vals = [gaussian_min_coefficient(ell) for ell in range(1, 31)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        gaussian_min_coefficient(0)


def test_coefficient_tracks_exact_order_statistic():
    # E[max of L iid standard normals], evaluated by quadrature to ~1e-11:
    # the quantile rule is an approximation and these are its true targets
    exact = {
        2: 0.5641895835477566,
        5: 1.1629644736405196,
        10: 1.538752730835173,
        20: 1.8674750597983216,
    }
    gaps = {ell: abs(gaussian_min_coefficient(ell) - val) for ell, val in exact.items()}
    assert max(gaps.values()) <= 0.02, f"approximation gaps exceed 0.02: {gaps}"


# -------------------------------------------------------------- penalty weight


def test_auto_k_zero_when_prediction_not_below():
    model = _toy_model([[0.0], [1.0]], labeled_mean=0.4)
    assert auto_k(model, 0.4, 0.4) == 0.0
    assert auto_k(model, 0.4, 0.9) == 0.0


def test_auto_k_forced_arithmetic():
    model = _toy_model([[0.0], [1.0]], labeled_mean=1.0)
    assert auto_k(model, 1.0, 0.5) == pytest.approx(12.5, rel=1e-6)


def test_auto_k_epsilon_guard_caps():
    model = _toy_model([[0.0], [1.0]], labeled_mean=0.0)
    assert auto_k(model, 0.0, -0.1) == 1e6  # 25*0.1/1e-8 would be 2.5e8


def test_auto_k_scale_invariant():
    mdp = make_lowrank_mdp(6, 3, dim=2, seed=9)
    ds = _uniform_data(mdp, 120, seed=3, noise=True)
    scaled = ds.with_rewards(ds.rewards * 5.0)
    base = fit_ensemble(ds, mdp.features, ensemble_size=6, nu=1e-6, seed=0)
    big = fit_ensemble(scaled, mdp.features, ensemble_size=6, nu=1e-6, seed=0)
    mu_hat = 0.3
    k1 = auto_k(base, base.labeled_mean, mu_hat)
    k2 = auto_k(big, big.labeled_mean, 5.0 * mu_hat)
    assert k1 > 0
    assert k2 == pytest.approx(k1, rel=1e-6)


def test_resolve_k_priority_and_errors():
    auto_model = _toy_model([[0.0], [1.0]], labeled_mean=1.0)
    fixed = _toy_model([[0.0], [1.0]], labeled_mean=1.0, penalty_k=2.0)
    assert resolve_k(fixed) == 2.0
    assert resolve_k(fixed, k_override=0.5) == 0.5
    assert resolve_k(auto_model, unlabeled_pred_mean=0.5) == pytest.approx(12.5, rel=1e-6)
    with pytest.raises(ValueError, match="unlabeled_pred_mean"):
        resolve_k(auto_model)
    with pytest.raises(ValueError, match="nonnegative"):
        resolve_k(auto_model, k_override=-1.0)


# -------------------------------------------------------- pessimistic estimate


def test_pessimistic_k_zero_is_clamped_member_min():
    model = _toy_model([[0.9], [0.3], [0.6]])
    got = pessimistic_ensemble_reward(model, model.features, 0, 0, k_override=0.0)
    _, _, low = ensemble_stats(model, model.features, 0, 0)
    assert got == pytest.approx(max(low, 0.0), abs=1e-12)


def test_pessimistic_huge_k_degenerates_to_zero():
    model = _toy_model([[0.9], [0.3], [0.6]])
    assert pessimistic_ensemble_reward(model, model.features, 0, 0, k_override=1e9) == 0.0


def test_pessimistic_zero_spread_keeps_member_value():
    model = _toy_model([[0.7], [0.7]])
    got = pessimistic_ensemble_reward(model, model.features, 0, 0, k_override=5.0)
    phi = model.features.vector(0, 0)
    assert got == pytest.approx(max(float(model.members[0] @ phi), 0.0), abs=1e-12)


def test_pessimistic_below_every_member_and_monotone_in_k():
    rng = np.random.default_rng(3)
    model = _toy_model(rng.normal(0.5, 0.2, size=(6, 4)))
    phi = model.features.vector(0, 0)
    preds = model.members @ phi
    last = np.inf
    for k in (0.0, 0.5, 2.0, 10.0):
        val = pessimistic_ensemble_reward(model, model.features, 0, 0, k_override=k)
        assert val <= preds.min() + 1e-12
        assert val >= 0.0
        assert val <= last + 1e-12
        last = val


def test_mean_estimator_variant():
    model = _toy_model([[0.9], [0.3], [0.6]])
    mu, sigma, _ = ensemble_stats(model, model.features, 0, 0)
    got = pessimistic_ensemble_reward(
        model, model.features, 0, 0, k_override=1.0, estimator="mean"
    )
    assert got == pytest.approx(max(mu - sigma, 0.0), abs=1e-12)
    with pytest.raises(ValueError, match="estimator"):
        pessimistic_ensemble_reward(model, model.features, 0, 0, k_override=0.0,
                                    estimator="median")


# ------------------------------------------------------------- file relabeling


def _fitted(mdp, n=80, seed=0, **kwargs):
    ds = _uniform_data(mdp, n, seed=seed, noise=True)
    return fit_ensemble(ds, mdp.features, ensemble_size=5, seed=11, **kwargs), ds


def test_relabel_file_fills_unlabeled(tmp_path):
    mdp = make_lowrank_mdp(5, 3, dim=2, seed=21)
    model, _ = _fitted(mdp)
    unlab = _uniform_data(mdp, 30, seed=5, labeled=False)
    src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    write_jsonl(unlab, src)
    summary = relabel_file(src, dst, model, k_mode=0.0)
    assert summary["count"] == 30 and summary["relabeled"] == 30
    assert summary["passthrough"] == 0 and summary["k"] == 0.0
    out = read_jsonl(dst)
    assert out.labeled and len(out) == 30
    expect = [
        pessimistic_ensemble_reward(model, mdp.features, s, a, k_override=0.0)
        for s, a in zip(unlab.states, unlab.actions)
    ]
    assert np.allclose(out.rewards, expect, atol=1e-12)
    assert summary["reward_min"] == pytest.approx(min(expect))
    assert summary["reward_max"] == pytest.approx(max(expect))
    # header sidecar follows the output and flips to labeled
    meta = json.loads(header_path(dst).read_text())
    assert meta["labeled"] is True


def test_relabel_file_auto_k_matches_hand_computation(tmp_path):
    mdp = make_lowrank_mdp(5, 3, dim=2, seed=22)
    model, _ = _fitted(mdp)
    unlab = _uniform_data(mdp, 40, seed=6, labeled=False)
    src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    write_jsonl(unlab, src)
    summary = relabel_file(src, dst, model, k_mode="auto")
    rows = mdp.features.phi[unlab.states, unlab.actions]
    mu_hat = float((rows @ model.members.mean(axis=0)).mean())
    assert summary["k"] == pytest.approx(auto_k(model, model.labeled_mean, mu_hat))


def test_relabel_file_passthrough_and_empty(tmp_path):
    mdp = make_lowrank_mdp(4, 2, dim=2, seed=23)
    model, labeled = _fitted(mdp, n=20)
    src, dst = tmp_path / "mix.jsonl", tmp_path / "mix_out.jsonl"
    lines = [json.dumps({"s": int(s), "a": int(a), "r": float(r), "sp": int(sp)})
             for s, a, r, sp in zip(labeled.states[:4], labeled.actions[:4],
                                    labeled.rewards[:4], labeled.next_states[:4])]
    lines.append(json.dumps({"s": 0, "a": 0, "r": None, "sp": 1}))
    src.write_text("\n".join(lines) + "\n")
    summary = relabel_file(src, dst, model, k_mode=1.0)
    assert summary["passthrough"] == 4 and summary["relabeled"] == 1
    assert dst.read_text().splitlines()[:4] == lines[:4]
    out = read_jsonl(dst)
    assert np.allclose(out.rewards[:4], labeled.rewards[:4], atol=0.0)

    empty_in, empty_out = tmp_path / "none.jsonl", tmp_path / "none_out.jsonl"
    empty_in.write_text("")
    summary = relabel_file(empty_in, empty_out, model, k_mode="auto")
    assert summary == {"count": 0, "relabeled": 0, "passthrough": 0, "k": 0.0,
                       "reward_mean": None, "reward_min": None, "reward_max": None}
    assert empty_out.read_text() == ""


def test_relabel_file_error_reporting(tmp_path):
    mdp = make_lowrank_mdp(4, 2, dim=2, seed=24)
    model, _ = _fitted(mdp, n=20)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"s": 0, "a": 0, "r": None, "sp": 1}) + "\nnot json\n")
    with pytest.raises(ValueError, match="line 2"):
        relabel_file(bad, tmp_path / "x.jsonl", model, k_mode=0.0)
    oob = tmp_path / "oob.jsonl"
    oob.write_text(json.dumps({"s": 9, "a": 0, "r": None, "sp": 1}) + "\n")
    with pytest.raises(ValueError, match="line 1"):
        relabel_file(oob, tmp_path / "y.jsonl", model, k_mode=0.0)
    # line numbers count blank lines
    oob.write_text('{"s": 0, "a": 0, "r": null, "sp": 1}\n\n{"s": 0, "a": 2, "r": 0.5, "sp": 1}\n')
    with pytest.raises(ValueError, match=r"no feature row for \(s=0, a=2\) at line 3"):
        relabel_file(oob, tmp_path / "y.jsonl", model, k_mode=0.0)
    oob.write_text('{"s": 0, "a": 0, "r": null, "sp": 1}\n{"s": 0, "a": 0, "r": null, "sp": 999}\n')
    with pytest.raises(ValueError, match=r"sp=999 out of range for 4 states at line 2"):
        relabel_file(oob, tmp_path / "y.jsonl", model, k_mode=0.0)
    # rewards that are not finite and nonnegative numbers, and ids that are not
    # JSON integers (or do not fit int64), are rejected, not passed through
    for second_line in ('{"s": 0, "a": 0, "r": NaN, "sp": 1}',
                        '{"s": 0, "a": 0, "r": Infinity, "sp": 1}',
                        '{"s": 0, "a": 0, "r": -Infinity, "sp": 1}',
                        '{"s": 0, "a": 0, "r": -0.5, "sp": 1}',
                        '{"s": 1.9, "a": 0, "r": null, "sp": 1}',
                        '{"s": 0, "a": true, "r": null, "sp": 1}',
                        '{"s": 0, "a": 0, "r": null, "sp": "2"}',
                        '{"s": 0, "a": 0, "r": true, "sp": 1}',
                        '{"s": 0, "a": 0, "r": "0.5", "sp": 1}',
                        '{"s": 0, "a": 0, "r": null, "sp": 99999999999999999999}'):
        bad.write_text('{"s": 0, "a": 0, "r": null, "sp": 1}\n' + second_line + "\n")
        with pytest.raises(ValueError, match="malformed transition at line 2"):
            relabel_file(bad, tmp_path / "z.jsonl", model, k_mode=0.0)
    # a file cut short of its header's n is refused before anything is written
    data = _uniform_data(mdp, n=5, seed=7, labeled=False)
    cut = tmp_path / "cut.jsonl"
    write_jsonl(data, cut)
    cut.write_text("".join(cut.read_text().splitlines(keepends=True)[:3]))
    out = tmp_path / "cut_out.jsonl"
    with pytest.raises(ValueError, match="header says n=5 but the file holds 3 transitions"):
        relabel_file(cut, out, model, k_mode=0.0)
    assert not out.exists() and not header_path(out).exists()


def test_model_json_round_trip(tmp_path):
    mdp = make_lowrank_mdp(5, 2, dim=3, seed=25)
    model, _ = _fitted(mdp, n=40)
    path = tmp_path / "ensemble.json"
    save_ensemble(model, path)
    back = load_ensemble(path)
    assert np.array_equal(back.members, model.members)
    assert np.array_equal(back.features.phi, model.features.phi)
    assert back.penalty_k is None
    assert back.labeled_mean == model.labeled_mean
    assert (back.nu, back.auto_a, back.epsilon) == (model.nu, model.auto_a, model.epsilon)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 9999),
    k=st.floats(0.0, 50.0),
    ell=st.integers(2, 8),
)
def test_pessimistic_estimate_bounds(seed, k, ell):
    rng = np.random.default_rng(seed)
    model = _toy_model(rng.normal(0.0, 1.0, size=(ell, 3)))
    val = pessimistic_ensemble_reward(model, model.features, 0, 0, k_override=k)
    _, _, low = ensemble_stats(model, model.features, 0, 0)
    assert 0.0 <= val <= max(low, 0.0) + 1e-12
