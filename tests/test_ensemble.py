"""Bootstrap reward ensembles, the extreme-value coefficient, and file relabeling."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pdslab.data import OfflineDataset, read_jsonl, sample_dataset, write_jsonl, header_path
from pdslab.ensemble import (
    EnsembleRewardModel,
    _pessimistic_tables,
    auto_k,
    fit_ensemble,
    gaussian_min_coefficient,
    load_ensemble,
    relabel_file,
    save_ensemble,
)
from pdslab.mdp import FeatureMap, Policy, make_adversarial_mdp, make_lowrank_mdp
from pdslab.reward import fit_reward


def _uniform_data(mdp, n, seed=0, labeled=True, noise=False):
    pi = Policy.uniform(mdp.num_states, mdp.num_actions)
    return sample_dataset(mdp, pi, n=n, seed=seed, labeled=labeled, noise=noise)


def _toy_model(members, labeled_mean=1.0):
    d = np.asarray(members).shape[1]
    feats = FeatureMap(np.full((1, 1, d), 1.0 / np.sqrt(d)))
    return EnsembleRewardModel(
        members=np.asarray(members, dtype=float),
        features=feats,
        labeled_mean=labeled_mean,
        nu=1.0,
    )


def _pessimistic_reward(model, s, a, k, estimator="min"):
    """max{min_j f_j - k*sigma, 0} at one pair (or the mean-based variant),
    computed on its own as the reference for the table relabel_file fills."""
    vals = model.members @ model.features.phi[s, a]
    center = vals.min() if estimator == "min" else vals.mean()
    return float(max(center - k * vals.std(), 0.0))


def _toy_estimate(model, k, estimator="min"):
    """The pessimistic estimate at the toy model's one pair."""
    return _pessimistic_tables(model, k, estimator)[0, 0]


# ------------------------------------------------------------------- fitting


def test_constant_data_gives_identical_members():
    mdp = make_adversarial_mdp(3, 1)  # every row has feature [1.0], reward r_max
    ds = _uniform_data(mdp, 40, seed=1)
    model = fit_ensemble(ds, mdp.features, ensemble_size=5, nu=1.0, seed=0)
    assert np.all(model.members == model.members[0])
    preds = model.member_table()
    assert np.all(preds.std(axis=0) <= 1e-15)  # identical members, spread is roundoff
    # so no k moves the estimate off the members' shared value
    assert np.abs(_pessimistic_tables(model, 1e3, "min") - preds[0]).max() <= 1e-12


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
    model = _toy_model([[1.0], [2.0]])  # mean 1.5, population sigma 0.5 (divide by L)
    assert _toy_estimate(model, 0.0, "mean") == pytest.approx(1.5)
    assert _toy_estimate(model, 1.0, "mean") == pytest.approx(1.0)
    assert _toy_estimate(model, 0.0) == pytest.approx(1.0)
    assert _toy_estimate(model, 1.0) == pytest.approx(0.5)


def test_stats_match_two_pass_oracle():
    rng = np.random.default_rng(11)
    members = rng.normal(size=(7, 3))
    model = _toy_model(members)
    phi = model.features.phi[0, 0]
    vals = [float(m @ phi) for m in members]
    mean = sum(vals) / len(vals)
    var = sum((v - mean) ** 2 for v in vals) / len(vals)
    assert np.abs(model.member_table()[:, 0, 0] - vals).max() <= 1e-12
    for k in (0.0, 0.5):
        assert _toy_estimate(model, k, "mean") == pytest.approx(
            max(mean - k * np.sqrt(var), 0.0), abs=1e-12)
        assert _toy_estimate(model, k) == pytest.approx(
            max(min(vals) - k * np.sqrt(var), 0.0), abs=1e-12)


# --------------------------------------------------- extreme-value coefficient


def test_coefficient_symmetric_base_case():
    # (1 - pi/8)/(2 - pi/4) is exactly one half, so the quantile is zero
    assert gaussian_min_coefficient(1) == 0.0


def test_coefficient_frozen_value_and_monotonicity():
    assert gaussian_min_coefficient(10) == pytest.approx(1.559371880117404, abs=1e-10)
    vals = [gaussian_min_coefficient(ell) for ell in range(1, 31)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        gaussian_min_coefficient(0)


def test_coefficient_matches_scipy_norm_ppf():
    # the standard library's inverse normal CDF stands in for scipy's; the
    # largest measured difference over these L is 2.2e-15
    ells = np.arange(1, 5001)
    p = (ells - np.pi / 8.0) / (ells - np.pi / 4.0 + 1.0)
    ours = np.array([gaussian_min_coefficient(int(ell)) for ell in ells])
    assert np.max(np.abs(ours - stats.norm.ppf(p))) <= 1e-14


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
    assert auto_k(model, 0.4) == 0.0
    assert auto_k(model, 0.9) == 0.0


def test_auto_k_forced_arithmetic():
    model = _toy_model([[0.0], [1.0]], labeled_mean=1.0)
    assert auto_k(model, 0.5) == pytest.approx(12.5, rel=1e-6)
    assert auto_k(model, 0.5, 10.0) == pytest.approx(5.0, rel=1e-6)


def test_auto_k_epsilon_guard_caps():
    model = _toy_model([[0.0], [1.0]], labeled_mean=0.0)
    assert auto_k(model, -0.1) == 1e6  # 25*0.1/1e-8 would be 2.5e8


def test_auto_k_scale_invariant():
    mdp = make_lowrank_mdp(6, 3, dim=2, seed=9)
    ds = _uniform_data(mdp, 120, seed=3, noise=True)
    scaled = ds.with_rewards(ds.rewards * 5.0)
    base = fit_ensemble(ds, mdp.features, ensemble_size=6, nu=1e-6, seed=0)
    big = fit_ensemble(scaled, mdp.features, ensemble_size=6, nu=1e-6, seed=0)
    mu_hat = 0.3
    k1 = auto_k(base, mu_hat)
    k2 = auto_k(big, 5.0 * mu_hat)
    assert k1 > 0
    assert k2 == pytest.approx(k1, rel=1e-6)


def test_relabel_file_refuses_bad_k_and_a_before_writing(tmp_path):
    # relabel_file is where the penalty weight is chosen, so it checks k and a
    # before it reads the input: a missing input still reports the bad weight
    mdp = make_lowrank_mdp(4, 2, dim=2, seed=27)
    model, _ = _fitted(mdp, n=20)
    src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    write_jsonl(_uniform_data(mdp, 10, seed=1, labeled=False), src)
    bad_k, bad_a = "k must be finite and nonnegative", "a must be finite and positive"
    for k_mode, auto_a, message in ((-1.0, 25.0, bad_k), (float("nan"), 25.0, bad_k),
                                    (float("inf"), 25.0, bad_k),
                                    ("fast", 25.0, "k must be 'auto' or a number"),
                                    ("auto", float("nan"), bad_a), ("auto", 0.0, bad_a),
                                    (1.0, -2.0, bad_a)):
        for inp in (src, tmp_path / "missing.jsonl"):
            with pytest.raises(ValueError, match=message):
                relabel_file(inp, dst, model, k_mode=k_mode, auto_a=auto_a)
            assert not dst.exists() and not header_path(dst).exists()


# -------------------------------------------------------- pessimistic estimate


def test_pessimistic_k_zero_is_clamped_member_min():
    model = _toy_model([[0.9], [0.3], [0.6]])
    got = _toy_estimate(model, 0.0)
    assert got == pytest.approx(max(model.member_table().min(), 0.0), abs=1e-12)


def test_pessimistic_huge_k_degenerates_to_zero():
    model = _toy_model([[0.9], [0.3], [0.6]])
    assert _toy_estimate(model, 1e9) == 0.0


def test_pessimistic_zero_spread_keeps_member_value():
    model = _toy_model([[0.7], [0.7]])
    got = _toy_estimate(model, 5.0)
    phi = model.features.phi[0, 0]
    assert got == pytest.approx(max(float(model.members[0] @ phi), 0.0), abs=1e-12)


def test_pessimistic_below_every_member_and_monotone_in_k():
    rng = np.random.default_rng(3)
    model = _toy_model(rng.normal(0.5, 0.2, size=(6, 4)))
    phi = model.features.phi[0, 0]
    preds = model.members @ phi
    last = np.inf
    for k in (0.0, 0.5, 2.0, 10.0):
        val = _toy_estimate(model, k)
        assert val <= preds.min() + 1e-12
        assert val >= 0.0
        assert val <= last + 1e-12
        last = val


def test_mean_estimator_variant(tmp_path):
    model = _toy_model([[0.9], [0.3], [0.6]])
    preds = model.member_table()
    got = _toy_estimate(model, 1.0, "mean")
    assert got == pytest.approx(max(preds.mean() - preds.std(), 0.0), abs=1e-12)
    assert got == pytest.approx(_pessimistic_reward(model, 0, 0, 1.0, "mean"), abs=1e-12)
    with pytest.raises(ValueError, match="estimator"):
        relabel_file(tmp_path / "in.jsonl", tmp_path / "out.jsonl", model, k_mode=0.0,
                     estimator="median")


# ------------------------------------------------------------- file relabeling


def _fitted(mdp, n=80, seed=0):
    ds = _uniform_data(mdp, n, seed=seed, noise=True)
    return fit_ensemble(ds, mdp.features, ensemble_size=5, seed=11), ds


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
    expect = [_pessimistic_reward(model, s, a, 0.0) for s, a in zip(unlab.states, unlab.actions)]
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
    assert summary["k"] == pytest.approx(auto_k(model, mu_hat))
    summary = relabel_file(src, dst, model, k_mode="auto", auto_a=10.0)
    assert summary["k"] == pytest.approx(auto_k(model, mu_hat, 10.0))


def test_relabel_file_passthrough_and_empty(tmp_path):
    mdp = make_lowrank_mdp(4, 2, dim=2, seed=23)
    model, labeled = _fitted(mdp, n=20)
    src, dst = tmp_path / "mix.jsonl", tmp_path / "mix_out.jsonl"
    lines = [json.dumps({"s": int(s), "a": int(a), "r": float(r), "sp": int(sp)})
             for s, a, r, sp in zip(labeled.states[:4], labeled.actions[:4],
                                    labeled.rewards[:4], labeled.next_states[:4])]
    lines.append(json.dumps({"s": 0, "a": 0, "r": None, "sp": 1}))
    # a passthrough line keeps its values but is rewritten in canonical form
    lines.append('{"s": 1, "a": 0, "r": 0.50, "sp": 2, "episode": 7}')
    src.write_text("\n".join(lines) + "\n")
    summary = relabel_file(src, dst, model, k_mode=1.0)
    assert summary["passthrough"] == 5 and summary["relabeled"] == 1
    written = dst.read_text().splitlines()
    assert written[:4] == lines[:4]
    assert written[5] == '{"s": 1, "a": 0, "r": 0.5, "sp": 2}'
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


def test_relabel_file_rejects_a_header_shape_the_model_cannot_cover(tmp_path):
    # the labeled file keeps the input's header, which fit_ensemble of the same
    # MDP would then refuse, so relabel refuses it first and writes nothing
    mdp = make_lowrank_mdp(6, 2, dim=2, seed=26)
    model, _ = _fitted(mdp, n=30)
    data = _uniform_data(mdp, n=8, seed=8, labeled=False)
    src, out = tmp_path / "wide.jsonl", tmp_path / "wide_out.jsonl"
    for shape in ({"num_states": 9}, {"num_actions": 3}):
        write_jsonl(OfflineDataset(data.states, data.actions, None, data.next_states,
                                   labeled=False, num_states=shape.get("num_states", 6),
                                   num_actions=shape.get("num_actions", 2)), src)
        with pytest.raises(ValueError, match="dataset shape exceeds feature table shape"):
            relabel_file(src, out, model, k_mode=0.0)
        assert not out.exists() and not header_path(out).exists()
    # a header no larger than the model's table is copied as before
    write_jsonl(data, src)
    relabel_file(src, out, model, k_mode=0.0)
    assert json.loads(header_path(out).read_text())["num_states"] == 6


def test_model_json_round_trip(tmp_path):
    mdp = make_lowrank_mdp(5, 2, dim=3, seed=25)
    model, _ = _fitted(mdp, n=40)
    path = tmp_path / "ensemble.json"
    save_ensemble(model, path)
    back = load_ensemble(path)
    assert np.array_equal(back.members, model.members)
    assert np.array_equal(back.features.phi, model.features.phi)
    assert (back.labeled_mean, back.nu, back.seed) == (model.labeled_mean, model.nu, model.seed)
    # the file holds only what the fit produced; no penalty weight is stored
    assert set(json.loads(path.read_text())) == {"members", "phi", "labeled_mean", "nu", "seed"}


def test_older_model_file_with_default_weight_settings_relabels_the_same(tmp_path):
    # files written before the weight moved to relabel time carry these keys
    mdp = make_lowrank_mdp(5, 3, dim=2, seed=28)
    model, _ = _fitted(mdp, n=60)
    older = tmp_path / "older.json"
    older.write_text(json.dumps(dict(model.to_dict(), penalty_k=None, auto_a=25.0,
                                     epsilon=1e-08)) + "\n")
    src = tmp_path / "in.jsonl"
    write_jsonl(_uniform_data(mdp, 40, seed=3, labeled=False), src)
    fresh_out, older_out = tmp_path / "fresh.jsonl", tmp_path / "older.jsonl"
    assert (relabel_file(src, fresh_out, model, k_mode="auto")
            == relabel_file(src, older_out, load_ensemble(older), k_mode="auto"))
    assert fresh_out.read_bytes() == older_out.read_bytes()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 9999),
    k=st.floats(0.0, 50.0),
    ell=st.integers(2, 8),
)
def test_pessimistic_estimate_bounds(seed, k, ell):
    rng = np.random.default_rng(seed)
    model = _toy_model(rng.normal(0.0, 1.0, size=(ell, 3)))
    val = _toy_estimate(model, k)
    assert 0.0 <= val <= max(model.member_table().min(), 0.0) + 1e-12
    assert val == pytest.approx(_pessimistic_reward(model, 0, 0, k), abs=1e-12)


@pytest.mark.parametrize("nu", [float("nan"), float("inf"), 0.0, -1.0])
def test_ensemble_requires_finite_positive_nu(nu):
    # inf fit an all-zero model and nan failed as "members must be finite"
    mdp = make_lowrank_mdp(4, 2, dim=2, seed=0)
    ds = _uniform_data(mdp, 20)
    with pytest.raises(ValueError, match="nu must be a finite positive number"):
        fit_ensemble(ds, mdp.features, ensemble_size=3, nu=nu)
    model = _toy_model([[0.1, 0.2], [0.3, 0.4]])
    with pytest.raises(ValueError, match="nu must be a finite positive number"):
        EnsembleRewardModel(model.members, model.features, model.labeled_mean, nu=nu)
