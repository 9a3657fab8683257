"""Bound formulas, sharing-benefit ratios, and the zero-relabel bias."""
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from pdslab.data import OfflineDataset, sample_dataset
from pdslab.mdp import Policy, make_lowrank_mdp
from pdslab.theory import (
    BoundInputs,
    bound_holds_rate,
    pds_bound,
    sbr_approx,
    sbr_exact,
    uds_bias,
)

PINNED = BoundInputs(d=4, n0=10**3, n1=10**4, c0_dagger=0.5, c1_dagger=0.5,
                     gamma=0.9, r_max=1.0, delta=0.1, c=1.0)


def test_bound_frozen_golden():
    got = pds_bound(PINNED)
    assert got.offline_term == pytest.approx(88.12132980635434, rel=1e-12)
    assert got.reward_term == pytest.approx(24.042396593916926, rel=1e-12)
    assert got.total == pytest.approx(112.16372640027126, rel=1e-12)
    assert got.finite and got.note == ""


def test_bound_no_sharing_specialization():
    alone = pds_bound(replace(PINNED, n1=0))
    # with n1=0 both terms draw on the labeled mass only
    assert alone.total == pytest.approx(alone.offline_term + alone.reward_term)
    assert sbr_exact(replace(PINNED, n1=0)) == pytest.approx(1.0, rel=1e-12)


def test_bound_monotone_in_unlabeled_mass():
    one = pds_bound(PINNED).offline_term
    two = pds_bound(replace(PINNED, n1=2 * PINNED.n1)).offline_term
    assert two < one
    # nonincreasing along each axis on a grid where the log growth is subdominant
    for field, values in [
        ("n0", [500, 1000, 2000, 4000]),
        ("n1", [0, 1000, 10000, 100000]),
        ("c0_dagger", [0.1, 0.3, 0.5, 0.9]),
        ("c1_dagger", [0.1, 0.3, 0.5, 0.9]),
    ]:
        totals = [pds_bound(replace(PINNED, **{field: v})).total for v in values]
        assert all(b <= a + 1e-9 for a, b in zip(totals, totals[1:])), field


def test_bound_infinite_sentinel():
    starved = pds_bound(replace(PINNED, c0_dagger=0.0))
    assert not starved.finite
    assert starved.total == np.inf and starved.reward_term == np.inf
    assert np.isfinite(starved.offline_term)  # unlabeled mass still carries it
    assert "vacuous" in starved.note
    empty = pds_bound(replace(PINNED, n1=0, c0_dagger=0.0))
    assert empty.offline_term == np.inf


def test_sbr_limits():
    asymptote = 2.0 * (1.0 - PINNED.gamma) / np.sqrt(PINNED.d)
    assert sbr_approx(replace(PINNED, n1=0)) == pytest.approx(1.0 + asymptote, rel=1e-12)
    assert sbr_approx(PINNED) == pytest.approx(0.4015113445777636, rel=1e-12)
    huge = sbr_approx(replace(PINNED, n1=10**12))
    assert huge == pytest.approx(asymptote, abs=1e-4)
    with pytest.raises(ValueError):
        sbr_approx(replace(PINNED, c0_dagger=0.0))


def test_sbr_exact_tracks_approximation():
    # the approximation drops log factors; they should agree to 25% at
    # moderate sizes and d >= 4
    for n1 in (10**3, 10**4, 10**5):
        for d in (4, 8):
            inp = replace(PINNED, d=d, n1=n1)
            exact = sbr_exact(inp)
            approx = sbr_approx(inp)
            assert abs(exact - approx) / exact < 0.25, (d, n1, exact, approx)


def test_sbr_below_one_means_sharing_helps():
    assert sbr_exact(PINNED) < 1.0
    assert 0.0 < np.sqrt(
        PINNED.n0 * PINNED.c0_dagger
        / (PINNED.n0 * PINNED.c0_dagger + PINNED.n1 * PINNED.c1_dagger)
    ) <= 1.0


def test_uds_bias_trivial_cases():
    zero = OfflineDataset([0, 1], [0, 0], [0.0, 0.0], [0, 0], labeled=True,
                          num_states=2, num_actions=1)
    assert uds_bias(zero, n0=10) == 0.0
    half = OfflineDataset([0] * 4, [0] * 4, [0.5] * 4, [0] * 4, labeled=True,
                          num_states=1, num_actions=1)
    assert uds_bias(half, n0=4) == pytest.approx(0.25, abs=1e-15)


def test_uds_bias_matches_brute_force_mixture():
    mdp = make_lowrank_mdp(6, 3, dim=2, seed=8)
    pi = Policy.uniform(6, 3)
    d0 = sample_dataset(mdp, pi, n=30, seed=0)
    d1 = sample_dataset(mdp, pi, n=50, seed=1)
    # relabel-with-zeros error: labeled rows are exact, unlabeled rows lose |r|
    errors = np.concatenate([np.zeros(len(d0)), np.abs(d1.rewards)])
    assert uds_bias(d1, n0=len(d0)) == pytest.approx(errors.mean(), abs=1e-12)


def test_uds_bias_linear_in_unlabeled_fraction():
    mdp = make_lowrank_mdp(5, 2, dim=2, seed=3)
    d1 = sample_dataset(mdp, Policy.uniform(5, 2), n=40, seed=2)
    mean_abs = np.abs(d1.rewards).mean()
    for n0 in (0, 10, 40, 120):
        frac = len(d1) / (n0 + len(d1))
        assert uds_bias(d1, n0=n0) == pytest.approx(frac * mean_abs, rel=1e-12)
    unlab = sample_dataset(mdp, Policy.uniform(5, 2), n=5, seed=3, labeled=False)
    with pytest.raises(ValueError, match="true rewards"):
        uds_bias(unlab, n0=1)


def test_bound_holds_rate_counting():
    bound = pds_bound(PINNED).total
    runs = [
        SimpleNamespace(subopt_max=bound - 1.0),
        SimpleNamespace(subopt_max=bound + 1.0),
        bound / 2.0,          # plain numbers work too
        bound * 2.0,
    ]
    rate = bound_holds_rate(runs, [PINNED] * 4)
    assert rate == pytest.approx(0.5)
    loose = replace(PINNED, c=1000.0)
    assert bound_holds_rate([10.0] * 3, [loose] * 3) == 1.0
    with pytest.raises(ValueError, match="align"):
        bound_holds_rate([1.0], [PINNED, PINNED])
    with pytest.raises(ValueError, match="at least one"):
        bound_holds_rate([], [])


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        BoundInputs(d=0, n0=1, n1=0, c0_dagger=0.5, c1_dagger=0.5,
                    gamma=0.9, r_max=1.0, delta=0.1)
    with pytest.raises(ValueError):
        BoundInputs(d=4, n0=0, n1=0, c0_dagger=0.5, c1_dagger=0.5,
                    gamma=0.9, r_max=1.0, delta=0.1)
    with pytest.raises(ValueError):
        BoundInputs(d=4, n0=1, n1=0, c0_dagger=-0.1, c1_dagger=0.5,
                    gamma=0.9, r_max=1.0, delta=0.1)
    with pytest.raises(ValueError):
        BoundInputs(d=4, n0=1, n1=0, c0_dagger=0.5, c1_dagger=0.5,
                    gamma=1.0, r_max=1.0, delta=0.1)
    with pytest.raises(ValueError):
        BoundInputs(d=4, n0=1, n1=0, c0_dagger=0.5, c1_dagger=0.5,
                    gamma=0.9, r_max=1.0, delta=1.0)
    # every float field must be finite, and the error names it
    for field in ("c0_dagger", "c1_dagger", "gamma", "r_max", "delta", "c"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                replace(PINNED, **{field: value})
