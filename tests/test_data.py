import json
import tracemalloc
from array import array

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import pdslab.data as data
from conftest import chain_mdp, clipped_lowrank_mdp
from pdslab.data import (
    OfflineDataset,
    coverage_coefficient,
    exhaustive_dataset,
    header_path,
    mix_datasets,
    occupancy_second_moments,
    quantize_transitions,
    read_jsonl,
    sample_dataset,
    sample_datasets,
    write_jsonl,
)
from pdslab.mdp import (
    FeatureMap,
    LinearMdp,
    Policy,
    _state_blocks,
    make_adversarial_mdp,
    make_lowrank_mdp,
    make_tabular_mdp,
    solve_optimal,
)
from pdslab.pevi import PeviConfig, pevi_problems
from pdslab.reward import fit_reward


def dataset_from_pairs(pairs, mdp):
    """Hand-built labeled dataset visiting the given (s, a) pairs (self-loop sp)."""
    s = np.array([p[0] for p in pairs])
    a = np.array([p[1] for p in pairs])
    return OfflineDataset(
        s, a, mdp.rewards[s, a], s,
        labeled=True, num_states=mdp.num_states, num_actions=mdp.num_actions,
    )


# ---- sampling ----------------------------------------------------------------


def test_single_state_next_state_is_state():
    mdp = make_tabular_mdp(1, 1, seed=0)
    ds = sample_dataset(mdp, Policy.uniform(1, 1), n=1, seed=3)
    assert len(ds) == 1
    assert ds.next_states[0] == ds.states[0] == 0


def test_unlabeled_strips_rewards(tabular_5x3):
    ds = sample_dataset(tabular_5x3, Policy.uniform(5, 3), n=20, labeled=False, seed=1)
    assert ds.rewards is None
    assert not ds.labeled


def test_labeled_rewards_are_exact(tabular_5x3):
    ds = sample_dataset(tabular_5x3, Policy.uniform(5, 3), n=50, seed=2)
    expected = tabular_5x3.rewards[ds.states, ds.actions]
    assert np.array_equal(ds.rewards, expected)


def test_noise_is_clipped_and_seeded(tabular_5x3):
    ds = sample_dataset(tabular_5x3, Policy.uniform(5, 3), n=300, seed=5, noise=0.5)
    assert ds.rewards.min() >= 0.0 and ds.rewards.max() <= tabular_5x3.r_max
    exact = tabular_5x3.rewards[ds.states, ds.actions]
    assert not np.array_equal(ds.rewards, exact)
    again = sample_dataset(tabular_5x3, Policy.uniform(5, 3), n=300, seed=5, noise=0.5)
    assert np.array_equal(ds.rewards, again.rewards)
    # noise=True means half-width 0.1 * r_max
    small = sample_dataset(tabular_5x3, Policy.uniform(5, 3), n=300, seed=5, noise=True)
    assert np.abs(np.clip(exact - small.rewards, None, None)).max() <= 0.1 + 1e-12


def test_sampler_determinism(tabular_5x3):
    a = sample_dataset(tabular_5x3, Policy.uniform(5, 3), n=100, seed=9)
    b = sample_dataset(tabular_5x3, Policy.uniform(5, 3), n=100, seed=9)
    c = sample_dataset(tabular_5x3, Policy.uniform(5, 3), n=100, seed=10)
    assert np.array_equal(a.states, b.states) and np.array_equal(a.next_states, b.next_states)
    assert not np.array_equal(a.states, c.states)


def test_empirical_frequencies_match_occupancy_oracle(tabular_5x3):
    # Oracle: expected visit frequency under horizon-H reset sampling is the
    # time average over t < H of the state marginal, times the policy.
    mdp, H, n = tabular_5x3, 100, 10_000
    pol = Policy.uniform(5, 3)
    p_pi = np.einsum("sa,sae->se", pol.probs, mdp.transitions)
    marginal = mdp.init_dist.copy()
    avg_state = np.zeros(5)
    for _ in range(H):
        avg_state += marginal / H
        marginal = p_pi.T @ marginal
    expected = avg_state[:, None] * pol.probs  # (S, A) cell probabilities

    ds = sample_dataset(mdp, pol, n=n, horizon_reset=H, seed=0)
    counts = np.zeros((5, 3))
    np.add.at(counts, (ds.states, ds.actions), 1.0)
    freq = counts / n
    se = np.sqrt(expected * (1 - expected) / n)
    assert np.all(np.abs(freq - expected) <= 3 * se + 1e-12)


def test_sample_parameter_errors(tabular_5x3):
    with pytest.raises(ValueError):
        sample_dataset(tabular_5x3, Policy.uniform(5, 3), n=0)
    with pytest.raises(ValueError):
        sample_dataset(tabular_5x3, Policy.uniform(5, 3), n=5, horizon_reset=0)
    with pytest.raises(ValueError):
        sample_dataset(tabular_5x3, Policy.uniform(4, 3), n=5)


def _same_dataset(a, b):
    return (all(np.array_equal(x, y) for x, y in ((a.states, b.states), (a.actions, b.actions),
                                                  (a.next_states, b.next_states)))
            and (a.rewards is None) == (b.rewards is None)
            and (a.rewards is None or np.array_equal(a.rewards, b.rewards))
            and a.labeled == b.labeled)


@pytest.mark.parametrize("n,horizon_reset",
                         [(7, 100), (7, 10**12), (250, 100), (300, 100), (40, 1), (23, 5)])
@pytest.mark.parametrize("labeled,noise", [(True, False), (True, 0.3), (False, False)])
@pytest.mark.parametrize("block_entries", [None, 10])
def test_batched_sampler_equals_one_seed_calls(tabular_5x3, monkeypatch, n, horizon_reset,
                                                labeled, noise, block_entries):
    # block_entries=10 splits the segments into blocks of one or two, so
    # blocks of full and of last (shorter) segments are both stepped; a
    # horizon_reset of 10**12 would need terabytes if it sized the rollout
    if block_entries is not None:
        monkeypatch.setattr(data, "_LOCKSTEP_BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(3)
    pol = Policy(rng.dirichlet(np.ones(3), size=5))
    seeds = [11, 0, 2**40, 7]
    batch = sample_datasets(tabular_5x3, pol, n, seeds, horizon_reset=horizon_reset,
                            labeled=labeled, noise=noise)
    assert len(batch) == len(seeds)
    for seed, got in zip(seeds, batch):
        alone = sample_dataset(tabular_5x3, pol, n, horizon_reset=horizon_reset,
                               labeled=labeled, seed=seed, noise=noise)
        assert len(got) == n and _same_dataset(got, alone)
    assert sample_datasets(tabular_5x3, pol, n, [], horizon_reset=horizon_reset) == []


def _nondecreasing_rows(rng, num_rows, width):
    """Cumulative sums of probability-like rows with many zero entries, so
    rows hold runs of equal values, plus rows drawn from a handful of levels."""
    steps = rng.random((num_rows, width)) * (rng.random((num_rows, width)) < 0.5)
    summed = np.cumsum(steps, axis=1) / max(1.0, steps.sum(axis=1).max())
    levels = np.sort(rng.integers(0, 4, size=(num_rows, width)) / 4.0, axis=1)
    return np.vstack([summed, levels, np.zeros((1, width)), np.ones((1, width))])


def test_blocked_draw_equals_searchsorted():
    """The two-level count is searchsorted(row, u, side="right") for every
    block size k on widths 1..70: equal runs, u equal to an entry, u below
    the first and beyond the last entry, widths that are perfect squares and
    multiples of k (where the last block is all padding)."""
    rng = np.random.default_rng(11)
    for width in range(1, 71):
        upper = _nondecreasing_rows(rng, 6, width)
        probes = np.concatenate([rng.choice(upper.ravel(), 40), rng.random(20),
                                 [-1.0, 0.0, 1.0, 2.0]])
        rows = np.repeat(np.arange(upper.shape[0]), probes.size)
        u = np.tile(probes, upper.shape[0])
        want = np.concatenate([np.searchsorted(row, probes, side="right") for row in upper])
        tables = [data._blocked_table(upper, k) for k in range(1, width + 1)]
        tables.append(data._draw_table(np.hstack([upper, np.ones((upper.shape[0], 1))])))
        for table in tables:
            assert np.array_equal(data._draw_rows(table, rows, u), want), (width, table.k)


def test_draw_table_blocks_only_wide_rows():
    def blocked(width):
        return data._draw_table(np.zeros((2, width + 1))).coarse is not None

    # the chain (S=4), lowrank S=6 and few-action policies search flat
    assert not any(blocked(w) for w in range(0, 14))
    assert all(blocked(w) for w in range(16, 400))
    table = data._draw_table(np.zeros((3, 401)))
    assert (table.k, table.fine.shape, table.coarse.shape) == (20, (3, 420), (3, 20))


# blocked lowrank rows (the first and last), the flat chain, and two MDPs that
# store their kernel: tabular (d >= S) and a clipped kernel (no factor); S = 300
# with A = 3 is not a whole number of build blocks
KERNEL_TABLE_MDPS = {
    "lowrank-50": lambda: make_lowrank_mdp(50, 3, dim=4, gamma=0.9, seed=7),
    "chain": chain_mdp,
    "tabular": lambda: make_tabular_mdp(7, 3, gamma=0.9, seed=11),
    "lowrank-clipped": clipped_lowrank_mdp,
    "lowrank-300": lambda: make_lowrank_mdp(300, 3, dim=5, gamma=0.9, seed=1),
}


@pytest.mark.parametrize("kind", sorted(KERNEL_TABLE_MDPS))
def test_kernel_table_equals_table_of_whole_kernel(kind):
    mdp = KERNEL_TABLE_MDPS[kind]()
    S, A = mdp.num_states, mdp.num_actions
    blocks = _state_blocks(S, A)
    assert blocks[-1][1] == S
    if kind == "lowrank-300":
        assert len(blocks) > 1 and S % (blocks[0][1] - blocks[0][0])
    want = data._draw_table(np.cumsum(mdp.transitions, axis=2).reshape(S * A, -1))
    got = data._kernel_table(mdp)
    assert (got.coarse is None) == (kind in ("chain", "tabular", "lowrank-clipped"))
    assert got.k == want.k and got.fine.flags.c_contiguous
    assert np.array_equal(got.fine, want.fine)
    assert (got.coarse is None and want.coarse is None) or np.array_equal(got.coarse, want.coarse)
    assert data._kernel_table(mdp) is got


def test_sampler_builds_the_kernel_table_once_per_mdp(monkeypatch):
    mdp = make_lowrank_mdp(50, 3, dim=4, gamma=0.9, seed=7)
    real, calls = LinearMdp.kernel_blocks, []
    monkeypatch.setattr(LinearMdp, "kernel_blocks",
                        lambda self: calls.append(self) or real(self))
    behavior = Policy.uniform(50, 3)
    first = sample_datasets(mdp, behavior, 120, [0, 1], horizon_reset=7)
    again = sample_datasets(mdp, behavior, 120, [0, 1], horizon_reset=7)
    assert calls == [mdp]
    for a, b in zip(first, again):
        assert np.array_equal(a.next_states, b.next_states)


def test_factored_kernel_and_its_table_are_built_a_block_at_a_time():
    """No S*A*S-sized temporary: building a factored MDP peaks well below
    its kernel's bytes, and its draw table below the table's bytes plus one
    kernel's."""
    S, A = 400, 4
    kernel_bytes = S * A * S * 8
    tracemalloc.start()
    try:
        mdp = make_lowrank_mdp(S, A, dim=8, gamma=0.9, seed=3)
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        table = data._kernel_table(mdp)
        table_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert mdp._factor is not None
    assert built < kernel_bytes / 2
    assert table_peak < table.fine.nbytes + table.coarse.nbytes + kernel_bytes / 2


# ---- mixing -------------------------------------------------------------------


def test_mix_concatenates_in_order(tabular_5x3):
    d = sample_dataset(tabular_5x3, Policy.uniform(5, 3), n=10, seed=0)
    both = mix_datasets(d, d)
    assert len(both) == 20
    assert both.labeled
    assert np.array_equal(both.states[:10], d.states)
    assert np.array_equal(both.states[10:], d.states)
    assert np.array_equal(both.rewards[:10], d.rewards)


def test_mix_labeled_with_unlabeled(tabular_5x3):
    lab = sample_dataset(tabular_5x3, Policy.uniform(5, 3), n=5, seed=0)
    unlab = sample_dataset(tabular_5x3, Policy.uniform(5, 3), n=7, labeled=False, seed=1)
    both = mix_datasets(lab, unlab)
    assert not both.labeled
    assert np.array_equal(both.rewards[:5], lab.rewards)
    assert np.isnan(both.rewards[5:]).all()


def test_mix_errors(tabular_5x3):
    d = sample_dataset(tabular_5x3, Policy.uniform(5, 3), n=5, seed=0)
    other = sample_dataset(make_tabular_mdp(4, 3, seed=0), Policy.uniform(4, 3), n=5, seed=0)
    empty = OfflineDataset([], [], None, [], labeled=False, num_states=5, num_actions=3)
    with pytest.raises(ValueError, match="shapes differ"):
        mix_datasets(d, other)
    with pytest.raises(ValueError, match="nonempty"):
        mix_datasets(d, empty)


# ---- occupancy second moment ---------------------------------------------------


def test_occupancy_single_pair_is_rank_one():
    phi = np.array([[[0.6, 0.8]]])  # single state, single action, ||phi|| = 1
    mdp = LinearMdp(
        features=FeatureMap(phi),
        mu=np.array([[1.0 / 3.0], [1.0]]),   # <phi, mu> = 0.2 + 0.8 = 1
        theta=np.array([0.5, 0.5]),
        gamma=0.9,
        r_max=1.0,
        init_dist=np.array([1.0]),
    )
    sigma = occupancy_second_moments(mdp, Policy.uniform(1, 1))[0]
    np.testing.assert_allclose(sigma, np.outer(phi[0, 0], phi[0, 0]), atol=1e-12)


def test_occupancy_adversarial_proportional_to_identity():
    mdp = make_adversarial_mdp(5, 2, gamma=0.9)
    pol = Policy(np.array([[0.5, 0.5, 0.0, 0.0, 0.0]]))
    sigma = occupancy_second_moments(mdp, pol)[0]
    np.testing.assert_allclose(sigma, mdp.feature_scale**2 * np.eye(2), atol=1e-12)
    one_d = make_adversarial_mdp(3, 1, gamma=0.9)
    sigma1 = occupancy_second_moments(one_d, Policy(np.array([[1.0, 0.0, 0.0]])))[0]
    np.testing.assert_allclose(sigma1, [[1.0]], atol=1e-12)


def test_occupancy_spectrum_and_trace_bounds():
    rng = np.random.default_rng(4)
    for _ in range(20):
        mdp = make_tabular_mdp(4, 3, gamma=float(rng.uniform(0, 0.95)), seed=int(rng.integers(1 << 30)))
        probs = rng.dirichlet(np.ones(3), size=4)
        pol = Policy(probs / probs.sum(axis=1, keepdims=True))
        sigma = occupancy_second_moments(mdp, pol)[int(rng.integers(4))]
        eigs = np.linalg.eigvalsh(sigma)
        assert eigs.min() >= -1e-12
        assert eigs.max() <= 1.0 + 1e-9
        assert np.trace(sigma) <= 1.0 + 1e-9


# ---- coverage coefficient -------------------------------------------------------


def test_coverage_handcrafted_value_on_adversarial():
    # 30% action 0, 30% action 1, 40% barycenter action: the Gram matrix is
    # [[0.4, 0.1], [0.1, 0.4]] against Sigma = I/2, so C-dagger = 0.6.
    mdp = make_adversarial_mdp(3, 2, gamma=0.9)
    pairs = [(0, 0)] * 3 + [(0, 1)] * 3 + [(0, 2)] * 4
    ds = dataset_from_pairs(pairs, mdp)
    pol = Policy(np.array([[0.5, 0.5, 0.0]]))
    rep = coverage_coefficient(ds, mdp, pol)
    np.testing.assert_allclose(rep.gram, [[0.4, 0.1], [0.1, 0.4]], atol=1e-12)
    assert rep.c_dagger == pytest.approx(0.6, abs=1e-10)
    # independent oracle: scipy generalized eigenproblem on the full space
    sigma = occupancy_second_moments(mdp, pol)[0]
    oracle = scipy.linalg.eigh(rep.gram, sigma, eigvals_only=True).min()
    assert rep.c_dagger == pytest.approx(oracle, abs=1e-10)


def test_coverage_of_optimal_data_approaches_one():
    mdp = make_adversarial_mdp(4, 2, gamma=0.9)
    pol = Policy(np.array([[0.5, 0.5, 0.0, 0.0]]))
    ds = sample_dataset(mdp, pol, n=20_000, seed=0)
    rep = coverage_coefficient(ds, mdp, pol)
    assert rep.c_dagger == pytest.approx(1.0, abs=0.03)


def test_coverage_matches_exact_mixture_oracle(tabular_5x3):
    # With lots of data from pi*, the Gram approaches the init-mixture of
    # occupancy matrices; compare C-dagger against that exact limit.
    mdp = tabular_5x3
    pistar, _ = solve_optimal(mdp)
    sigmas = list(occupancy_second_moments(mdp, pistar))
    m_exact = sum(mdp.init_dist[s] * sigmas[s] for s in range(5))

    def min_gen_eig(m, sigma):
        w, u = np.linalg.eigh(sigma)
        keep = w > 1e-10
        basis = u[:, keep] / np.sqrt(w[keep])
        return max(0.0, np.linalg.eigvalsh(basis.T @ m @ basis).min())

    c_exact = min(min_gen_eig(m_exact, s) for s in sigmas)
    ds = sample_dataset(mdp, pistar, n=40_000, horizon_reset=200, seed=1)
    rep = coverage_coefficient(ds, mdp, pistar)
    assert rep.c_dagger == pytest.approx(c_exact, abs=0.05)
    assert rep.per_start_state_values.shape == (5,)
    assert rep.c_dagger == pytest.approx(np.min(rep.per_start_state_values), abs=0)


def test_coverage_zero_when_needed_action_missing(tabular_5x3):
    mdp = tabular_5x3
    pistar, _ = solve_optimal(mdp)
    ds = sample_dataset(mdp, pistar, n=2_000, seed=3)
    star_actions = np.argmax(pistar.probs, axis=1)
    # drop every sample of state 0's optimal action
    keep = ~((ds.states == 0) & (ds.actions == star_actions[0]))
    pruned = OfflineDataset(
        ds.states[keep], ds.actions[keep], ds.rewards[keep], ds.next_states[keep],
        labeled=True, num_states=5, num_actions=3,
    )
    rep = coverage_coefficient(pruned, mdp, pistar)
    assert rep.c_dagger <= 1e-12


def test_coverage_scale_consistency(tabular_5x3):
    ds = sample_dataset(tabular_5x3, Policy.uniform(5, 3), n=500, seed=7)
    pistar, _ = solve_optimal(tabular_5x3)
    once = coverage_coefficient(ds, tabular_5x3, pistar)
    twice = coverage_coefficient(mix_datasets(ds, ds), tabular_5x3, pistar)
    assert abs(once.c_dagger - twice.c_dagger) <= 1e-12


def test_coverage_monotone_under_optimal_augmentation():
    hits = 0
    trials = 40
    for k in range(trials):
        mdp = make_tabular_mdp(3, 2, gamma=0.9, seed=1000 + k)
        pistar, _ = solve_optimal(mdp)
        base = sample_dataset(mdp, Policy.uniform(3, 2), n=60, seed=k)
        extra = sample_dataset(mdp, pistar, n=120, seed=5000 + k)
        c0 = coverage_coefficient(base, mdp, pistar).c_dagger
        c1 = coverage_coefficient(mix_datasets(base, extra), mdp, pistar).c_dagger
        hits += c1 >= c0 - 1e-9
    assert hits >= 0.95 * trials


def test_coverage_requires_nonempty(tabular_5x3):
    empty = OfflineDataset([], [], None, [], labeled=False, num_states=5, num_actions=3)
    pistar, _ = solve_optimal(tabular_5x3)
    with pytest.raises(ValueError, match="nonempty"):
        coverage_coefficient(empty, tabular_5x3, pistar)


@pytest.mark.parametrize("seed", range(5))
def test_a_dataset_is_its_visit_counts(seed):
    """phi depends only on (s, a), so every Gram of a dataset is a function
    of its visit counts, and every PEVI problem field a function of its
    (s, a, s') counts and per-pair reward sums: reordering the rows leaves
    Lambda, the coverage Gram and every field of the PEVI problems with the
    same bits. The per-pair sums are added in row order, so the noisy
    rewards' w_reward is left out; the noiseless rewards, one value per
    pair, sum to the same bits in any order."""
    mdp = make_lowrank_mdp(6, 3, dim=3, gamma=0.9, seed=seed)
    ds = sample_dataset(mdp, Policy.uniform(6, 3), 3000, seed=seed, noise=True)
    order = np.random.default_rng(seed).permutation(len(ds))
    shuffled = OfflineDataset(ds.states[order], ds.actions[order], ds.rewards[order],
                              ds.next_states[order], labeled=True, num_states=6, num_actions=3)
    pistar, _ = solve_optimal(mdp)
    cfg = PeviConfig.for_mdp(mdp.gamma, mdp.r_max, beta=0.3)
    got, want = ([fit_reward(d, mdp.features).lambda_matrix,
                  coverage_coefficient(d, mdp, pistar).gram,
                  coverage_coefficient(d, mdp, pistar).c_dagger,
                  *pevi_problems(mdp.features, d.counts(mdp.features),
                                 [d.counts(mdp.features).reward_sums,
                                  mdp.features.pair_sums(d.pair_ids(mdp.features),
                                                         mdp.rewards[d.states, d.actions])],
                                 cfg)]
                 for d in (shuffled, ds))
    for g, w in zip(got[:3], want[:3]):
        assert np.array_equal(g, w)
    for g, w in zip(got[3:], want[3:]):
        assert g.config == w.config
        for name in ("lambda_matrix", "sweep_map", "bonus"):
            assert np.array_equal(getattr(g, name), getattr(w, name)), name
    assert np.array_equal(got[4].w_reward, want[4].w_reward)


@pytest.mark.parametrize("seed", range(3))
def test_a_sweep_row_set_is_its_transition_counts(seed):
    """Permuting d0's and d1's rows leaves every method's PEVI problem on
    d0 and on d0 then d1 with the same bits. d0's rewards are noiseless,
    one value per pair, so its row-order per-pair sums do not depend on the
    order either."""
    from pdslab.pipeline import MethodId, PeviSettings, RewardSettings, _prepare_methods

    mdp = make_lowrank_mdp(6, 3, dim=3, gamma=0.9, seed=seed)
    pi = Policy.uniform(6, 3)
    d0 = sample_dataset(mdp, pi, 300, seed=seed)
    d1 = sample_dataset(mdp, pi, 2000, seed=seed + 10, labeled=False)
    rng = np.random.default_rng(seed)

    def permuted(d):
        order = rng.permutation(len(d))
        return OfflineDataset(d.states[order], d.actions[order],
                              None if d.rewards is None else d.rewards[order],
                              d.next_states[order], labeled=d.labeled, num_states=6,
                              num_actions=3)

    methods = tuple(MethodId)
    got, want = (_prepare_methods(mdp, a, b, methods, RewardSettings(),
                                  PeviSettings(c=0.05), seed, None)
                 for a, b in ((permuted(d0), permuted(d1)), (d0, d1)))
    for g, w in zip(got, want):
        assert g.method is w.method and g.problem.config == w.problem.config
        for name in ("lambda_matrix", "sweep_map", "w_reward", "bonus"):
            assert np.array_equal(getattr(g.problem, name), getattr(w.problem, name)), name


def test_a_five_method_cell_reduces_each_dataset_once(monkeypatch):
    """The reward fit, both coverage coefficients and both row sets' PEVI
    problems read d0 and d1 through their kept counts, so each dataset's
    rows are read once per cell."""
    from pdslab.pipeline import MethodId, PeviSettings, RewardSettings, _prepare_methods

    mdp = make_lowrank_mdp(6, 3, dim=3, gamma=0.9, seed=1)
    pi = Policy.uniform(6, 3)
    d0 = sample_dataset(mdp, pi, 300, seed=1)
    d1 = sample_dataset(mdp, pi, 2000, seed=2, labeled=False)
    reads = {id(d0): 0, id(d1): 0}
    pair_ids = OfflineDataset.pair_ids

    def counted(self, features):
        reads[id(self)] += 1
        return pair_ids(self, features)

    monkeypatch.setattr(OfflineDataset, "pair_ids", counted)
    outcomes = _prepare_methods(mdp, d0, d1, tuple(MethodId), RewardSettings(),
                                PeviSettings(c=0.05), 0, None)
    assert not any(isinstance(o, Exception) for o in outcomes)
    assert reads == {id(d0): 1, id(d1): 1}


@pytest.mark.parametrize("seed", range(3))
def test_union_of_counts_is_the_mixed_datasets_counts(seed):
    """d0's counts then d1's merge to the counts of mix_datasets(d0, d1),
    whose reward sums differ only in the order the rewards are added."""
    mdp = make_lowrank_mdp(6, 3, dim=3, gamma=0.9, seed=seed)
    pi = Policy.uniform(6, 3)
    features = mdp.features
    a = sample_dataset(mdp, pi, 300, seed=seed, noise=True)
    unlabeled = sample_dataset(mdp, pi, 500, seed=seed + 10, labeled=False)
    partial = mix_datasets(sample_dataset(mdp, pi, 200, seed=seed + 20), unlabeled)
    for b in (unlabeled, partial):
        got = a.counts(features).union(b.counts(features))
        want = mix_datasets(a, b).counts(features)
        for name in ("visits", "missing", "transitions", "counts"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert getattr(got, name).dtype == getattr(want, name).dtype, name
        assert np.allclose(got.reward_sums, want.reward_sums, rtol=1e-12, atol=0)


def test_counts_are_kept_per_feature_shape():
    """A dataset of A = 2 actions under feature maps with 2 and 3 actions
    has pair ids s*A + a and transition ids (s*A + a)*S + s' in each map's
    own A, and each shape keeps its own record."""
    ds = OfflineDataset([0, 1, 1], [1, 0, 1], [0.5, 0.25, 1.0], [1, 0, 1], labeled=True,
                        num_states=2, num_actions=2)
    narrow = FeatureMap(np.full((2, 2, 1), 0.5))
    wide = FeatureMap(np.full((2, 3, 1), 0.5))
    small, large = ds.counts(narrow), ds.counts(wide)
    assert small.visits.tolist() == [0, 1, 1, 1]
    assert large.visits.tolist() == [0, 1, 0, 1, 1, 0]
    assert small.transitions.tolist() == [3, 4, 7] and small.counts.tolist() == [1, 1, 1]
    assert large.transitions.tolist() == [3, 6, 9] and large.counts.tolist() == [1, 1, 1]
    assert large.reward_sums.tolist() == [0.0, 0.5, 0.0, 0.25, 1.0, 0.0]
    assert ds.counts(narrow) is small and ds.counts(wide) is large
    with pytest.raises(ValueError, match="read-only"):
        small.visits[0] = 1


# ---- exact-frequency fixtures ----------------------------------------------------


def test_quantize_and_exhaustive_dataset(tabular_5x3):
    q = quantize_transitions(tabular_5x3, 200)
    np.testing.assert_allclose(q.transitions.sum(axis=2), 1.0, atol=1e-12)
    assert np.abs(q.transitions * 200 - np.rint(q.transitions * 200)).max() <= 1e-9
    ds = exhaustive_dataset(q, 200)
    assert len(ds) == 5 * 3 * 200
    counts = np.zeros((5, 3, 5))
    np.add.at(counts, (ds.states, ds.actions, ds.next_states), 1.0)
    np.testing.assert_allclose(counts / 200, q.transitions, atol=0)
    assert np.array_equal(ds.rewards, q.rewards[ds.states, ds.actions])


def test_exhaustive_requires_integral_counts(tabular_5x3):
    with pytest.raises(ValueError, match="integral"):
        exhaustive_dataset(tabular_5x3, 7)


# ---- serialization -----------------------------------------------------------------


def _json_dumps_lines(ds) -> str:
    """The file text json.dumps writes for ds, one record per line."""
    rewards = [None] * len(ds) if ds.rewards is None else ds.rewards.tolist()
    return "".join(
        json.dumps({"s": s, "a": a, "r": None if r is None or np.isnan(r) else r, "sp": sp}) + "\n"
        for s, a, r, sp in zip(ds.states.tolist(), ds.actions.tolist(), rewards,
                               ds.next_states.tolist())
    )


def test_jsonl_round_trip(tmp_path, tabular_5x3):
    # noise twice r_max clips many rewards to exactly 0.0 and r_max
    for labeled, noise in ((True, False), (False, False), (True, 2.0 * tabular_5x3.r_max)):
        ds = sample_dataset(tabular_5x3, Policy.uniform(5, 3), n=25, labeled=labeled, seed=11,
                            noise=noise)
        path = tmp_path / f"d{labeled}{noise}.jsonl"
        write_jsonl(ds, path, mdp_hash=tabular_5x3.content_hash(), seed=11)
        assert path.read_text() == _json_dumps_lines(ds)
        if noise:
            assert {0.0, tabular_5x3.r_max} <= set(ds.rewards.tolist())
        back = read_jsonl(path)
        assert len(back) == 25
        assert back.labeled == labeled
        assert np.array_equal(back.states, ds.states)
        assert np.array_equal(back.next_states, ds.next_states)
        if labeled:
            assert np.array_equal(back.rewards, ds.rewards)
        else:
            assert back.rewards is None
        header = json.loads(header_path(path).read_text())
        assert header == {"mdp_hash": tabular_5x3.content_hash(), "seed": 11,
                          "labeled": labeled, "num_states": 5, "num_actions": 3, "n": 25}
    # a file cut short no longer matches its header's count
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:3]))
    with pytest.raises(ValueError, match=r"n=25 .* 3 transitions"):
        read_jsonl(path)


def test_jsonl_mixed_labels_round_trip(tmp_path, tabular_5x3):
    lab = sample_dataset(tabular_5x3, Policy.uniform(5, 3), n=4, seed=0)
    unlab = sample_dataset(tabular_5x3, Policy.uniform(5, 3), n=3, labeled=False, seed=1)
    both = mix_datasets(lab, unlab)
    path = tmp_path / "mixed.jsonl"
    write_jsonl(both, path)
    assert path.read_text() == _json_dumps_lines(both)
    back = read_jsonl(path)
    assert not back.labeled
    assert np.array_equal(back.rewards[:4], lab.rewards)
    assert np.isnan(back.rewards[4:]).all()


def test_jsonl_malformed_line_names_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    # a missing field, rewards that are not finite and nonnegative, ids that are
    # not JSON integers (or do not fit int64) and rewards that are not numbers
    for second_line in ('{"s": 0, "a": 0}', '{"s": 0, "a": 0, "r": NaN, "sp": 0}',
                        '{"s": 0, "a": 0, "r": Infinity, "sp": 0}',
                        '{"s": 0, "a": 0, "r": -Infinity, "sp": 0}',
                        '{"s": 0, "a": 0, "r": -0.5, "sp": 0}',
                        '{"s": 1.9, "a": 0, "r": null, "sp": 0}',
                        '{"s": 0, "a": true, "r": null, "sp": 0}',
                        '{"s": 0, "a": 0, "r": null, "sp": "2"}',
                        '{"s": 0, "a": 0, "r": true, "sp": 0}',
                        '{"s": 0, "a": 0, "r": "0.5", "sp": 0}',
                        '{"s": 99999999999999999999, "a": 0, "r": null, "sp": 0}'):
        path.write_text('{"s": 0, "a": 0, "r": null, "sp": 0}\n' + second_line + "\n")
        with pytest.raises(ValueError, match="malformed transition at line 2"):
            read_jsonl(path)


def test_jsonl_rounding_negative_reward_reads_as_zero(tmp_path):
    path = tmp_path / "tiny.jsonl"
    path.write_text('{"s": 0, "a": 0, "r": -1e-13, "sp": 0}\n')
    assert read_jsonl(path).rewards.tolist() == [0.0]


def test_jsonl_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    back = read_jsonl(path)
    assert len(back) == 0


def _per_line_columns(path):
    """The per-line json parser run over the whole file in one call."""
    columns = (array("q"), array("q"), array("d"), array("q"), array("q"))
    with open(path) as fh:
        data._append_lines(fh.readlines(), 1, columns)
    return tuple(np.asarray(c) for c in columns)


def _read_outcome(read, path):
    try:
        return "ok", read(path)
    except ValueError as exc:
        return "error", str(exc)


def _canonical_line(s, a, r, sp):
    """A line as write_transitions writes it; a str r is written as it is."""
    token = "null" if r is None else r if isinstance(r, str) else repr(r)
    return f'{{"s": {s}, "a": {a}, "r": {token}, "sp": {sp}}}'


# lines that are not canonical: json accepts some of them, which must read the
# same, and rejects the others, which must fail with the same message
_MUTATED_LINES = (
    "", " ", "\t \t",
    '{"s": 1, "a": 0, "r": null, "sp": 2}\x85',
    '{"s": 1, "a": 0, "r": null,\u2028"sp": 2}',
    '{"s": 1, "a": 0, "r": 0.5, "sp": 2, "note": "\x85\u2028"}',
    '{"s": 1, "a": 0, "r": null, "sp": 2}',
    '{"a": 0, "s": 1, "r": null, "sp": 2}',
    '{"s": 1, "s": 3, "a": 0, "r": null, "sp": 2}',
    '{"\\u0073": 1, "a": 0, "r": null, "sp": 2}',
    '{"s":1,"a":0,"r":0.5,"sp":2}',
    '{ "s": 1, "a": 0, "r": 0.5, "sp": 2 } ',
    '{"s": 01, "a": 0, "r": null, "sp": 2}',
    '{"s": 1, "a": 00, "r": null, "sp": 2}',
    '{"s": 1234567890123456789, "a": 0, "r": null, "sp": 2}',
    '{"s": 9223372036854775807, "a": 0, "r": null, "sp": 2}',
    '{"s": 9223372036854775808, "a": 0, "r": null, "sp": 2}',
    '{"s": 12345678901234567890, "a": 0, "r": null, "sp": 2}',
    '{"s": 1, "a": 0, "r": 1, "sp": 2}',
    '{"s": 1, "a": 0, "r": -0, "sp": 2}',
    '{"s": 1, "a": 0, "r": -0.0, "sp": 2}',
    '{"s": 1, "a": 0, "r": -1e-13, "sp": 2}',
    '{"s": 1, "a": 0, "r": -0.5, "sp": 2}',
    '{"s": 1, "a": 0, "r": 1e400, "sp": 2}',
    '{"s": 1, "a": 0, "r": -1e400, "sp": 2}',
    '{"s": 1, "a": 0, "r": NaN, "sp": 2}',
    '{"s": 1, "a": 0, "r": Infinity, "sp": 2}',
    '{"s": 1, "a": 0, "r": 2.5E+3, "sp": 2}',
    '{"s": -1, "a": 0, "r": null, "sp": 2}',
    '{"s": 1, "a": 0, "r": null}',
)

# the largest ids the canonical pattern takes (18 digits) and one past 2^53,
# which a float could not hold
_ids = st.integers(0, 10**18 - 1) | st.sampled_from([10**18 - 1, 2**53 + 1])
_canonical_lines = st.builds(
    _canonical_line,
    _ids, st.integers(0, 50),
    st.none() | st.floats(0.0, 1e6, allow_nan=False) | st.floats(1e-300, 1e300)
    | st.floats(0.0, 2.2250738585072014e-308)  # zero and the subnormals
    | st.sampled_from([0.0, -0.0, -1e-13, 5e-324, 1e16, 1e22, 1.5e-7, 0.30000000000000004,
                       1.0000000000000002, 2.2250738585072014e-308, 1.7976931348623157e308])
    # canonical tokens that repr never writes: one that overflows to inf, so
    # the block falls back and the line is rejected, and ones that round
    | st.sampled_from(["1e400", "2.2250738585072011e-308", "0.1000000000000000055511151231257827",
                       "1E-7", "4e-324", "2e-324", "-0.0", "1.79769313486231581e308"]),
    _ids,
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_canonical_lines | st.sampled_from(_MUTATED_LINES), max_size=12),
       endings=st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]), min_size=12, max_size=12),
       final_newline=st.booleans(),
       block_chars=st.just(1) | st.integers(1, 200) | st.just(1 << 16))
def test_block_reader_agrees_with_per_line_parser(tmp_path_factory, lines, endings, final_newline,
                                                  block_chars):
    text = "".join(line + end for line, end in zip(lines, endings))
    if lines and not final_newline:
        text = text[:-len(endings[len(lines) - 1])]
    path = tmp_path_factory.mktemp("mixed") / "t.jsonl"
    path.write_bytes(text.encode())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "_READ_BLOCK_CHARS", block_chars)
        got = _read_outcome(data.read_transitions, path)
    want = _read_outcome(_per_line_columns, path)
    assert got[0] == want[0]
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        for g, w in zip(got[1], want[1]):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_bad_canonical_line_in_later_block_names_its_line(tmp_path, monkeypatch):
    path = tmp_path / "late.jsonl"
    lines = [_canonical_line(i, 0, 0.25, i) for i in range(40)]
    lines[33] = _canonical_line(33, 0, -0.5, 33)
    path.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(data, "_READ_BLOCK_CHARS", 100)
    with pytest.raises(ValueError, match="malformed transition at line 34: reward"):
        data.read_transitions(path)


def test_written_files_read_without_the_per_line_parser(tmp_path, monkeypatch, tabular_5x3):
    lab = sample_dataset(tabular_5x3, Policy.uniform(5, 3), n=3000, seed=3, noise=True)
    unlab = sample_dataset(tabular_5x3, Policy.uniform(5, 3), n=2000, labeled=False, seed=4)
    both = mix_datasets(lab, unlab)
    path = tmp_path / "written.jsonl"
    write_jsonl(both, path)
    want = _per_line_columns(path)

    def refuse(*args):
        raise AssertionError("a canonical file fell back to the per-line parser")

    monkeypatch.setattr(data, "_append_lines", refuse)
    got = data.read_transitions(path)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    back = read_jsonl(path)
    assert np.array_equal(back.states, both.states)
    assert np.array_equal(back.rewards, both.rewards, equal_nan=True)


def _per_line_write(path, states, actions, rewards, next_states):
    """The per-line writer: one f-string per record, repr of each reward."""
    with open(path, "w") as fh:
        fh.writelines(f'{{"s": {s}, "a": {a}, "r": {"null" if r != r else repr(r)}, "sp": {sp}}}\n'
                      for s, a, r, sp in zip(states.tolist(), actions.tolist(), rewards.tolist(),
                                             next_states.tolist()))


def test_block_writer_equals_per_line_writer(tmp_path):
    # more than two blocks of table rewards and unique rewards, with 0.0 next
    # to -0.0 and NaNs of several payloads and both signs in one block
    rng = np.random.default_rng(29)
    n = 2 * data._WRITE_BLOCK_ROWS + 1234
    states, actions = rng.integers(0, 10**18, n), rng.integers(0, 7, n)
    next_states = rng.integers(0, 40, n)
    rewards = rng.random(17)[rng.integers(0, 17, n)]
    unique = rng.random(n) < 0.3
    rewards[unique] = 10.0 ** rng.uniform(-320, 300, int(unique.sum()))
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001,
                     0xFFF8000000000000, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64)
    for lo in (0, data._WRITE_BLOCK_ROWS + 500):
        rewards[lo:lo + 40] = np.tile([0.0, -0.0, 0.0, 1.0], 10)
        rewards[lo + 40:lo + 90] = nans[np.arange(50) % len(nans)]
    rewards[rng.choice(n, 200, replace=False)] = rng.choice(nans, 200)
    got, want = tmp_path / "blocked.jsonl", tmp_path / "per_line.jsonl"
    data.write_transitions(got, states, actions, rewards, next_states)
    _per_line_write(want, states, actions, rewards, next_states)
    assert got.read_bytes() == want.read_bytes()
    first = got.read_text().splitlines()[:4]
    assert [json.loads(line)["r"] for line in first] == [0.0, -0.0, 0.0, 1.0]
    assert '"r": -0.0,' in first[1]


# ---- dataset validation --------------------------------------------------------------


def test_dataset_id_validation():
    with pytest.raises(ValueError, match="state id"):
        OfflineDataset([5], [0], None, [0], labeled=False, num_states=5, num_actions=3)
    with pytest.raises(ValueError, match="action id"):
        OfflineDataset([0], [3], None, [0], labeled=False, num_states=5, num_actions=3)
    with pytest.raises(ValueError, match="reward"):
        OfflineDataset([0], [0], None, [0], labeled=True, num_states=5, num_actions=3)


@pytest.mark.parametrize("labeled", [True, False])
@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_infinite_rewards_are_refused(labeled, bad):
    # NaN marks a missing label; an infinite reward is an error, which a
    # reward fit would otherwise turn into an all-NaN theta_hat
    with pytest.raises(ValueError, match="finite"):
        OfflineDataset([0, 1, 2], [0, 1, 0], [0.5, bad, 0.2], [1, 2, 0], labeled=labeled,
                       num_states=3, num_actions=2)
    partial = OfflineDataset([0, 1], [0, 1], [0.5, np.nan], [1, 2], labeled=False,
                             num_states=3, num_actions=2)
    assert np.isnan(partial.rewards[1])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 40), labeled=st.booleans())
def test_sampled_datasets_are_in_range(seed, n, labeled):
    mdp = make_tabular_mdp(3, 2, gamma=0.8, seed=7)
    ds = sample_dataset(mdp, Policy.uniform(3, 2), n=n, labeled=labeled, seed=seed, noise=0.2)
    assert ds.states.max() < 3 and ds.actions.max() < 2
    if labeled:
        assert ds.rewards.min() >= 0.0 and ds.rewards.max() <= mdp.r_max
    else:
        assert ds.rewards is None
