"""Every public entry point holds its scalar arguments to one rule (mdp.require).

Each argument below is fed NaN, +inf, -inf and a bool, and each count also
2.5. Every one must raise a ValueError that names the argument, where
hand-written checks once let such values through: theorem_beta returned NaN
for a NaN r_max, lemma_alpha returned NaN for a negative count, BoundInputs
took d=2.5 and n0=True, make_tabular_mdp built an MDP whose r_max was True,
and sample_datasets failed inside numpy on n=True. Seeds are scalars too:
sample_dataset sampled seed=True as seed 1, and make_tabular_mdp recorded
it in an MDP that save_mdp wrote and load_mdp refused.
"""
import numpy as np
import pytest

from pdslab.data import sample_dataset, sample_datasets
from pdslab.ensemble import (
    EnsembleRewardModel,
    fit_ensemble,
    gaussian_min_coefficient,
    relabel_file,
)
from pdslab.mdp import (
    FeatureMap,
    LinearMdp,
    Policy,
    make_adversarial_mdp,
    make_lowrank_mdp,
    make_tabular_mdp,
    suboptimality,
)
from pdslab.pevi import PeviConfig, theorem_beta
from pdslab.reward import RewardModel, fit_reward, lemma_alpha, theorem_alpha
from pdslab.theory import BoundInputs, uds_bias


def _mdp():
    return make_lowrank_mdp(4, 2, dim=2, seed=0)


def _labeled():
    return sample_dataset(_mdp(), Policy.uniform(4, 2), n=20, seed=1)


def _model():
    return EnsembleRewardModel(np.zeros((2, 2)), FeatureMap(np.full((4, 2, 2), 0.5)), 0.5, 1.0)


# name: (call taking keyword arguments, valid keyword arguments, the counts among them)
ENTRY_POINTS = {
    "theorem_beta": (theorem_beta, dict(d=2, n_total=100, gamma=0.9, r_max=1.0, delta=0.1, c=1.0),
                     {"d", "n_total"}),
    "PeviConfig": (PeviConfig, dict(lambda_reg=1.0, beta=0.5, gamma=0.9, v_max=10.0, tol=1e-6,
                                    max_sweeps=50), {"max_sweeps"}),
    "lemma_alpha": (lemma_alpha, dict(dim=2, n_labeled=10, nu=1.0, delta=0.1, r_max=1.0),
                    {"dim", "n_labeled"}),
    "theorem_alpha": (theorem_alpha, dict(dim=2, n_labeled=10, delta=0.1, r_max=1.0),
                      {"dim", "n_labeled"}),
    "RewardModel": (RewardModel, dict(theta_hat=np.zeros(2), lambda_matrix=np.eye(2), alpha=2.0,
                                      nu=1.0, n_labeled=0, delta=0.1, r_max=1.0), {"n_labeled"}),
    "fit_reward": (lambda **kw: fit_reward(_labeled(), _mdp().features, **kw),
                   dict(nu=1.0, delta=0.1, r_max=1.0), set()),
    "BoundInputs": (BoundInputs, dict(d=4, n0=100, n1=0, c0_dagger=0.5, c1_dagger=0.5, gamma=0.9,
                                      r_max=1.0, delta=0.1, c=1.0), {"d", "n0", "n1"}),
    "LinearMdp": (LinearMdp, dict(features=FeatureMap(np.eye(2).reshape(1, 2, 2)),
                                  mu=np.ones((2, 1)), theta=np.array([0.5, 0.5]), gamma=0.9,
                                  r_max=1.0, init_dist=np.array([1.0]), seed=0), {"seed"}),
    "make_tabular_mdp": (make_tabular_mdp, dict(num_states=2, num_actions=2, gamma=0.9, r_max=1.0,
                                                seed=0), {"num_states", "num_actions", "seed"}),
    "make_lowrank_mdp": (make_lowrank_mdp, dict(num_states=3, num_actions=2, dim=2, gamma=0.9,
                                                r_max=1.0, seed=0),
                         {"num_states", "num_actions", "dim", "seed"}),
    "make_adversarial_mdp": (make_adversarial_mdp, dict(num_actions=3, dim=2, gamma=0.9, r_max=1.0),
                             {"num_actions", "dim"}),
    "mixed_with_uniform": (lambda **kw: Policy.uniform(2, 2).mixed_with_uniform(**kw),
                           dict(epsilon=0.5), set()),
    "suboptimality": (lambda **kw: suboptimality(_mdp(), Policy.uniform(4, 2), **kw),
                      dict(state=0), {"state"}),
    "sample_datasets": (lambda seed, **kw: sample_datasets(_mdp(), Policy.uniform(4, 2),
                                                           seeds=[0, seed], **kw),
                        dict(n=10, horizon_reset=5, noise=0.1, seed=1),
                        {"n", "horizon_reset", "seed"}),
    "gaussian_min_coefficient": (gaussian_min_coefficient, dict(ensemble_size=3),
                                 {"ensemble_size"}),
    "EnsembleRewardModel": (EnsembleRewardModel, dict(members=np.zeros((2, 2)),
                                                      features=FeatureMap(np.full((2, 1, 2), 0.5)),
                                                      labeled_mean=0.5, nu=1.0), set()),
    "fit_ensemble": (lambda **kw: fit_ensemble(_labeled(), _mdp().features, **kw),
                     dict(ensemble_size=3, nu=1.0, seed=0), {"ensemble_size", "seed"}),
    # k and a are checked before the input is read, so the paths need not exist
    "relabel_file": (lambda **kw: relabel_file("missing.jsonl", "out.jsonl", _model(), **kw),
                     dict(k_mode=1.0, auto_a=25.0), set()),
    "uds_bias": (lambda **kw: uds_bias(_labeled(), **kw), dict(n0=5), {"n0"}),
}
# the name an argument goes by in the message, where it is not the parameter's
MESSAGE_NAMES = {"k_mode": "k", "auto_a": "a"}
# noise=True asks for the default noise scale, so a bool is valid there
BOOL_VALID = {"noise"}

CASES = [
    (entry, arg, bad)
    for entry, (_, valid, counts) in ENTRY_POINTS.items()
    for arg in valid
    if isinstance(valid[arg], (int, float))
    for bad in (np.nan, np.inf, -np.inf, True, 2.5)
    if (bad is not True or arg not in BOOL_VALID) and (bad != 2.5 or arg in counts)
]


@pytest.mark.parametrize("entry,arg,bad", CASES,
                         ids=[f"{entry}-{arg}-{bad!r}" for entry, arg, bad in CASES])
def test_entry_point_refuses_a_bad_scalar_by_name(entry, arg, bad):
    call, valid, _ = ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{MESSAGE_NAMES.get(arg, arg)} must be"):
        call(**dict(valid, **{arg: bad}))


def test_negative_count_is_refused_not_turned_into_nan():
    # log(1 + n/(nu*d)) is NaN for n < -nu*d, which once came back as the radius
    with pytest.raises(ValueError, match="^n_labeled must be"):
        lemma_alpha(2, -5, 1.0, 0.1, 1.0)


def test_a_made_mdp_always_saves_a_file_that_loads(tmp_path):
    # make_tabular_mdp(2, 2, seed=True) once wrote "seed": true, which
    # load_mdp then refused; the makers draw from default_rng, which takes
    # no negative seed, and LinearMdp records what load_mdp reads back
    from pdslab.mdp import load_mdp, save_mdp

    with pytest.raises(ValueError, match="^seed must be a nonnegative integer, got True"):
        make_tabular_mdp(2, 2, seed=True)
    with pytest.raises(ValueError, match="^seed must be a nonnegative integer, got -1"):
        make_lowrank_mdp(3, 2, dim=2, seed=-1)
    call, valid, _ = ENTRY_POINTS["LinearMdp"]
    for mdp in (make_tabular_mdp(2, 2, seed=3), call(**dict(valid, seed=None)),
                call(**dict(valid, seed=-2))):
        save_mdp(mdp, tmp_path / "mdp.json")
        assert load_mdp(tmp_path / "mdp.json").seed == mdp.seed
