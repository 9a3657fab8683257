"""pdslab: pessimistic data sharing for offline RL on finite linear MDPs."""

from pdslab.data import (
    CoverageReport,
    OfflineDataset,
    coverage_coefficient,
    exhaustive_dataset,
    mix_datasets,
    occupancy_second_moment,
    occupancy_second_moments,
    quantize_transitions,
    read_jsonl,
    sample_dataset,
    sample_datasets,
    write_jsonl,
)
from pdslab.ensemble import (
    EnsembleRewardModel,
    fit_ensemble,
    gaussian_min_coefficient,
    load_ensemble,
    pessimistic_ensemble_reward,
    relabel_file,
    save_ensemble,
)
from pdslab.mdp import (
    FeatureMap,
    LinearMdp,
    Policy,
    ValueReport,
    evaluate_policy,
    load_mdp,
    make_adversarial_mdp,
    make_lowrank_mdp,
    make_tabular_mdp,
    save_mdp,
    solve_optimal,
    suboptimality,
)
from pdslab.pevi import (
    PeviConfig,
    PeviProblem,
    PeviSolution,
    bellman_gram,
    bellman_regress,
    bonus_table,
    pevi_lockstep,
    pevi_prepare,
    pevi_solve,
    theorem_beta,
    uncertainty_bonus,
)
from pdslab.pipeline import (
    MethodId,
    PeviSettings,
    RewardSettings,
    RunResult,
    SweepGrid,
    SweepReport,
    behavior_policy,
    markdown_summary,
    results_to_csv,
    run_method,
    sweep,
)
from pdslab.reward import (
    RewardModel,
    confidence_coverage_trial,
    deviation_table,
    fit_reward,
    lemma_alpha,
    pessimistic_reward,
    pessimistic_table,
    predicted_table,
    relabel,
    reward_deviation,
    theorem_alpha,
)
from pdslab.theory import (
    BoundInputs,
    PdsBound,
    bound_holds_rate,
    pds_bound,
    sbr_approx,
    sbr_exact,
    uds_bias,
)

__version__ = "0.1.0"
