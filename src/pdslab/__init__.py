"""pdslab: pessimistic data sharing for offline RL on finite linear MDPs."""

from pdslab.data import (
    CoverageBases,
    CoverageReport,
    OfflineDataset,
    coverage_bases,
    coverage_coefficient,
    exhaustive_dataset,
    mix_datasets,
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
    bonus_table,
    pevi_lockstep,
    pevi_solve,
    theorem_beta,
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
    pessimistic_table,
    predicted_table,
    relabel,
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
