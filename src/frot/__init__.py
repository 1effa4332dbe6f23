"""Feature-robust optimal transport.

A numpy/scipy library for optimal transport with grouped features:
entropic (Sinkhorn) and exact transport solvers, a min-max solver that is
robust to uninformative feature groups (Frank-Wolfe and exact LP paths),
robust Wasserstein distances, and transport-based feature selection.
"""

__version__ = "0.1.0"

from .distances import FrwdResult, frwd_distance, srw_equivalence_check, wasserstein_p
from .feature_selection import (
    FeatureRanking,
    baseline_rank,
    frot_feature_importance,
    select_top_k,
)
from .measures import (
    GroupedCost,
    GroupedMeasure,
    TransportPlan,
    build_grouped_cost,
    build_grouped_measure,
    load_measure_csv,
    load_measure_json,
    save_measure_csv,
    save_measure_json,
)
from .minmax import (
    FrotConfig,
    FrotLpResult,
    FrotSolution,
    alpha_weights,
    frot_fw_solve,
    frot_gradient,
    frot_lp_solve,
    fw_convergence_bound,
    group_costs,
    smoothed_max_objective,
)
from .solvers import (
    EmdResult,
    SinkhornConfig,
    SinkhornResult,
    SolverFailure,
    emd_exact_solve,
    sinkhorn_solve,
    sorted_wasserstein_1d,
)
from .synthetic import comparison_instance, labeled_synthetic, synth_generate

__all__ = [
    "EmdResult",
    "FeatureRanking",
    "FrotConfig",
    "FrotLpResult",
    "FrotSolution",
    "FrwdResult",
    "GroupedCost",
    "GroupedMeasure",
    "SinkhornConfig",
    "SinkhornResult",
    "SolverFailure",
    "TransportPlan",
    "alpha_weights",
    "baseline_rank",
    "build_grouped_cost",
    "build_grouped_measure",
    "comparison_instance",
    "emd_exact_solve",
    "frot_feature_importance",
    "frot_fw_solve",
    "frot_gradient",
    "frot_lp_solve",
    "frwd_distance",
    "fw_convergence_bound",
    "group_costs",
    "labeled_synthetic",
    "load_measure_csv",
    "load_measure_json",
    "save_measure_csv",
    "save_measure_json",
    "select_top_k",
    "sinkhorn_solve",
    "smoothed_max_objective",
    "sorted_wasserstein_1d",
    "srw_equivalence_check",
    "synth_generate",
    "wasserstein_p",
]
