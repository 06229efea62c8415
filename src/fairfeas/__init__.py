"""Feasibility analysis for approximate multi-metric group fairness.

Quantifies when FPR/FNR/ACC or FPR/FNR/PPV parity within tolerances is
achievable for binary classifiers: closed-form region sizing,
exhaustive discretized enumeration, dot-planimeter estimates, dataset
feasibility reports, and an exact resource-constrained selection
solver.
"""

from .data import (
    BracketingReport,
    Cohort,
    CohortStats,
    GroupingSpec,
    TableSchema,
    group_stats,
    intersection_bracketing_check,
    load_csv,
    stratified_sample,
)
from .errors import FairfeasError
from .metrics import (
    GroupCounts,
    MetricPoint,
    expected_ppv_at_k,
    max_pairwise_prevalence_diff,
)
from .planimeter import (
    CurveFamily,
    DetectorGrid,
    PlanimeterEstimate,
    acc_band_family,
    estimate_area,
    line_family,
    required_grid_size,
)
from .region import (
    Discretization,
    FeasibleTripleSet,
    PrevalenceHeatmap,
    count_joint,
    enumerate_triples,
    heatmap,
    ppv_binned_counts,
)
from .relations import (
    AccRelaxation,
    OffsetBounds,
    PpvRelaxation,
    RegionSpec,
    acc_identity,
    fairness_area_acc,
    fpr_from_relation,
    offset_bounds,
    relaxed_fnr_acc,
    relaxed_fnr_ppv,
    residual_acc_balance,
    residual_ppv_balance,
)
from .selection import (
    GroupAllocation,
    GroupSupply,
    KScanReport,
    SelectionInstance,
    SelectionResult,
    k_scan,
    solve_exact,
    unconstrained_max_tp,
)

__version__ = "0.1.0"

__all__ = [
    "AccRelaxation",
    "BracketingReport",
    "Cohort",
    "CohortStats",
    "CurveFamily",
    "DetectorGrid",
    "Discretization",
    "FairfeasError",
    "FeasibleTripleSet",
    "GroupAllocation",
    "GroupCounts",
    "GroupSupply",
    "GroupingSpec",
    "KScanReport",
    "MetricPoint",
    "OffsetBounds",
    "PlanimeterEstimate",
    "PpvRelaxation",
    "PrevalenceHeatmap",
    "RegionSpec",
    "SelectionInstance",
    "SelectionResult",
    "TableSchema",
    "acc_band_family",
    "acc_identity",
    "count_joint",
    "enumerate_triples",
    "estimate_area",
    "expected_ppv_at_k",
    "fairness_area_acc",
    "fpr_from_relation",
    "group_stats",
    "heatmap",
    "intersection_bracketing_check",
    "k_scan",
    "line_family",
    "load_csv",
    "max_pairwise_prevalence_diff",
    "offset_bounds",
    "ppv_binned_counts",
    "relaxed_fnr_acc",
    "relaxed_fnr_ppv",
    "required_grid_size",
    "residual_acc_balance",
    "residual_ppv_balance",
    "solve_exact",
    "stratified_sample",
    "unconstrained_max_tp",
]
