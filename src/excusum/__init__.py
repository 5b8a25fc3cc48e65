"""Sequential quickest change detection for stochastically growing signals.

The post-change observations follow an indexed density family that is
nondecreasing in monotone-likelihood-ratio order, so the right detection
statistic accumulates log-likelihood ratios whose density index is the age
of each hypothesized change point.  The package provides that statistic and
its Shiryaev-Roberts companion as incremental detectors, path simulation
under the change-point model, numerical verifiers for the optimality
conditions, Monte Carlo estimators for the false-alarm/delay tradeoff, and a
CLI that turns JSON configs into CSV/JSON/SVG artifacts.
"""

from .conditions import (
    ConditionBudgets,
    ConditionReport,
    cesaro_kl_average,
    fourth_moment_check,
    full_condition_report,
    slln_empirical,
    sum_dominance_check,
)
from .detectors import (
    CusumState,
    ExCusumState,
    SrState,
    StopResult,
    cusum_step,
    ex_cusum_step,
    run_detector,
    sr_step,
    statistic_trace,
)
from .metrics import (
    ArlEstimate,
    CaddEstimate,
    EstimationError,
    TradeoffRow,
    TrialOutcome,
    estimate_arl2fa,
    estimate_cadd,
    simulate_trials,
    tradeoff_curve,
    worst_case_delay_scan,
)
from .models import (
    DensityModel,
    GaussianModel,
    MeanSchedule,
    MlrCheck,
    NumericError,
    default_grid,
    gaussian_model,
    kl_divergence,
    llr,
    sample_post,
    sample_pre,
    verify_mlr,
    verify_stochastic_dominance,
)
from .process import NO_CHANGE, ChangeSpec, Path, derive_seed, generate_path, path_stream

__version__ = "0.1.0"

__all__ = [
    "ArlEstimate",
    "CaddEstimate",
    "ChangeSpec",
    "ConditionBudgets",
    "ConditionReport",
    "CusumState",
    "DensityModel",
    "EstimationError",
    "ExCusumState",
    "GaussianModel",
    "MeanSchedule",
    "MlrCheck",
    "NO_CHANGE",
    "NumericError",
    "Path",
    "SrState",
    "StopResult",
    "TradeoffRow",
    "TrialOutcome",
    "cesaro_kl_average",
    "cusum_step",
    "default_grid",
    "derive_seed",
    "estimate_arl2fa",
    "estimate_cadd",
    "ex_cusum_step",
    "fourth_moment_check",
    "full_condition_report",
    "gaussian_model",
    "generate_path",
    "kl_divergence",
    "llr",
    "path_stream",
    "run_detector",
    "sample_post",
    "sample_pre",
    "simulate_trials",
    "slln_empirical",
    "sr_step",
    "statistic_trace",
    "sum_dominance_check",
    "tradeoff_curve",
    "verify_mlr",
    "verify_stochastic_dominance",
    "worst_case_delay_scan",
]
