"""Sequential quickest change detection for stochastically growing signals.

The post-change observations follow an indexed density family that is
nondecreasing in monotone-likelihood-ratio order, so the right detection
statistic accumulates log-likelihood ratios whose density index is the age
of each hypothesized change point.  The package provides that statistic and
its Shiryaev-Roberts companion as incremental detectors, path simulation
under the change-point model, numerical verifiers for the optimality
conditions, Monte Carlo estimators for the false-alarm/delay tradeoff, and a
CLI that turns JSON configs into CSV/JSON/SVG artifacts.

The public names load on first access (PEP 562), each from the module that
_EXPORTS files it under, so importing the package, or one of its modules,
loads no module that is not asked for.
"""

import sys

__version__ = "0.1.0"

#: the public names, by the module that defines them
_EXPORTS = {
    "conditions": (
        "ConditionBudgets",
        "ConditionReport",
        "cesaro_kl_average",
        "fourth_moment_check",
        "full_condition_report",
        "slln_empirical",
        "sum_dominance_check",
    ),
    "detectors": (
        "CusumState",
        "ExCusumState",
        "SrState",
        "StopResult",
        "cusum_step",
        "ex_cusum_step",
        "run_detector",
        "sr_step",
        "statistic_trace",
    ),
    "metrics": (
        "ArlEstimate",
        "CaddEstimate",
        "EstimationError",
        "TradeoffRow",
        "estimate_arl2fa",
        "estimate_cadd",
        "simulate_trials",
        "tradeoff_curve",
    ),
    "models": (
        "DensityModel",
        "GaussianModel",
        "MeanSchedule",
        "MlrCheck",
        "NumericError",
        "default_grid",
        "gaussian_model",
        "kl_divergence",
        "verify_mlr",
    ),
    "process": ("NO_CHANGE", "ChangeSpec", "Path", "derive_seed", "generate_path"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

#: the submodules that excusum.<name> imports on first access
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "config", "numerics", "svgplot"}

__all__ = sorted(_MODULE_OF)


def _submodule(name: str):
    # the import statement's own path, which -X importtime reports
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(_submodule(_MODULE_OF[name]), name)
        globals()[name] = value  # later reads skip this hook
        return value
    if name in _SUBMODULES:
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
