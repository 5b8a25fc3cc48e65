"""JSON experiment configuration: strict schema validation into dataclasses.

Violations are rejected before any computation, with the offending field
path in the error message; the mean schedule is built while loading, so its
own checks count among them.  Seeds must be explicit; nothing falls back to
the wall clock, so a config fully determines every output byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .detectors import DETECTORS
from .models import SCHEDULE_KINDS, GaussianModel, MeanSchedule, gaussian_model
from .process import NO_CHANGE


class ConfigError(ValueError):
    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


def _require_keys(obj: dict, path: str, required: set[str], optional: set[str] = frozenset()) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    missing = required - obj.keys()
    if missing:
        raise ConfigError(path, f"missing required field(s): {', '.join(sorted(missing))}")
    unknown = obj.keys() - required - optional
    if unknown:
        raise ConfigError(path, f"unknown field(s): {', '.join(sorted(unknown))}")


def _number(obj: dict, path: str, key: str) -> float:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"{path}.{key}", f"expected a finite number, got {v!r}")
    return float(v)


def _integer(obj: dict, path: str, key: str, *, minimum: int) -> int:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}", f"expected an integer, got {v!r}")
    if v < minimum:
        raise ConfigError(f"{path}.{key}", f"expected an integer >= {minimum}, got {v}")
    return v


def _schedule(obj: dict, path: str) -> MeanSchedule:
    _require_keys(obj, path, {"kind"}, {"mu", "params", "table"})
    kind = obj["kind"]
    if kind not in SCHEDULE_KINDS:
        raise ConfigError(f"{path}.kind", f"expected one of {list(SCHEDULE_KINDS)}, got {kind!r}")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{path}.params", "expected an object")
    if "table" in obj:
        table = obj["table"]
        if not isinstance(table, list) or not table or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in table
        ):
            raise ConfigError(f"{path}.table", "expected a non-empty list of numbers")
    names, has_mu, has_table = SCHEDULE_KINDS[kind]
    if has_mu != ("mu" in obj):
        raise ConfigError(f"{path}.mu", "required for this kind" if has_mu else "not allowed for this kind")
    if has_table != ("table" in obj):
        raise ConfigError(f"{path}.table", "required for this kind" if has_table else "not allowed for this kind")
    if set(params) != set(names):
        raise ConfigError(f"{path}.params", f"expected exactly {sorted(names) or 'no'} parameter(s), got {sorted(params)}")
    mu = _number(obj, path, "mu") if has_mu else None
    values = tuple(_number(params, f"{path}.params", name) for name in names)
    try:
        if has_table:
            return MeanSchedule.from_table(table)
        if kind == "arctangent":
            return MeanSchedule.arctangent()
        return MeanSchedule(kind=kind, limit_mu=mu, params=values)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


@dataclass(frozen=True)
class ModelConfig:
    schedule: MeanSchedule

    @classmethod
    def from_dict(cls, obj: dict) -> "ModelConfig":
        _require_keys(obj, "model", {"family", "schedule"})
        if obj["family"] != "gaussian":
            raise ConfigError("model.family", f"only 'gaussian' is built in, got {obj['family']!r}")
        return cls(schedule=_schedule(obj["schedule"], "model.schedule"))

    def build(self) -> GaussianModel:
        return gaussian_model(self.schedule)


@dataclass(frozen=True)
class DetectorConfig:
    kind: str
    threshold: float | None = None
    gamma: float | None = None
    window: int | None = None

    @classmethod
    def from_dict(cls, obj: dict) -> "DetectorConfig":
        _require_keys(obj, "detector", {"detector"}, {"threshold", "gamma", "window"})
        kind = obj["detector"]
        if not isinstance(kind, str) or kind not in DETECTORS:
            raise ConfigError("detector.detector", f"expected one of {list(DETECTORS)}, got {kind!r}")
        threshold = _number(obj, "detector", "threshold") if "threshold" in obj else None
        gamma = None
        if "gamma" in obj:
            gamma = _number(obj, "detector", "gamma")
            if gamma <= 1.0:
                raise ConfigError("detector.gamma", f"expected gamma > 1, got {gamma}")
        if (threshold is None) == (gamma is None):
            raise ConfigError("detector", "give exactly one of 'threshold' or 'gamma'")
        window = None
        if "window" in obj:
            if not DETECTORS[kind].windowed:
                raise ConfigError("detector.window", f"the {kind!r} detector takes no window")
            window = _integer(obj, "detector", "window", minimum=1)
        return cls(kind=kind, threshold=threshold, gamma=gamma, window=window)

    @property
    def threshold_value(self) -> float:
        """The log-scale threshold; derived as log(gamma) when gamma is given."""
        return self.threshold if self.threshold is not None else math.log(self.gamma)

    @property
    def gamma_value(self) -> float:
        """gamma, or exp(threshold) when only the threshold was given."""
        return self.gamma if self.gamma is not None else math.exp(self.threshold)


@dataclass(frozen=True)
class RunConfig:
    nu: int | float
    horizon: int
    seed: int
    trials: int

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        _require_keys(obj, "run", {"nu", "horizon", "seed", "trials"})
        nu_raw = obj["nu"]
        if nu_raw == "inf":
            nu: int | float = NO_CHANGE
        elif isinstance(nu_raw, int) and not isinstance(nu_raw, bool) and nu_raw >= 1:
            nu = nu_raw
        else:
            raise ConfigError("run.nu", f"expected an integer >= 1 or the string 'inf', got {nu_raw!r}")
        horizon = _integer(obj, "run", "horizon", minimum=1)
        seed = _integer(obj, "run", "seed", minimum=0)
        if seed >= 2**64:
            raise ConfigError("run.seed", "seed must fit in 64 bits")
        trials = _integer(obj, "run", "trials", minimum=1)
        return cls(nu=nu, horizon=horizon, seed=seed, trials=trials)


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"

    @classmethod
    def from_dict(cls, obj: dict) -> "OutputConfig":
        _require_keys(obj, "output", set(), {"directory"})
        directory = obj.get("directory", cls.directory)
        if not isinstance(directory, str) or not directory:
            raise ConfigError("output.directory", "expected a non-empty string")
        return cls(directory=directory)


@dataclass(frozen=True)
class TradeoffConfig:
    gammas: tuple[float, ...] = (10.0, 100.0)
    arl_trials: int | None = None

    @classmethod
    def from_dict(cls, obj: dict) -> "TradeoffConfig":
        _require_keys(obj, "tradeoff", set(), {"gammas", "arl_trials"})
        gammas = obj.get("gammas", list(cls.gammas))
        if (
            not isinstance(gammas, list)
            or not gammas
            or any(isinstance(g, bool) or not isinstance(g, (int, float)) or not 1.0 < g < math.inf for g in gammas)
            or any(b <= a for a, b in zip(gammas, gammas[1:]))
        ):
            raise ConfigError("tradeoff.gammas", "expected an increasing list of finite numbers > 1")
        arl_trials = _integer(obj, "tradeoff", "arl_trials", minimum=1) if "arl_trials" in obj else None
        return cls(gammas=tuple(float(g) for g in gammas), arl_trials=arl_trials)


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig
    detector: DetectorConfig
    run: RunConfig
    output: OutputConfig
    tradeoff: TradeoffConfig

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        _require_keys(obj, "<config>", {"model", "detector", "run"}, {"output", "tradeoff"})
        return cls(
            model=ModelConfig.from_dict(obj["model"]),
            detector=DetectorConfig.from_dict(obj["detector"]),
            run=RunConfig.from_dict(obj["run"]),
            output=OutputConfig.from_dict(obj.get("output", {})),
            tradeoff=TradeoffConfig.from_dict(obj.get("tradeoff", {})),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(read_json(path))


def read_json(path: str | Path):
    """The parsed JSON of a config file, before any schema check."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("<config>", f"invalid JSON: {exc}") from exc


#: the built-in experiment: arctangent Gaussian growth, change at 80 of a
#: 200-step record, threshold log(1000)
DEFAULT_CONFIG: dict = {
    "model": {"family": "gaussian", "schedule": {"kind": "arctangent"}},
    "detector": {"detector": "ex-cusum", "gamma": 1000.0},
    "run": {"nu": 80, "horizon": 200, "seed": 20220914, "trials": 1000},
    "output": {"directory": "out"},
}
