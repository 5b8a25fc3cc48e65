"""Monte Carlo estimation of the false-alarm / detection-delay tradeoff.

Two quantities are estimated by simulation: the mean time to false alarm
E_inf[tau] on pure pre-change paths, and the conditional average detection
delay E_nu[tau - nu | tau >= nu] on change-at-nu paths.  Setting the
threshold to log(gamma) guarantees a mean time to false alarm of at least
gamma, and the asymptotic delay floor is log(gamma) / I with I the
information number, which is the bound reported next to the estimates.

Censored false-alarm runs are included at their horizon value, so the ARL
estimate is a downward-biased lower bound; that is the conservative
direction for validating the >= gamma guarantee.

The worst-case delay over change points (Lorden 1971, Ann. Math. Statist.
42(6)) is the delay at nu = 1, which tradeoff_curve reports.  After the
change a run with pre-change history has a statistic at least that of the
run started fresh at nu on the same data: ex-cusum's max and SR's sum range
over more candidates, whose sums for k >= nu come from the same additions in
the same order, and CUSUM's max(W, 0) starts at or above 0.  The event
tau >= nu reads only pre-change data, so whatever the history, the delay
at nu is at most the delay at 1.

Trials are seeded individually (seed, trial index), making every estimate
bit-reproducible and independent of trial order.  They run in chunks, all
trials of a chunk advancing in lockstep through one detector step per time
index (see detectors._lockstep), so the per-step interpreter and numpy call
overhead is paid once per chunk instead of once per trial; a trial's outcome
does not depend on the chunk it runs in.

The result records are NamedTuples: they validate nothing, and a NamedTuple
class costs about a tenth of a frozen dataclass to define, which every
command pays at start-up.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple, Sequence

import numpy as np

from . import process
from .detectors import StopResult, _certified_tail, _lockstep, _state_elements
from .models import DensityModel, _checked_integer
from .process import NO_CHANGE, ChangeSpec, _block_drawer, derive_seed, trial_generators

#: scipy.stats.norm.ppf(0.95), the one-sided 95% normal quantile
Z95 = 1.6448536269514722

#: float64 elements a lockstep chunk holds (2 MiB); a chunk runs
#: max(1, _CHUNK_ELEMENTS // per_trial) trials, where per_trial is what one
#: live trial holds.  With a fold, window or bounded tail that is its column
#: of a sample block, min(horizon, process._CHUNK), what its state holds
#: (detectors._state_elements: the buffer's columns, the ratio scratch and a
#: bounded trial's envelope pieces) and its generator, _GENERATOR_ELEMENTS.
#: A trial whose sums grow with n is counted at horizon alone, the length
#: they reach, though while its buffer doubles to C columns it holds up to
#: 3C (both copies and the ratio scratch); counting it at that peak split
#: short exact runs into more chunks, which slowed them
_CHUNK_ELEMENTS = 2**18

#: one trial's bit generator and Generator (about 645 bytes), in float64 elements
_GENERATOR_ELEMENTS = 80

#: caps for the default horizons: false-alarm runs 20 * exp(A) capped at 1e7
#: steps, delay runs nu + 10 * ceil(A / I)
ARL_HORIZON_FACTOR = 20.0
ARL_HORIZON_CAP = 10_000_000
DELAY_HORIZON_FACTOR = 10


class EstimationError(RuntimeError):
    """An estimate could not be formed (no usable trials)."""


class TrialOutcome(NamedTuple):
    """One simulated run: stopping time, censoring, and delay bookkeeping.

    Exactly one of the three outcomes holds: stopped at tau >= nu (a
    detection with delay tau - nu), stopped at tau < nu (a false alarm), or
    censored at the horizon.
    """

    tau: int | None
    censored_at: int | None
    nu: int | float

    @classmethod
    def from_stop(cls, result: StopResult, nu: int | float) -> "TrialOutcome":
        return cls(tau=result.tau, censored_at=result.censored_at, nu=nu)

    @property
    def false_alarm(self) -> bool:
        return self.tau is not None and self.tau < self.nu

    @property
    def delay(self) -> int | None:
        """tau - nu for a detection, else None."""
        if self.tau is None or self.false_alarm:
            return None
        return int(self.tau - self.nu)


def _check_trials(trials: int, name: str = "trials") -> int:
    # any integer passes the rule: a count below 1 gives no estimate, which
    # is an EstimationError rather than a bad argument
    trials = _checked_integer(trials, name, -math.inf)
    if trials < 1:
        raise EstimationError("at least one trial is required")
    return trials


def simulate_trials(
    model: DensityModel,
    detector: str,
    threshold: float,
    nu: int | float,
    horizon: int,
    trials: int,
    seed: int,
    *,
    window: int | None = None,
) -> np.ndarray:
    """Run independently seeded detector trials and return their int64
    stopping times, 0 for a censored trial; results are order-independent.

    Trial i runs on the path drawn from derive_seed(seed, i), and its stopping
    time equals that of run_detector on that path.  Trials run in lockstep
    chunks; each trial draws its path block by block, as generate_path does,
    and no further once it stops.  A bad observation or a NaN or +inf
    statistic raises as in run_detector; when several trials of a chunk fail,
    the error names the earliest failing step among them.

    Where detectors._certified_tail gives a head and envelope, the trials
    first run with a bounded tail, and the few it leaves unsettled (tau -1)
    run again on the exact state, in chunks sized for what an exact trial
    holds, so every tau is the exact run's.
    """
    _check_trials(trials)
    ChangeSpec(nu=nu, horizon=horizon, seed=seed)  # reject a bad nu, horizon or seed before sizing chunks
    taus = np.empty(trials, dtype=np.int64)

    def run(ids: np.ndarray, certified) -> None:
        held = _state_elements(detector, window, model, None if certified is None else certified[0])
        per_trial = horizon if held is None else min(horizon, process._CHUNK) + held + _GENERATOR_ELEMENTS
        chunk = max(1, _CHUNK_ELEMENTS // per_trial)
        for k in range(0, ids.size, chunk):
            part = ids[k : k + chunk]
            draw = _block_drawer(model, nu, horizon, list(trial_generators(seed, part)))
            taus[part] = _lockstep(detector, model, draw, part.size, threshold, horizon, window, certified)

    run(np.arange(trials), _certified_tail(detector, window, model, threshold, horizon))
    run(np.flatnonzero(taus < 0), None)
    return taus


class ArlEstimate(NamedTuple):
    """Mean time to false alarm with censoring included at the horizon."""

    mean_tau: float
    stderr: float
    lcb95: float
    censored_fraction: float
    trials: int


def estimate_arl2fa(
    model: DensityModel,
    detector: str,
    threshold: float,
    trials: int,
    horizon: int,
    seed: int,
    *,
    window: int | None = None,
) -> ArlEstimate:
    """Estimate E_inf[tau] on no-change paths.

    Censored runs contribute their horizon, biasing the mean downward, which
    is conservative for checking the >= gamma guarantee; the 95% lower
    confidence bound uses the normal approximation.
    """
    horizon = _checked_integer(horizon, "horizon", 1)  # before the warning compares it
    trials = _check_trials(trials)
    recommended = ARL_HORIZON_FACTOR / 2.0 * math.exp(min(threshold, 700.0))
    if horizon < recommended:
        warnings.warn(
            f"horizon {horizon} is below 10*exp(threshold) ~ {recommended:.3g}; "
            "heavy censoring will depress the ARL estimate",
            UserWarning,
            stacklevel=2,
        )
    stops = simulate_trials(model, detector, threshold, NO_CHANGE, horizon, trials, seed, window=window)
    censored = int(np.count_nonzero(stops == 0))
    taus = np.where(stops == 0, horizon, stops).astype(np.float64)
    mean = float(taus.mean())
    sd = float(taus.std(ddof=1)) if trials > 1 else 0.0
    se = sd / math.sqrt(trials)
    return ArlEstimate(
        mean_tau=mean,
        stderr=se,
        lcb95=mean - Z95 * se,
        censored_fraction=censored / trials,
        trials=trials,
    )


def default_delay_horizon(nu: int, threshold: float, info: float | None) -> int:
    """nu + 10 * ceil(A / I) steps; EstimationError for no positive I, ValueError for A NaN or +inf."""
    if info is None:
        raise EstimationError("the model has no information number, so no delay horizon exists")
    if not info > 0.0:
        raise EstimationError(f"information number {info} is not positive, so no delay horizon exists")
    if not threshold < math.inf:
        raise ValueError(f"threshold {threshold} gives no delay horizon")
    return int(nu + DELAY_HORIZON_FACTOR * max(1, math.ceil(max(threshold, 0.0) / info)))


class CaddEstimate(NamedTuple):
    """Conditional average detection delay at a fixed change point."""

    nu: int
    mean_delay: float
    stderr: float
    accepted: int
    acceptance_rate: float
    censored: int
    trials: int


def estimate_cadd(
    model: DensityModel,
    detector: str,
    threshold: float,
    nu: int,
    trials: int,
    seed: int,
    *,
    horizon: int | None = None,
    window: int | None = None,
) -> CaddEstimate:
    """Estimate E_nu[tau - nu | tau >= nu] on change-at-nu paths.

    Runs stopping before nu are false alarms and fall outside the
    conditioning event; censored runs are reported but excluded from the
    average (the default horizon makes them vanishingly rare).  Raises
    EstimationError when no run is accepted, or when the default horizon is
    asked of a model whose information_number() is None or not positive.
    """
    nu = _checked_integer(nu, "nu", 1)  # a finite change point: NO_CHANGE is no integer
    trials = _check_trials(trials)
    if horizon is None:
        horizon = default_delay_horizon(nu, threshold, model.information_number())
    taus = simulate_trials(model, detector, threshold, nu, horizon, trials, seed, window=window)
    delays = (taus[taus >= nu] - nu).astype(np.float64)
    censored = int(np.count_nonzero(taus == 0))
    false_alarms = trials - delays.size - censored
    if delays.size == 0:
        raise EstimationError(
            f"no accepted runs at nu={nu}, threshold={threshold} "
            f"({false_alarms} false alarms, {censored} censored of {trials})"
        )
    mean = float(delays.mean())
    se = float(delays.std(ddof=1)) / math.sqrt(delays.size) if delays.size > 1 else 0.0
    return CaddEstimate(
        nu=nu,
        mean_delay=mean,
        stderr=se,
        accepted=int(delays.size),
        acceptance_rate=(trials - false_alarms) / trials,
        censored=censored,
        trials=trials,
    )


class TradeoffRow(NamedTuple):
    """One gamma on the tradeoff curve: ARL estimate, delay estimate, bound."""

    gamma: float
    threshold: float
    arl: ArlEstimate
    cadd: CaddEstimate
    bound: float


def tradeoff_curve(
    model: DensityModel,
    gammas: Sequence[float],
    trials: int,
    seed: int,
    *,
    detector: str = "ex-cusum",
    arl_trials: int | None = None,
    window: int | None = None,
) -> list[TradeoffRow]:
    """Estimate both sides of the tradeoff at threshold log(gamma) per gamma.

    The bound column is log(gamma) / I.  ARL runs use horizon
    20 * gamma capped at 1e7 steps; delay runs use the overshoot-safe default
    horizon.  ``arl_trials`` can reduce the (much costlier) false-alarm side.
    """
    gs = [float(g) for g in gammas]
    if not gs or any(not 1.0 < g < math.inf for g in gs) or any(b <= a for a, b in zip(gs, gs[1:])):
        raise ValueError("gammas must be an increasing sequence of finite values > 1")
    arl_trials = trials if arl_trials is None else arl_trials
    _check_trials(trials)  # both sides' counts, before the first run
    _check_trials(arl_trials, "arl_trials")
    info = model.information_number()
    # a model without a delay horizon fails before any run, naming I
    default_delay_horizon(1, math.log(gs[0]), info)
    rows = []
    for j, gamma in enumerate(gs):
        threshold = math.log(gamma)
        horizon = int(min(ARL_HORIZON_FACTOR * gamma, ARL_HORIZON_CAP))
        arl = estimate_arl2fa(
            model,
            detector,
            threshold,
            arl_trials,
            horizon,
            derive_seed(seed, 2 * j),
            window=window,
        )
        cadd = estimate_cadd(
            model,
            detector,
            threshold,
            nu=1,
            trials=trials,
            seed=derive_seed(seed, 2 * j + 1),
            window=window,
        )
        rows.append(
            TradeoffRow(
                gamma=gamma,
                threshold=threshold,
                arl=arl,
                cadd=cadd,
                bound=threshold / info,
            )
        )
    return rows
