"""Numerical checks of the sufficient conditions for asymptotic optimality.

Four pieces of evidence are produced for a model:

- Cesaro convergence of the KL divergences D(f_{k-1} || g) to an information
  number I > 0 (read from the model's kl hook: closed form for the Gaussian
  family, quadrature otherwise);
- a uniform bound on the centered fourth moments of the per-sample
  log-likelihood ratio (Monte Carlo against the closed-form Gaussian bound
  3 * mu**4);
- concentration of the empirical average (1/n) sum llr(k-1, X_k) around I
  under change-at-1 sampling, reported as deviation quantiles that must
  shrink along a grid of growing n (almost-sure convergence itself is not
  machine-checkable; shrinking quantiles are reported as *consistent with*
  it, never as proof);
- stochastic dominance of shifted log-likelihood-ratio block sums: started
  further into the growing family, the block-average sum must be
  stochastically larger, checked by comparing empirical CDFs with a
  Dvoretzky-Kiefer-Wolfowitz style slack at 99% confidence.

``full_condition_report`` composes these with the MLR structure check from
the models module into a single pass/fail report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Mapping

import numpy as np

from .models import (
    DensityModel,
    GaussianModel,
    default_grid,
    kl_divergence,
    llr,
    verify_mlr,
)
from .process import derive_seed, trial_generators

DOMINANCE_CONFIDENCE = 0.99

#: deviation quantiles reported by slln_empirical; its verdict reads 0.95
SLLN_QUANTILE_LEVELS = (0.5, 0.9, 0.95)

#: float64 elements of one (trials x ages) block of sampled paths (512 KiB),
#: in slln_empirical and the dominance check alike
_BLOCK_ELEMENTS = 2**16

#: stream keys: moment index k and SLLN trial t draw from
#: derive_seed(derive_seed(seed, key), i), apart from each other and from the
#: dominance block started at k, which draws from derive_seed(seed, k)
_MOMENT_STREAMS = 2**64 - 1
_SLLN_STREAMS = 2**64 - 2


def dkw_slack(trials: int) -> float:
    """One-sided empirical-CDF comparison slack at DOMINANCE_CONFIDENCE."""
    return math.sqrt(math.log(2.0 / (1.0 - DOMINANCE_CONFIDENCE)) / (2.0 * trials))


def _trace_indices(n_max: int) -> np.ndarray:
    dense = np.arange(1, min(n_max, 64) + 1)
    sparse = np.unique(np.geomspace(1, n_max, 200).astype(np.int64))
    return np.unique(np.concatenate([dense, sparse, [n_max]]))


@dataclass(frozen=True)
class CesaroTrace:
    """Running averages of D(f_{k-1} || g) and the resulting I estimate."""

    ns: np.ndarray
    averages: np.ndarray
    information_number: float
    n_max: int
    passed: bool  # I > 0 requirement


def cesaro_kl_average(model: DensityModel, n_max: int) -> CesaroTrace:
    """Running average (1/n) sum_{k<=n} D(f_{k-1} || g) up to n_max.

    The final value is the information-number estimate; the verdict fails for
    degenerate families whose divergences average to zero.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    vals = model.kl(np.arange(n_max))
    # running mean in recurrence form: exact on constant sequences, where a
    # cumsum-based mean would wobble in the last bits
    cumavg = np.empty(n_max)
    avg = 0.0
    for i in range(n_max):
        avg += (float(vals[i]) - avg) / (i + 1)
        cumavg[i] = avg
    ns = _trace_indices(n_max)
    estimate = float(cumavg[-1])
    return CesaroTrace(
        ns=ns,
        averages=cumavg[ns - 1],
        information_number=estimate,
        n_max=n_max,
        passed=estimate > 0.0,
    )


@dataclass(frozen=True)
class MomentCheck:
    """Centered fourth moments of the per-sample LLR versus a uniform bound."""

    ks: tuple[int, ...]
    estimates: np.ndarray
    stderrs: np.ndarray
    closed_forms: np.ndarray
    bound: float
    trials: int
    passed: bool


def fourth_moment_check(
    model: DensityModel,
    trials: int = 100_000,
    seed: int = 0,
    *,
    ks: tuple[int, ...],
) -> MomentCheck:
    """Monte Carlo centered fourth moment of llr(k-1, X_k) with X_k ~ f_{k-1}.

    Centering uses the exact KL mean.  Passes when every estimate is at most
    the bound 3 * limit_mu**4 plus three standard errors; the exact values
    3 * mu_{k-1}**4 are reported alongside.  Gaussian family only: the bound
    is its closed form.
    """
    if not isinstance(model, GaussianModel):
        raise ValueError("the fourth-moment check needs the Gaussian family, whose bound is 3 * limit_mu**4")
    if not ks or any(k < 1 for k in ks):
        raise ValueError("moment check indices k must be given, each >= 1")
    if trials < 2:
        raise ValueError("the moment check needs trials >= 2 for its standard errors")
    bound = 3.0 * model.schedule.limit_mu ** 4
    estimates = np.empty(len(ks))
    stderrs = np.empty(len(ks))
    closed = np.empty(len(ks))
    base = derive_seed(seed, _MOMENT_STREAMS)
    for j, k in enumerate(ks):
        rng = np.random.default_rng(derive_seed(base, k))
        x = np.asarray(model.sampler_post(k - 1, rng, trials))
        z = llr(model, k - 1, x)
        center = kl_divergence(model, k - 1)
        fourth = (z - center) ** 4
        estimates[j] = fourth.mean()
        stderrs[j] = fourth.std(ddof=1) / math.sqrt(trials)
        closed[j] = 3.0 * model.schedule.mu(k - 1) ** 4
    passed = bool(np.all(estimates <= bound + 3.0 * stderrs))
    return MomentCheck(
        ks=tuple(ks),
        estimates=estimates,
        stderrs=stderrs,
        closed_forms=closed,
        bound=bound,
        trials=trials,
        passed=passed,
    )


@dataclass(frozen=True)
class SllnCheck:
    """Deviation quantiles of the change-at-1 empirical LLR average around I."""

    ns: tuple[int, ...]
    quantiles: Mapping[float, np.ndarray]
    variances: np.ndarray
    information_number: float
    trials: int
    passed: bool  # 95th-percentile deviation shrinks along the grid


def slln_empirical(
    model: DensityModel,
    n: int,
    trials: int = 1_000,
    seed: int = 0,
) -> SllnCheck:
    """Simulate change-at-1 paths and track |(1/m) sum llr(k-1, X_k) - I|.

    I is model.information_number(), else the Cesaro estimate.  Averages are
    taken at m on the coarsening grid n/16, n/4, n; the check passes
    when the 95th-percentile deviation strictly decreases, the Monte Carlo
    surrogate for almost-sure convergence.
    """
    if n < 1 or trials < 2:
        raise ValueError("n must be >= 1 and trials >= 2")
    grid = tuple(sorted({max(n // 16, 1), max(n // 4, 1), n}))
    info = model.information_number()
    if info is None:
        info = cesaro_kl_average(model, n).information_number
    ages = np.arange(n)
    marks = np.asarray(grid)
    avgs = np.empty((trials, len(grid)))
    rngs = trial_generators(derive_seed(seed, _SLLN_STREAMS), 0, trials)
    rows = max(1, _BLOCK_ELEMENTS // n)
    for start in range(0, trials, rows):
        x = np.array([model.sampler_post(ages, rng, None) for rng in islice(rngs, rows)], dtype=np.float64)
        z = np.asarray(llr(model, ages, x), dtype=np.float64)
        cs = np.cumsum(z, axis=-1)
        avgs[start : start + len(x)] = cs[:, marks - 1] / marks
    dev = np.abs(avgs - info)
    quantiles = {q: np.quantile(dev, q, axis=0) for q in SLLN_QUANTILE_LEVELS}
    q95 = quantiles[0.95]
    passed = bool(np.all(np.diff(q95) < 0.0)) if len(grid) > 1 else True
    return SllnCheck(
        ns=tuple(int(m) for m in grid),
        quantiles=quantiles,
        variances=avgs.var(axis=0, ddof=1),
        information_number=float(info),
        trials=trials,
        passed=passed,
    )


@dataclass(frozen=True)
class DominanceCheck:
    """One-sided empirical-CDF comparison of shifted block-average LLR sums."""

    k_small: int
    k_large: int
    n: int
    trials: int
    max_gap: float
    slack: float
    passed: bool


def _block_averages(model: DensityModel, k: int, n: int, trials: int, seed: int) -> np.ndarray:
    """(1/n) sum_{i=k}^{k+n} llr(i-k, X_i) with X_i ~ f_{i-1} (change at 1).

    The same (seed, k) always reproduces the same draws, so comparing a k
    against itself gives a gap of exactly zero.
    """
    rng = np.random.default_rng(derive_seed(seed, k))
    data_ages = np.arange(k - 1, k + n)  # X_i ~ f_{i-1} for i = k..k+n
    llr_ages = np.arange(n + 1)  # ratio index i-k
    out = np.empty(trials)
    chunk = max(1, _BLOCK_ELEMENTS // (n + 1))
    done = 0
    while done < trials:
        take = min(chunk, trials - done)
        x = np.asarray(model.sampler_post(np.broadcast_to(data_ages, (take, n + 1)), rng, None))
        z = llr(model, llr_ages, x)
        out[done : done + take] = z.sum(axis=1) / n
        done += take
    return out


def sum_dominance_check(
    model: DensityModel,
    k_small: int,
    k_large: int,
    n: int,
    trials: int = 10_000,
    seed: int = 0,
) -> DominanceCheck:
    """Check that the block sum started at k_large stochastically dominates
    the one started at k_small.

    Passes when the empirical CDF of the k_large sample lies below that of
    the k_small sample everywhere, up to the DKW-style slack for the trial
    count at 99% confidence.  Reports the worst one-sided CDF gap.  Swapping
    the two start indices on a strictly growing schedule flips the verdict;
    comparing an index against itself reuses the same draws and gives a gap
    of exactly zero.
    """
    if k_small < 1 or k_large < 1:
        raise ValueError("block start indices must be >= 1")
    if n < 1 or trials < 2:
        raise ValueError("n must be >= 1 and trials >= 2")
    a = np.sort(_block_averages(model, k_small, n, trials, seed))
    b = np.sort(_block_averages(model, k_large, n, trials, seed))
    pts = np.concatenate([a, b])
    gap = (
        np.searchsorted(b, pts, side="right") / trials
        - np.searchsorted(a, pts, side="right") / trials
    )
    max_gap = float(gap.max())
    slack = dkw_slack(trials)
    return DominanceCheck(
        k_small=k_small,
        k_large=k_large,
        n=n,
        trials=trials,
        max_gap=max_gap,
        slack=slack,
        passed=max_gap <= slack,
    )


@dataclass(frozen=True)
class ConditionBudgets:
    """Sampling and grid budgets for the full condition report."""

    mlr_ns: tuple[int, ...] = (-1, 0, 1, 2, 5, 10, 20, 50)
    mlr_points: int = 2001
    cesaro_n_max: int = 100_000
    moment_ks: tuple[int, ...] = (1, 10, 100)
    moment_trials: int = 100_000
    slln_n: int = 16_000
    slln_trials: int = 1_000
    dominance_pair: tuple[int, int] = (1, 5)
    dominance_n: int = 20
    dominance_trials: int = 100_000
    seed: int = 0


@dataclass(frozen=True)
class ConditionReport:
    """Verdicts and numeric evidence for all checked optimality conditions."""

    information_number_I: float
    cesaro_trace: CesaroTrace
    moment_check: MomentCheck
    slln_check: SllnCheck
    dominance_check: DominanceCheck
    mlr_results: Mapping[int, tuple[bool, float]]
    verdicts: Mapping[str, bool]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "information_number_I": self.information_number_I,
            "passed": self.passed,
            "verdicts": dict(self.verdicts),
            "cesaro": {
                "n_max": self.cesaro_trace.n_max,
                "estimate": self.cesaro_trace.information_number,
                "trace": [
                    [int(n), float(a)]
                    for n, a in zip(self.cesaro_trace.ns, self.cesaro_trace.averages)
                ],
            },
            "fourth_moment": {
                "bound": self.moment_check.bound,
                "trials": self.moment_check.trials,
                "per_k": [
                    {
                        "k": int(k),
                        "estimate": float(e),
                        "stderr": float(s),
                        "closed_form": float(self.moment_check.closed_forms[j]),
                    }
                    for j, (k, e, s) in enumerate(
                        zip(self.moment_check.ks, self.moment_check.estimates, self.moment_check.stderrs)
                    )
                ],
            },
            "slln": {
                "trials": self.slln_check.trials,
                "ns": list(self.slln_check.ns),
                "q95": [float(v) for v in self.slln_check.quantiles[0.95]],
                "variances": [float(v) for v in self.slln_check.variances],
            },
            "sum_dominance": {
                "k_small": self.dominance_check.k_small,
                "k_large": self.dominance_check.k_large,
                "n": self.dominance_check.n,
                "trials": self.dominance_check.trials,
                "max_gap": self.dominance_check.max_gap,
                "slack": self.dominance_check.slack,
            },
            "mlr": {str(n): {"ok": ok, "worst_violation": w} for n, (ok, w) in self.mlr_results.items()},
        }

    def trace_rows(self) -> list[tuple]:
        """Rows (n, cesaro_avg, moment_est, slln_q95) with blanks where absent."""
        cesaro = {int(n): float(a) for n, a in zip(self.cesaro_trace.ns, self.cesaro_trace.averages)}
        moments = {int(k): float(e) for k, e in zip(self.moment_check.ks, self.moment_check.estimates)}
        slln = {int(n): float(q) for n, q in zip(self.slln_check.ns, self.slln_check.quantiles[0.95])}
        rows = []
        for n in sorted(set(cesaro) | set(moments) | set(slln)):
            rows.append((n, cesaro.get(n), moments.get(n), slln.get(n)))
        return rows


def full_condition_report(model: DensityModel, budgets: ConditionBudgets | None = None) -> ConditionReport:
    """Run every condition check and combine the verdicts.

    Overall pass means all sufficient conditions empirically hold at the given
    budgets, stated as evidence consistent with the asymptotic conditions, not
    as proof of them.
    """
    b = budgets or ConditionBudgets()
    mlr_results = {}
    for n in b.mlr_ns:
        grid = default_grid(model, max(n + 1, 0), points=b.mlr_points)
        check = verify_mlr(model, n, grid)
        mlr_results[n] = (check.ok, check.worst_violation)
    cesaro = cesaro_kl_average(model, b.cesaro_n_max)
    moment = fourth_moment_check(
        model, trials=b.moment_trials, seed=b.seed, ks=b.moment_ks
    )
    slln = slln_empirical(model, b.slln_n, trials=b.slln_trials, seed=b.seed)
    dom = sum_dominance_check(
        model, b.dominance_pair[0], b.dominance_pair[1], b.dominance_n, b.dominance_trials, b.seed
    )
    verdicts = {
        "mlr": all(ok for ok, _ in mlr_results.values()),
        "information_number": cesaro.passed,
        "fourth_moment": moment.passed,
        "slln_decay": slln.passed,
        "sum_dominance": dom.passed,
    }
    return ConditionReport(
        information_number_I=cesaro.information_number,
        cesaro_trace=cesaro,
        moment_check=moment,
        slln_check=slln,
        dominance_check=dom,
        mlr_results=mlr_results,
        verdicts=verdicts,
        passed=all(verdicts.values()),
    )
