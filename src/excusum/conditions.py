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

The moment, SLLN and dominance checks draw their ratios through the
model's llr_sampler hook (by default one block_sampler row) into one reused
block each, after refusing, through models._checked_integer, any count,
index or seed that is not an integer in its range.  The
SLLN and dominance checks each run their two independent halves on two
threads (the SLLN's two trial ranges, the two block starts): numpy's
generator fills and ufunc loops release the interpreter lock, so the halves
overlap on two cores.  Every trial and block start draws from a generator
of its own, so the split does not change a bit.
"""

from __future__ import annotations

import math
import threading
from typing import Mapping, NamedTuple

import numpy as np

from .models import (
    DensityModel,
    GaussianModel,
    _checked_integer,
    default_grid,
    verify_mlr,
)
from .process import derive_seed, trial_generators

DOMINANCE_CONFIDENCE = 0.99

#: deviation quantiles reported by slln_empirical; its verdict reads 0.95
SLLN_QUANTILE_LEVELS = (0.5, 0.9, 0.95)

#: float64 elements of one (trials x ages) block of sampled paths (512 KiB),
#: in slln_empirical and the dominance check alike, and the points per chunk
#: of the dominance check's CDF gap
_BLOCK_ELEMENTS = 2**16

#: KL values cesaro_kl_average converts to Python floats at a time
_CESARO_CHUNK = 4096

#: stream keys: moment index k and SLLN trial t draw from
#: derive_seed(derive_seed(seed, key), i), apart from each other and from the
#: dominance block started at k, which draws from derive_seed(seed, k)
_MOMENT_STREAMS = 2**64 - 1
_SLLN_STREAMS = 2**64 - 2


def dkw_slack(trials: int) -> float:
    """One-sided empirical-CDF comparison slack at DOMINANCE_CONFIDENCE."""
    return math.sqrt(math.log(2.0 / (1.0 - DOMINANCE_CONFIDENCE)) / (2.0 * trials))


def _on_two_threads(job, first, second) -> tuple:
    """(job(first), job(second)), run at once on two threads; an exception
    of either re-raises here once both have ended, the first job's if both
    raise."""
    results, errors = [None, None], [None, None]

    def run(i: int, arg) -> None:
        try:
            results[i] = job(arg)
        except BaseException as exc:  # re-raised in the caller below
            errors[i] = exc

    threads = [threading.Thread(target=run, args=pair) for pair in enumerate((first, second))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return tuple(results)


def _trace_indices(n_max: int) -> np.ndarray:
    """1..min(n_max, 64), 200 geometric steps to n_max, and n_max, sorted and
    unique (without np.unique, which imports numpy.ma)."""
    dense = np.arange(1, min(n_max, 64) + 1)
    idx = np.sort(np.concatenate([dense, np.geomspace(1, n_max, 200).astype(np.int64), [n_max]]))
    return idx[np.concatenate([[True], idx[1:] != idx[:-1]])]


class CesaroTrace(NamedTuple):
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
    n_max = _checked_integer(n_max, "n_max", 1)
    vals = model.kl(np.arange(n_max))
    ns = _trace_indices(n_max)
    # running mean in recurrence form: exact on constant sequences, where a
    # cumsum-based mean would wobble in the last bits; it runs on Python
    # floats, _CESARO_CHUNK values converted at a time, and keeps the
    # averages at ns alone
    averages = []
    avg, done = 0.0, 0
    for n in ns.tolist():
        for lo in range(done, n, _CESARO_CHUNK):
            for i, v in enumerate(vals[lo : min(lo + _CESARO_CHUNK, n)].tolist(), lo + 1):
                avg += (v - avg) / i
        averages.append(avg)
        done = n
    estimate = averages[-1]
    return CesaroTrace(
        ns=ns,
        averages=np.array(averages),
        information_number=estimate,
        n_max=n_max,
        passed=estimate > 0.0,
    )


class MomentCheck(NamedTuple):
    """Centered fourth moments of the per-sample LLR versus a uniform bound."""

    ks: tuple[int, ...]
    estimates: np.ndarray
    stderrs: np.ndarray
    closed_forms: np.ndarray
    bound: float
    trials: int
    passed: bool


def fourth_moment_check(model: DensityModel, trials: int, seed: int, *, ks: tuple[int, ...]) -> MomentCheck:
    """Monte Carlo centered fourth moment of llr(k-1, X_k) with X_k ~ f_{k-1}.

    Centering uses the exact KL mean.  Passes when every estimate is at most
    the bound 3 * limit_mu**4 plus three standard errors; the exact values
    3 * mu_{k-1}**4 are reported alongside.  Gaussian family only: the bound
    is its closed form.
    """
    if not isinstance(model, GaussianModel):
        raise ValueError("the fourth-moment check needs the Gaussian family, whose bound is 3 * limit_mu**4")
    if not ks:
        raise ValueError("moment check indices k must be given")
    ks = tuple(_checked_integer(k, f"ks[{j}]", 1) for j, k in enumerate(ks))
    trials = _checked_integer(trials, "trials", 2)  # a standard error needs two
    bound = 3.0 * model.schedule.limit_mu ** 4
    estimates = np.empty(len(ks))
    stderrs = np.empty(len(ks))
    closed = np.empty(len(ks))
    base = derive_seed(seed, _MOMENT_STREAMS)
    block = np.empty(trials)
    for j, k in enumerate(ks):
        rng = np.random.default_rng(derive_seed(base, k))
        z = model.llr_sampler(k - 1, k - 1)(rng, block)
        center = float(model.kl(k - 1))
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


class SllnCheck(NamedTuple):
    """Deviation quantiles of the change-at-1 empirical LLR average around I."""

    ns: tuple[int, ...]
    quantiles: Mapping[float, np.ndarray]
    variances: np.ndarray
    information_number: float
    trials: int
    passed: bool  # 95th-percentile deviation shrinks along the grid


def slln_empirical(model: DensityModel, n: int, trials: int, seed: int) -> SllnCheck:
    """Simulate change-at-1 paths and track |(1/m) sum llr(k-1, X_k) - I|.

    I is model.information_number(), else the Cesaro estimate.  Averages are
    taken at m on the coarsening grid n/16, n/4, n; the check passes
    when the 95th-percentile deviation strictly decreases, the Monte Carlo
    surrogate for almost-sure convergence.
    """
    n = _checked_integer(n, "n", 1)
    trials = _checked_integer(trials, "trials", 2)  # a variance needs two
    base = derive_seed(seed, _SLLN_STREAMS)
    grid = tuple(sorted({max(n // 16, 1), max(n // 4, 1), n}))
    info = model.information_number()
    if info is None:
        info = cesaro_kl_average(model, n).information_number
    marks = np.asarray(grid)
    avgs = np.empty((trials, len(grid)))
    fill = model.llr_sampler(np.arange(n), np.arange(n))
    rows = max(1, _BLOCK_ELEMENTS // n)

    def averages(bounds: tuple[int, int]) -> None:
        lo, hi = bounds
        rngs = trial_generators(base, np.arange(lo, hi))
        block = np.empty((min(rows, hi - lo), n))
        for start in range(lo, hi, rows):
            part = block[: min(rows, hi - start)]
            for row, rng in zip(part, rngs):  # zip takes no rng past the last row
                fill(rng, row)
            np.cumsum(part, axis=-1, out=part)
            avgs[start : start + len(part)] = part[:, marks - 1] / marks

    _on_two_threads(averages, (0, trials // 2), (trials // 2, trials))
    # np.quantile's default linear rule (numpy's _lerp) on one sort, with its
    # bits: np.quantile itself imports numpy.ma to interpolate
    dev = np.sort(np.abs(avgs - info), axis=0)
    quantiles = {}
    for q in SLLN_QUANTILE_LEVELS:
        v = (trials - 1) * q
        i = math.floor(v)
        t = v - i
        a, b = dev[i], dev[min(i + 1, trials - 1)]
        level = a + (b - a) * t if t < 0.5 else b - (b - a) * (1.0 - t)
        quantiles[q] = np.where(np.isnan(dev[-1]), dev[-1], level)  # a NaN sorts last
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


class DominanceCheck(NamedTuple):
    """One-sided empirical-CDF comparison of shifted block-average LLR sums."""

    k_small: int
    k_large: int
    n: int
    trials: int
    max_gap: float
    slack: float
    passed: bool


def _block_averages(model: DensityModel, k: int, n: int, trials: int, seed: int) -> np.ndarray:
    """(1/n) sum_{i=k}^{k+n} llr(i-k, X_i) with X_i ~ f_{i-1} (change at 1),
    one per trial, sorted.

    The same (seed, k) always reproduces the same draws, so comparing a k
    against itself gives a gap of exactly zero.
    """
    rng = np.random.default_rng(derive_seed(seed, k))
    # X_i ~ f_{i-1} for i = k..k+n, at ratio index i-k
    fill = model.llr_sampler(np.arange(k - 1, k + n), np.arange(n + 1))
    out = np.empty(trials)
    chunk = max(1, _BLOCK_ELEMENTS // (n + 1))
    block = np.empty((min(chunk, trials), n + 1))
    for done in range(0, trials, chunk):
        part = fill(rng, block[: min(chunk, trials - done)])
        np.sum(part, axis=1, out=out[done : done + len(part)])
    out /= n
    out.sort()
    return out


def sum_dominance_check(
    model: DensityModel,
    k_small: int,
    k_large: int,
    n: int,
    trials: int,
    seed: int,
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
    k_small = _checked_integer(k_small, "k_small", 1)
    k_large = _checked_integer(k_large, "k_large", 1)
    n = _checked_integer(n, "n", 1)
    trials = _checked_integer(trials, "trials", 2)
    a, b = _on_two_threads(lambda k: _block_averages(model, k, n, trials, seed), k_small, k_large)
    # the CDF gap at every point of both samples, a chunk of points at a time
    max_gap = -math.inf
    for pts in (a, b):
        for lo in range(0, trials, _BLOCK_ELEMENTS):
            p = pts[lo : lo + _BLOCK_ELEMENTS]
            gap = np.searchsorted(b, p, side="right") / trials - np.searchsorted(a, p, side="right") / trials
            max_gap = max(max_gap, float(gap.max()))
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


class ConditionBudgets(NamedTuple):
    """The seed of the full condition report; its sampling and grid budgets
    are class constants, the one home of each."""

    mlr_ns = (-1, 0, 1, 2, 5, 10, 20, 50)
    mlr_points = 2001
    cesaro_n_max = 100_000
    moment_ks = (1, 10, 100)
    moment_trials = 100_000
    slln_n = 16_000
    slln_trials = 1_000
    dominance_pair = (1, 5)
    dominance_n = 20
    dominance_trials = 100_000
    seed: int = 0


class ConditionReport(NamedTuple):
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


def full_condition_report(model: DensityModel, budgets: ConditionBudgets) -> ConditionReport:
    """Run every condition check and combine the verdicts.

    Overall pass means all sufficient conditions empirically hold at the given
    budgets, stated as evidence consistent with the asymptotic conditions, not
    as proof of them.
    """
    b = budgets
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
