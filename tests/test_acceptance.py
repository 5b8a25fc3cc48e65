"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance and budget is pinned here; nothing is deferred to
later calibration.
"""

import math
import time

import numpy as np
import pytest

from excusum import (
    ChangeSpec,
    CusumState,
    ExCusumState,
    MeanSchedule,
    SrState,
    cesaro_kl_average,
    cusum_step,
    estimate_arl2fa,
    estimate_cadd,
    ex_cusum_step,
    fourth_moment_check,
    gaussian_model,
    generate_path,
    kl_divergence,
    sr_step,
    statistic_trace,
    sum_dominance_check,
)
from excusum.detectors import ex_cusum_brute_all
from excusum.process import derive_seed

I_ARCTAN = math.pi**2 / 8


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


@pytest.fixture(scope="module")
def arctan():
    return gaussian_model(MeanSchedule.arctangent())


def test_criterion_01_oracle_equivalence(arctan):
    t0 = time.time()
    worst = 0.0
    for trial in range(100):
        nu = (1, 80, 250, 10**9)[trial % 4]
        path = generate_path(arctan, ChangeSpec(nu=nu, horizon=500, seed=derive_seed(101, trial)))
        state = ExCusumState()
        stats = np.empty(500)
        for i, x in enumerate(path.samples):
            stats[i] = ex_cusum_step(state, float(x), arctan).statistic
        oracle = ex_cusum_brute_all(path.samples, arctan)
        worst = max(worst, float(np.max(np.abs(stats - oracle))))
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    report(1, "oracle equivalence", ok, f"max |incremental - brute| = {worst:.3e}, {elapsed:.1f}s")


def test_criterion_02_reduction_to_classic_cusum():
    model = gaussian_model(MeanSchedule.constant(0.7))
    t0 = time.time()
    worst = 0.0
    for trial in range(100):
        path = generate_path(model, ChangeSpec(nu=200, horizon=1000, seed=derive_seed(202, trial)))
        ex, cu = ExCusumState(), CusumState()
        for x in path.samples:
            ex_cusum_step(ex, float(x), model)
            cusum_step(cu, float(x), model)
            worst = max(worst, abs(ex.statistic - cu.statistic))
    elapsed = time.time() - t0
    ok = worst < 1e-12 and elapsed < 5.0
    report(2, "constant-schedule reduction", ok, f"max pathwise gap = {worst:.3e}, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_03_sr_martingale_mean():
    # The martingale property holds for every model, but a plain Monte Carlo
    # mean of R_n is only statistically meaningful when the likelihood-ratio
    # products are not too heavy-tailed: for strongly growing schedules the
    # mean of the oldest products sits in a tail quantile that 1e5 draws never
    # reach, and both the estimate and its standard error collapse.  A mild
    # constant schedule keeps the estimator in its normal regime, which is
    # what "equals n within 3 standard errors" presumes.
    model = gaussian_model(MeanSchedule.constant(0.25))
    trials, checkpoints = 100_000, (10, 50)
    t0 = time.time()
    values = {n: np.empty(trials) for n in checkpoints}
    for t in range(trials):
        rng = np.random.default_rng(derive_seed(303, t))
        sr = SrState()
        xs = rng.normal(0.0, 1.0, max(checkpoints))
        for n, x in enumerate(xs, start=1):
            sr_step(sr, float(x), model)
            if n in values:
                values[n][t] = math.exp(sr.log_statistic)
    elapsed = time.time() - t0
    ok = elapsed < 120.0
    details = []
    for n in checkpoints:
        mean = values[n].mean()
        se = values[n].std(ddof=1) / math.sqrt(trials)
        gap = abs(mean - n) / se
        ok = ok and gap <= 3.0
        details.append(f"E[R_{n}]={mean:.3f} ({gap:.2f} se)")
    report(3, "pre-change SR martingale", ok, ", ".join(details) + f", {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_04_false_alarm_bound(arctan):
    t0 = time.time()
    details = []
    ok = True
    for gamma, seed in ((100.0, 404), (500.0, 405)):
        est = estimate_arl2fa(
            arctan, "ex-cusum", math.log(gamma), trials=2000, horizon=int(20 * gamma), seed=seed
        )
        ok = ok and est.lcb95 >= gamma
        details.append(
            f"gamma={gamma:g}: lcb95={est.lcb95:.0f} (mean={est.mean_tau:.0f}, cens={est.censored_fraction:.1%})"
        )
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    report(4, "false-alarm bound", ok, ", ".join(details) + f", {elapsed:.0f}s")


def test_criterion_05_kl_closed_form():
    t0 = time.time()
    worst = 0.0
    for mu in (0.1, 1.0, math.pi / 2):
        model = gaussian_model(MeanSchedule.constant(mu))
        gap = abs(kl_divergence(model, 0, "quadrature") - kl_divergence(model, 0, "closed"))
        worst = max(worst, gap)
    elapsed = time.time() - t0
    ok = worst < 1e-8 and elapsed < 1.0
    report(5, "KL closed form vs quadrature", ok, f"max gap = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_06_information_number(arctan):
    t0 = time.time()
    n = 100_000
    # independent direct-summation oracle for the same running average
    oracle = float(np.sum(np.arctan(np.arange(n, dtype=np.float64)) ** 2 / 2.0) / n)
    impl = cesaro_kl_average(arctan, n).information_number
    elapsed = time.time() - t0
    ok = (
        abs(impl - I_ARCTAN) < 5e-4
        and abs(oracle - I_ARCTAN) < 5e-4
        and abs(impl - oracle) < 1e-9
        and elapsed < 5.0
    )
    report(
        6,
        "information number",
        ok,
        f"avg@1e5 = {impl:.7f} vs pi^2/8 = {I_ARCTAN:.7f} (|diff| = {abs(impl - I_ARCTAN):.2e}), {elapsed:.1f}s",
    )


def test_criterion_07_fourth_moment_bound(arctan):
    t0 = time.time()
    bound = 3.0 * (math.pi / 2) ** 4
    check = fourth_moment_check(arctan, trials=100_000, seed=707, ks=(1, 10, 100))
    ok = check.passed and check.bound == pytest.approx(bound, abs=1e-12)

    unit = fourth_moment_check(
        gaussian_model(MeanSchedule.constant(1.0)), trials=100_000, seed=708, ks=(1,)
    )
    gap_se = abs(unit.estimates[0] - 3.0) / unit.stderrs[0]
    ok = ok and gap_se <= 3.0
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    ests = ", ".join(f"k={k}: {e:.2f}" for k, e in zip(check.ks, check.estimates))
    report(
        7,
        "fourth-moment bound",
        ok,
        f"{ests} <= {bound:.4f}+3se; mu=1 moment {unit.estimates[0]:.3f} ({gap_se:.2f} se), {elapsed:.0f}s",
    )


def first_order_delay_slope(thresholds) -> float:
    """Slope over ``thresholds`` of the first-order delay d*(A) of the arctan
    schedule, computed from the schedule alone.

    K(d) = sum_{j=0}^{d} arctan(j)^2 / 2 is the expected log-likelihood ratio
    collected d samples after the change (the sample at nu has age 0), and
    d*(A) is where K reaches A, linearly interpolated between integer delays.
    No package code is called, so the reference never comes from the program
    under test.
    """
    # every age j >= 1 adds at least arctan(1)^2 / 2 > 1/4, so d*(A) < 4A + 1
    # and the grid never clamps np.interp
    ages = np.arange(int(4 * max(thresholds)) + 64, dtype=np.float64)
    k = np.cumsum(np.arctan(ages) ** 2 / 2.0)
    delays = [float(np.interp(a, k, ages)) for a in thresholds]
    return float(np.polyfit(thresholds, delays, 1)[0])


@pytest.mark.slow
def test_criterion_08_delay_asymptotics(arctan):
    # The paper's rate is first-order asymptotic: delay ~ A / I as A -> inf,
    # with I = pi^2/8 the limit of the per-age divergence arctan(j)^2 / 2.
    # At the pinned thresholds the detector stops 6-10 samples after the
    # change, where the per-age divergence is still 0.99-1.08, so the delay
    # grows at ~1/I_j rather than 1/I.  The check therefore has two parts:
    # (a) the Monte Carlo slope over A in {4, 6, 8} lies within 15% of the
    #     first-order slope s* the schedule gives at those thresholds (a
    #     slope equal to 1/I falls outside that band);
    # (b) s* itself reaches 1/I within 0.1% at A in {4000, 6000, 8000},
    #     which is where the paper states the rate.
    t0 = time.time()
    thresholds = (4.0, 6.0, 8.0)
    means = []
    for j, a in enumerate(thresholds):
        est = estimate_cadd(arctan, "ex-cusum", a, nu=1, trials=10_000, seed=derive_seed(808, j))
        means.append(est.mean_delay)
    slope = float(np.polyfit(thresholds, means, 1)[0])
    s_star = first_order_delay_slope(thresholds)
    rel = abs(slope - s_star) / s_star
    target = 1.0 / I_ARCTAN
    s_limit = first_order_delay_slope((4000.0, 6000.0, 8000.0))
    rel_limit = abs(s_limit - target) / target
    elapsed = time.time() - t0
    ok = rel <= 0.15 and rel_limit <= 1e-3 and elapsed < 600.0
    report(
        8,
        "delay asymptotics",
        ok,
        f"slope = {slope:.4f} vs s* = {s_star:.4f} (rel dev {rel:.1%}, band 15%); "
        f"s*@A=4000-8000 = {s_limit:.5f} vs 1/I = {target:.5f} (rel dev {rel_limit:.3%}, band 0.1%), "
        f"delays = {[f'{m:.2f}' for m in means]}, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_delay_slope_approaches_theory_at_larger_thresholds(arctan):
    """Supplementary to criterion 8 (not itself a criterion).  Criterion 8
    holds the Monte Carlo slope at A in {4, 6, 8} to the finite-threshold rate
    s* and links s* to 1/I deterministically at very large A.  This test is
    the Monte Carlo side of that link: at A in {8, 12, 16}, where stopping
    happens after the schedule has moved closer to its limit, the measured
    slope already lands within 15% of 1/I itself."""
    thresholds = (8.0, 12.0, 16.0)
    means = []
    for j, a in enumerate(thresholds):
        est = estimate_cadd(arctan, "ex-cusum", a, nu=1, trials=10_000, seed=derive_seed(809, j))
        means.append(est.mean_delay)
    slope = float(np.polyfit(thresholds, means, 1)[0])
    target = 1.0 / I_ARCTAN
    assert abs(slope - target) / target <= 0.15


def test_criterion_09_block_sum_dominance(arctan):
    t0 = time.time()
    growing = sum_dominance_check(arctan, 1, 5, 20, trials=100_000, seed=909)
    shrinking_model = gaussian_model(MeanSchedule.from_table([2.0, 1.5, 1.0, 0.5, 0.1]))
    shrinking = sum_dominance_check(shrinking_model, 1, 5, 20, trials=100_000, seed=910)
    elapsed = time.time() - t0
    ok = growing.passed and not shrinking.passed and elapsed < 120.0
    report(
        9,
        "block-sum dominance",
        ok,
        f"growing gap {growing.max_gap:.4f} <= slack {growing.slack:.4f}; "
        f"decreasing-table gap {shrinking.max_gap:.4f} (must exceed slack), {elapsed:.0f}s",
    )


def test_criterion_10_figure_reproduction(arctan):
    t0 = time.time()
    threshold = math.log(1000.0)
    nu, horizon = 80, 200
    quiet = detected = 0
    runs = 1000
    for t in range(runs):
        path = generate_path(arctan, ChangeSpec(nu=nu, horizon=horizon, seed=derive_seed(1010, t)))
        trace = statistic_trace("ex-cusum", arctan, path)
        if float(trace[: nu - 1].max()) < threshold:
            quiet += 1
        crossings = np.nonzero(trace > threshold)[0]
        if crossings.size and nu <= crossings[0] + 1 <= nu + 100:
            detected += 1
    elapsed = time.time() - t0
    ok = quiet >= 950 and detected >= 950 and elapsed < 60.0
    report(
        10,
        "figure reproduction",
        ok,
        f"pre-change quiet {quiet}/{runs}, detected within 100 steps {detected}/{runs}, {elapsed:.0f}s",
    )
