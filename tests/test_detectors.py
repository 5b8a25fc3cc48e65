"""Detector state machines against hand values, the brute-force oracle, and
the structural inequalities between the three statistics."""

import dataclasses
import math

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from excusum import (
    ChangeSpec,
    CusumState,
    ExCusumState,
    MeanSchedule,
    NumericError,
    SrState,
    cusum_step,
    ex_cusum_step,
    gaussian_model,
    generate_path,
    run_detector,
    sr_step,
    statistic_trace,
)
from excusum import detectors
from excusum.numerics import logsumexp_rows
from excusum.process import NO_CHANGE, derive_seed

from brute_force import ex_cusum_brute, ex_cusum_brute_all
from conftest import array_drawer, constant_model


def evolve(model, xs, window=None):
    state = ExCusumState(window=window)
    stats = []
    for x in xs:
        ex_cusum_step(state, float(x), model)
        stats.append(state.statistic)
    return np.array(stats), state


def retained_sums(state):
    """The running sums a state reads, newest candidate first, off its buffer."""
    cands = state._cands
    return cands._buf[cands._pos : cands._pos + cands.active]


# ---------------------------------------------------------------------------
# hand values


def test_hand_worked_two_step_example():
    # schedule (0.5, 0.75), observations (1, 2):
    #   W_1 = 0.5 * (1 - 0.25) = 0.375
    #   candidate 1 gains 0.75 * (2 - 0.375) = 1.21875 -> 1.59375
    #   fresh candidate 2 enters at 0.5 * (2 - 0.25) = 0.875
    model = gaussian_model(MeanSchedule.from_table([0.5, 0.75]))
    stats, state = evolve(model, [1.0, 2.0])
    assert stats[0] == pytest.approx(0.375, abs=1e-15)
    assert stats[1] == pytest.approx(1.59375, abs=1e-15)
    assert retained_sums(state) == pytest.approx([0.875, 1.59375], abs=1e-15)


@pytest.mark.filterwarnings("ignore:schedule is identically zero")
def test_zero_schedule_statistic_is_zero():
    model = constant_model(0.0)
    stats, _ = evolve(model, np.random.default_rng(3).normal(size=50))
    assert np.all(stats == 0.0)


@hypothesis.given(st.floats(min_value=-30, max_value=30))
def test_single_observation_statistic_is_first_llr(x):
    model = gaussian_model(MeanSchedule.arctangent())
    stats, _ = evolve(model, [x])
    assert stats[0] == model.log_ratio(0, x)


def test_fresh_candidate_floor(arctan_model):
    # W_n is at least the newest candidate's single-term sum
    xs = generate_path(arctan_model, ChangeSpec(nu=10, horizon=120, seed=5)).samples
    state = ExCusumState()
    for x in xs:
        ex_cusum_step(state, float(x), arctan_model)
        assert state.statistic >= arctan_model.log_ratio(0, float(x)) - 1e-12
    assert state.n == 120
    assert retained_sums(state).size == 120  # no window: one candidate per step


# ---------------------------------------------------------------------------
# oracle equivalence


def test_incremental_matches_literal_brute_force(arctan_model):
    xs = generate_path(arctan_model, ChangeSpec(nu=7, horizon=40, seed=11)).samples
    stats, _ = evolve(arctan_model, xs)
    for n in (1, 3, 17, 40):
        assert stats[n - 1] == pytest.approx(ex_cusum_brute(xs, arctan_model, n), abs=1e-11)


def test_brute_all_matches_literal_brute_force(arctan_model):
    xs = generate_path(arctan_model, ChangeSpec(nu=3, horizon=25, seed=13)).samples
    all_stats = ex_cusum_brute_all(xs, arctan_model)
    for n in (1, 2, 9, 25):
        assert all_stats[n - 1] == pytest.approx(ex_cusum_brute(xs, arctan_model, n), abs=1e-11)


def test_incremental_matches_brute_all_on_random_paths(arctan_model):
    for t in range(10):
        nu = [1, 5, 40, 10**9][t % 4]
        xs = generate_path(arctan_model, ChangeSpec(nu=nu, horizon=120, seed=derive_seed(17, t))).samples
        stats, _ = evolve(arctan_model, xs)
        oracle = ex_cusum_brute_all(xs, arctan_model)
        assert np.max(np.abs(stats - oracle)) < 1e-9


def test_brute_validates_n(arctan_model):
    with pytest.raises(ValueError):
        ex_cusum_brute([1.0, 2.0], arctan_model, 3)
    with pytest.raises(ValueError):
        ex_cusum_brute([1.0, 2.0], arctan_model, 0)


# ---------------------------------------------------------------------------
# reduction to classic CUSUM and SR domination


def test_constant_schedule_reduces_to_classic_cusum_bitwise():
    model = constant_model(0.6)
    xs = generate_path(model, ChangeSpec(nu=50, horizon=400, seed=23)).samples
    ex = ExCusumState()
    cu = CusumState()
    for x in xs:
        ex_cusum_step(ex, float(x), model)
        cusum_step(cu, float(x), model)
        assert ex.statistic == cu.statistic  # identical float values, not just close


def test_cusum_recursion_matches_max_form(arctan_model):
    # stationary per-sample ratios: the reflected recursion IS the max form
    model = constant_model(0.8)
    xs = generate_path(model, ChangeSpec(nu=1, horizon=60, seed=29)).samples
    cu = CusumState()
    for n, x in enumerate(xs, start=1):
        cusum_step(cu, float(x), model)
        brute = max(
            sum(model.log_ratio(0, float(xs[i - 1])) for i in range(k, n + 1)) for k in range(1, n + 1)
        )
        assert cu.statistic == pytest.approx(brute, abs=1e-12)


def test_sr_log_statistic_dominates_max(arctan_model):
    xs = generate_path(arctan_model, ChangeSpec(nu=20, horizon=150, seed=31)).samples
    ex = ExCusumState()
    sr = SrState()
    for x in xs:
        ex_cusum_step(ex, float(x), arctan_model)
        sr_step(sr, float(x), arctan_model)
        assert sr.log_statistic >= ex.statistic  # sum of positives >= max
    assert retained_sums(sr).size == 150


def test_sr_stops_no_later_than_ex_cusum(arctan_model):
    for t in range(5):
        spec = ChangeSpec(nu=40, horizon=300, seed=derive_seed(37, t))
        path = generate_path(arctan_model, spec)
        a = 5.0
        r_sr = run_detector("sr", arctan_model, path, a, 300)
        r_ex = run_detector("ex-cusum", arctan_model, path, a, 300)
        tau_sr = math.inf if r_sr.tau is None else r_sr.tau
        tau_ex = math.inf if r_ex.tau is None else r_ex.tau
        assert tau_sr <= tau_ex


def test_sr_first_step_is_first_likelihood_ratio(arctan_model):
    sr = SrState()
    sr_step(sr, 1.3, arctan_model)
    assert sr.log_statistic == pytest.approx(arctan_model.log_ratio(0, 1.3), abs=1e-15)


@pytest.mark.filterwarnings("ignore:schedule is identically zero")
def test_sr_zero_schedule_counts_candidates():
    # every likelihood ratio is 1, so R_n = n exactly
    model = constant_model(0.0)
    sr = SrState()
    for n in range(1, 30):
        sr_step(sr, float(np.sin(n)), model)
        assert math.exp(sr.log_statistic) == pytest.approx(n, rel=1e-12)


def test_sr_martingale_small_monte_carlo(arctan_model):
    # E[R_5] = 5 under the pre-change law
    trials = 20_000
    n = 5
    vals = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng(derive_seed(20240815, t))
        sr = SrState()
        for x in rng.normal(0.0, 1.0, n):
            sr_step(sr, float(x), arctan_model)
        vals[t] = math.exp(sr.log_statistic)
    se = vals.std(ddof=1) / math.sqrt(trials)
    assert abs(vals.mean() - n) <= 3 * se


# ---------------------------------------------------------------------------
# windows


def test_window_at_least_horizon_changes_nothing(arctan_model):
    xs = generate_path(arctan_model, ChangeSpec(nu=25, horizon=200, seed=41)).samples
    full, _ = evolve(arctan_model, xs)
    windowed, _ = evolve(arctan_model, xs, window=200)
    assert np.array_equal(full, windowed)
    wider, _ = evolve(arctan_model, xs, window=10_000)
    assert np.array_equal(full, wider)


def test_window_drops_old_candidates(arctan_model):
    xs = generate_path(arctan_model, ChangeSpec(nu=1, horizon=50, seed=43)).samples
    _, state = evolve(arctan_model, xs, window=8)
    full, full_state = evolve(arctan_model, xs)
    # the window keeps the newest 8 candidates, whose sums the full state shares
    assert np.array_equal(retained_sums(state), retained_sums(full_state)[:8])
    # windowed statistic is a max over a subset, so it can never exceed the full one
    windowed, _ = evolve(arctan_model, xs, window=8)
    assert np.all(windowed <= full + 1e-12)


def test_windowed_stop_is_never_earlier(arctan_model):
    for t in range(5):
        spec = ChangeSpec(nu=30, horizon=250, seed=derive_seed(47, t))
        path = generate_path(arctan_model, spec)
        full = run_detector("ex-cusum", arctan_model, path, 6.0, 250)
        small = run_detector("ex-cusum", arctan_model, path, 6.0, 250, window=6)
        tau_full = math.inf if full.tau is None else full.tau
        tau_small = math.inf if small.tau is None else small.tau
        assert tau_small >= tau_full


def test_windowed_buffer_stays_bounded_and_exact(arctan_model, monkeypatch):
    xs = generate_path(arctan_model, ChangeSpec(nu=NO_CHANGE, horizon=200_000, seed=53)).samples
    trace, state = evolve(arctan_model, xs, window=50)
    assert state._cands._buf.size < 4 * 50 + 64
    # a buffer that never fills keeps every sum where it was written
    monkeypatch.setattr(detectors, "_MIN_CAPACITY", xs.size)
    assert np.array_equal(statistic_trace("ex-cusum", arctan_model, xs, window=50), trace)


@pytest.mark.parametrize("rows", [None, 3], ids=["one-stream", "lockstep"])
@pytest.mark.parametrize(
    "kind, window, schedule, head",
    [
        ("ex-cusum", None, MeanSchedule.arctangent(), 20),  # a bounded tail, the delay workload's head
        ("ex-cusum", None, MeanSchedule.arctangent(), 40),  # 2 * 41 columns, past _MIN_CAPACITY
        ("sr", None, MeanSchedule.linear_saturating(0.1, 1.0), None),  # folded at age 10
        ("ex-cusum", None, MeanSchedule.linear_saturating(0.02, 1.0), None),  # folded at age 50
        ("ex-cusum", 50, MeanSchedule.arctangent(), None),  # a window
    ],
    ids=["bounded-20", "bounded-40", "folded-10", "folded-50", "window-50"],
)
def test_a_limited_buffer_starts_at_twice_its_limit_and_never_reallocates(kind, window, schedule, head, rows):
    # a buffer that doubled would hold both copies while it moved the sums
    model = gaussian_model(schedule)
    state = detectors._make_state(kind, window, model, rows, head)
    cands = state._cands
    buf = cands._buf
    assert buf.shape[0] >= 2 * cands.limit and buf.shape[0] == max(64, 2 * cands.limit)
    xs = np.random.default_rng(97).standard_normal((2000,) + ((rows,) if rows else ()))
    for x in xs:
        cands.push(x if rows else float(x), model, state._merge)
        assert cands._buf is buf
    assert cands.active == cands.limit


def test_window_validation():
    with pytest.raises(ValueError):
        ExCusumState(window=0)
    with pytest.raises(ValueError):
        ExCusumState(window=2.5)


def test_window_refuses_a_bool(arctan_model):
    # True is an int subclass; the config refuses it, and so does the engine
    path = generate_path(arctan_model, ChangeSpec(nu=1, horizon=5, seed=67))
    with pytest.raises(ValueError, match=r"^window must be an integer in \[1, "):
        ExCusumState(window=True)
    with pytest.raises(ValueError, match=r"^window must be an integer in \[1, "):
        run_detector("ex-cusum", arctan_model, path, 1.0, 5, window=True)


# ---------------------------------------------------------------------------
# folding saturated candidates

SATURATING = {
    "linear": MeanSchedule.linear_saturating(0.1, 1.0),
    "constant": MeanSchedule.constant(0.6),
    "table": MeanSchedule.from_table([0.2, 0.5, 1.0, 1.0]),
    "geometric": MeanSchedule.geometric_approach(1.3, 0.9),
}


def sr_oracle(samples, model):
    """log R_n for every n by the double loop over (k, i), log-sum-exp over k."""
    xs = np.asarray(samples, dtype=np.float64)
    out = np.full(xs.size, -math.inf)
    for k in range(1, xs.size + 1):
        sums = np.cumsum(model.log_ratio(np.arange(xs.size - k + 1), xs[k - 1 :]))
        np.logaddexp(out[k - 1 :], sums, out=out[k - 1 :])
    return out


@pytest.mark.parametrize("name", list(SATURATING))
def test_folded_traces_match_the_public_states(name):
    # statistic_trace folds at the saturation index; the public states never do
    model = gaussian_model(SATURATING[name])
    cands = detectors._make_state("sr", None, model)._cands
    assert cands.fold and cands.limit == SATURATING[name].saturation_index() + 1
    xs = generate_path(model, ChangeSpec(nu=2500, horizon=5000, seed=79)).samples
    for kind, state, step, value in (
        ("ex-cusum", ExCusumState(), ex_cusum_step, "statistic"),
        ("cusum", CusumState(), cusum_step, "statistic"),
        ("sr", SrState(), sr_step, "log_statistic"),
    ):
        want = np.array([getattr(step(state, float(x), model), value) for x in xs])
        got = statistic_trace(kind, model, xs)
        if kind == "sr":
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
        else:
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("nu", [1, 60, NO_CHANGE])
def test_folded_sr_matches_the_oracle(nu):
    model = gaussian_model(SATURATING["linear"])
    xs = generate_path(model, ChangeSpec(nu=nu, horizon=300, seed=83)).samples
    assert np.allclose(statistic_trace("sr", model, xs), sr_oracle(xs, model), rtol=1e-12, atol=1e-12)


def test_folded_buffer_keeps_the_head_and_one_tail(monkeypatch):
    model = gaussian_model(SATURATING["linear"])  # L = 10
    xs = generate_path(model, ChangeSpec(nu=NO_CHANGE, horizon=200_000, seed=89)).samples
    state = detectors._make_state("ex-cusum", None, model)
    trace = np.array([detectors._step(state, float(x), model) for x in xs])
    assert state._cands.active == 11
    assert state._cands._buf.size < 4 * 11 + 64
    # a buffer that never fills keeps every sum where it was written
    monkeypatch.setattr(detectors, "_MIN_CAPACITY", xs.size)
    assert np.array_equal(statistic_trace("ex-cusum", model, xs), trace)


def assert_sr_bound_reaches_every_row(sums, scale):
    # an SR lockstep step computes logsumexp_rows only on the rows whose
    # _sr_bound reaches the loop's ceiling, and takes its step-level bound
    # from the largest max and scale; an unfolded row (no scale) weighs its
    # last column by 1, which leaves its statistic's bits as they are
    columns = sums.shape[0]
    m = np.maximum.reduce(sums, axis=0)
    weight = np.ones(sums.shape[1]) if scale is None else scale
    exact = logsumexp_rows(sums, None, weight, m)
    assert exact.tobytes() == logsumexp_rows(sums, None, scale).tobytes()
    bound = detectors._sr_bound(m, columns, weight)
    assert np.all(bound >= exact), (bound - exact).min()
    top = detectors._sr_bound(np.maximum.reduce(m), columns, np.maximum.reduce(weight))
    assert top >= exact.max()


@hypothesis.given(st.integers(min_value=0, max_value=2**32 - 1))
def test_sr_bound_is_at_least_every_rows_log_sum_exp(seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 40))
    folded = 1.0 + rng.random(rows) * float(rng.choice([1.0, 1e3, 2.0**24]))
    # a folded row keeps a few hundred sums at most, an unfolded one up to the horizon
    for top, scale in ((300, None), (300, folded), (2**13, None)):
        columns = int(rng.integers(1, top))
        sums = rng.normal(float(rng.normal(0.0, 200.0)), float(rng.choice([1e-9, 0.1, 3.0, 100.0])), (columns, rows))
        # whole -inf columns, and -inf entries (all of a row, sometimes)
        sums[rng.random(columns) < 0.1] = -math.inf
        sums[rng.random(sums.shape) < float(rng.choice([0.0, 0.3, 0.97]))] = -math.inf
        assert_sr_bound_reaches_every_row(sums, scale)


@pytest.mark.parametrize("columns, last", [(1, 2**17), (2, 2**17), (11, 2**17), (129, 2**12), (2**12, 2**12 + 300)])
def test_sr_bound_holds_where_every_candidate_is_equal(columns, last):
    # the zero schedule: every sum is 0 and the tail scale counts the folded
    # candidates, so R_n = n exactly, at every n to `last` and at 2**20 and
    # 2**24; the step bound's numpy log rounds below math.log at some n
    n = np.concatenate([np.arange(columns, last), [2**20, 2**24 - 1, 2**24]])
    scale = (n - columns + 1).astype(np.float64)
    assert_sr_bound_reaches_every_row(np.zeros((columns, n.size)), scale)
    assert_sr_bound_reaches_every_row(np.full((columns, n.size), -7.25), scale)
    assert_sr_bound_reaches_every_row(np.zeros((columns, 1)), None)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_sr_bound_of_an_infinite_or_nan_row_reaches_any_ceiling():
    # such a row must always take the exact path, which raises on it
    sums = np.zeros((5, 6))
    sums[2, 0], sums[4, 1], sums[0, 2] = math.inf, math.inf, math.nan
    sums[:, 3] = -math.inf
    scale = np.array([1.0, 2.0, 1.0, 3.0, math.inf, math.nan])
    m = np.maximum.reduce(sums, axis=0)
    bound = detectors._sr_bound(m, 5, scale)
    assert not np.any(bound[[0, 1, 2, 4, 5]] < math.inf)
    assert bound[3] == -math.inf
    assert not detectors._sr_bound(np.maximum.reduce(m), 5, np.maximum.reduce(scale)) < math.inf
    assert not detectors._sr_bound(np.maximum.reduce(m[:3]), 5, np.maximum.reduce(scale[:3])) < math.inf


# ---------------------------------------------------------------------------
# the worst case over change points


def test_pre_change_history_never_lowers_the_statistic():
    # after the change at nu, a run with history is at least the run started
    # fresh at nu on the same post-change data, so the delay at nu = 1 is the
    # worst case over change points and histories (Lorden 1971); max-based
    # kinds compare exactly, SR's log-sum-exp shifts by another max
    schedules = [
        MeanSchedule.arctangent(),
        MeanSchedule.linear_saturating(0.1, 1.0),  # a folded run
        MeanSchedule.geometric_approach(1.3, 0.9),
        MeanSchedule.constant(0.8),
    ]
    runs = [("ex-cusum", None, 0.0), ("ex-cusum", 7, 0.0), ("cusum", None, 0.0), ("sr", None, 1e-12)]
    rng = np.random.default_rng(61)
    for trial in range(240):
        model = gaussian_model(schedules[trial % 4])
        nu, post = int(rng.integers(1, 61)), int(rng.integers(1, 81))
        xs = generate_path(model, ChangeSpec(nu=nu, horizon=nu - 1 + post, seed=derive_seed(67, trial))).samples
        for kind, window, slack in runs:
            seen = statistic_trace(kind, model, xs, window=window)[nu - 1 :]
            fresh = statistic_trace(kind, model, xs[nu - 1 :], window=window)
            assert np.all(seen >= fresh - slack), (trial, kind, window)


# ---------------------------------------------------------------------------
# threshold monotonicity


@hypothesis.given(st.integers(min_value=0, max_value=2**32 - 1))
@hypothesis.settings(max_examples=20)
def test_stopping_time_is_monotone_in_threshold(seed):
    model = gaussian_model(MeanSchedule.arctangent())
    path = generate_path(model, ChangeSpec(nu=10, horizon=150, seed=seed))
    taus = []
    for a in (1.0, 3.0, 6.0):
        res = run_detector("ex-cusum", model, path, a, 150)
        taus.append(math.inf if res.tau is None else res.tau)
    assert taus[0] <= taus[1] <= taus[2]


# ---------------------------------------------------------------------------
# run_detector semantics


def test_threshold_below_floor_stops_immediately(arctan_model):
    path = generate_path(arctan_model, ChangeSpec(nu=1, horizon=10, seed=53))
    res = run_detector("ex-cusum", arctan_model, path, -1.0, 10)
    assert res.tau == 1


def test_infinite_threshold_censors(arctan_model):
    path = generate_path(arctan_model, ChangeSpec(nu=1, horizon=25, seed=59))
    res = run_detector("ex-cusum", arctan_model, path, math.inf, 25)
    assert res.tau is None and res.censored_at == 25


@pytest.mark.filterwarnings("ignore:schedule is identically zero")
def test_strict_versus_weak_crossing_at_exact_threshold():
    # zero schedule keeps W_n = 0 exactly: the strict rule never fires at
    # threshold 0, the baseline's weak rule fires at once
    model = constant_model(0.0)
    xs = np.random.default_rng(61).normal(size=20)
    assert run_detector("ex-cusum", model, xs, 0.0, 20).tau is None
    assert run_detector("cusum", model, xs, 0.0, 20).tau == 1
    assert run_detector("sr", model, xs, math.log(20.0), 20).tau is None  # R_n = n < 20 until the end


def test_run_detector_validates_inputs(arctan_model):
    path = generate_path(arctan_model, ChangeSpec(nu=1, horizon=5, seed=67))
    with pytest.raises(ValueError):
        run_detector("bogus", arctan_model, path, 1.0, 5)
    with pytest.raises(ValueError):
        run_detector("ex-cusum", arctan_model, path, math.nan, 5)
    with pytest.raises(ValueError):
        run_detector("ex-cusum", arctan_model, path, 1.0, 0)
    with pytest.raises(ValueError):
        run_detector("sr", arctan_model, path, 1.0, 5, window=3)
    with pytest.raises(ValueError):
        run_detector("ex-cusum", arctan_model, path.samples[:3], 100.0, 5)  # stream too short


def test_non_finite_statistic_aborts_with_diagnostics():
    broken = gaussian_model(MeanSchedule.arctangent())
    xs = [0.5, float("nan"), 0.5]
    with pytest.raises(ValueError):
        # NaN observation is a domain error before the statistic is touched
        run_detector("ex-cusum", broken, xs, 10.0, 3)

    import excusum.models as m

    weird = m.DensityModel(
        pre_change_log_density=lambda x: np.zeros_like(np.asarray(x, float)),
        post_change_log_density=lambda n, x: np.where(np.asarray(x, float) > 1.0, np.inf, 0.0),
        sampler_pre=lambda rng, size=None: rng.normal(0.0, 1.0, size),
        sampler_post=lambda n, rng, size=None: rng.normal(0.0, 1.0, size),
        support=(-math.inf, math.inf),
    )
    with pytest.raises(NumericError, match="step 2"):
        run_detector("ex-cusum", weird, [0.0, 2.0, 0.0], 10.0, 3)


@pytest.mark.parametrize("support", [(-math.inf, math.inf), (-20.0, 20.0)], ids=["unbounded", "bounded"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 25.0], ids=["nan", "inf", "-inf", "outside"])
def test_both_runners_report_a_non_finite_observation_alike(support, bad):
    model = dataclasses.replace(constant_model(1.0), support=support)
    xs = np.array([0.5, bad, 0.5])
    # a second run reads a value outside the bounded support at the same step
    other = np.array([0.5, -30.0, 0.5])
    if math.isfinite(bad) and support[1] == math.inf:
        for kind in detectors.DETECTORS:
            want = [run_detector(kind, model, x, 10.0, 3).tau or 0 for x in (xs, other)]
            assert detectors._lockstep(kind, model, array_drawer([xs, other]), 2, 10.0, 3, None, None).tolist() == want
        return
    message = "observation 25.0 outside support [-20.0, 20.0]" if math.isfinite(bad) else "observation must be finite"
    for kind in detectors.DETECTORS:
        with pytest.raises(ValueError) as single:
            run_detector(kind, model, xs, 10.0, 3)
        with pytest.raises(ValueError) as batch:
            detectors._lockstep(kind, model, array_drawer([xs, other]), 2, 10.0, 3, None, None)
        assert str(single.value) == str(batch.value) == message, kind


def test_median_stopping_time_after_immediate_change(arctan_model):
    taus = []
    a = math.log(1000.0)
    for t in range(10_000):
        spec = ChangeSpec(nu=1, horizon=80, seed=derive_seed(883, t))
        res = run_detector("ex-cusum", arctan_model, generate_path(arctan_model, spec), a, 80)
        assert res.tau is not None
        taus.append(res.tau)
    med = float(np.median(taus))
    assert 4 <= med <= 10


def test_statistic_trace_matches_stepping(arctan_model):
    path = generate_path(arctan_model, ChangeSpec(nu=5, horizon=60, seed=71))
    trace = statistic_trace("ex-cusum", arctan_model, path)
    manual, _ = evolve(arctan_model, path.samples)
    assert np.array_equal(trace, manual)
    sr_trace = statistic_trace("sr", arctan_model, path)
    assert np.all(sr_trace >= trace)
