"""Monte Carlo estimators: ARL, conditional delay, tradeoff rows."""

import dataclasses
import itertools
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest

from excusum import (
    NO_CHANGE,
    ChangeSpec,
    DensityModel,
    EstimationError,
    MeanSchedule,
    NumericError,
    estimate_arl2fa,
    estimate_cadd,
    gaussian_model,
    generate_path,
    run_detector,
    simulate_trials,
    tradeoff_curve,
)
from excusum import detectors, metrics, process
from excusum.metrics import Z95, TrialOutcome, default_delay_horizon
from excusum.detectors import StopResult
from excusum.process import derive_seed

from conftest import array_drawer, constant_model, generic_gaussian_model, windowed_gaussian_model, with_information_number

I_ARCTAN = math.pi**2 / 8


# ---------------------------------------------------------------------------
# outcome bookkeeping


def test_trial_outcome_classification():
    det = TrialOutcome.from_stop(StopResult(12, None), nu=10)
    assert det.delay == 2 and not det.false_alarm

    fa = TrialOutcome.from_stop(StopResult(4, None), nu=10)
    assert fa.delay is None and fa.false_alarm

    cen = TrialOutcome.from_stop(StopResult(None, 50), nu=10)
    assert cen.delay is None and not cen.false_alarm and cen.tau is None and cen.censored_at == 50

    always_fa = TrialOutcome.from_stop(StopResult(99, None), nu=NO_CHANGE)
    assert always_fa.false_alarm and always_fa.delay is None

    at_change = TrialOutcome.from_stop(StopResult(10, None), nu=10)
    assert not at_change.false_alarm and at_change.delay == 0

    for both_or_neither in ((12, 50), (None, None)):
        with pytest.raises(ValueError, match="exactly one"):
            StopResult(*both_or_neither)


def test_result_records_keep_their_repr_fields_and_pickle():
    arl = metrics.ArlEstimate(mean_tau=120.5, stderr=3.25, lcb95=115.0, censored_fraction=0.0, trials=8)
    cadd = metrics.CaddEstimate(
        nu=5, mean_delay=2.5, stderr=0.5, accepted=7, acceptance_rate=0.875, censored=0, trials=8
    )
    row = metrics.TradeoffRow(gamma=100.0, threshold=4.5, arl=arl, cadd=cadd, bound=3.75)
    outcome = TrialOutcome(tau=12, censored_at=None, nu=10)
    arl_repr = "ArlEstimate(mean_tau=120.5, stderr=3.25, lcb95=115.0, censored_fraction=0.0, trials=8)"
    cadd_repr = (
        "CaddEstimate(nu=5, mean_delay=2.5, stderr=0.5, accepted=7, acceptance_rate=0.875, censored=0, trials=8)"
    )
    assert repr(arl) == arl_repr
    assert repr(cadd) == cadd_repr
    assert repr(row) == f"TradeoffRow(gamma=100.0, threshold=4.5, arl={arl_repr}, cadd={cadd_repr}, bound=3.75)"
    assert repr(outcome) == "TrialOutcome(tau=12, censored_at=None, nu=10)"
    assert (arl.lcb95, cadd.accepted, row.cadd.mean_delay) == (115.0, 7, 2.5)
    assert (outcome.delay, outcome.false_alarm) == (2, False)
    for record in (arl, cadd, row, outcome):
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and copy == record and repr(copy) == repr(record)
    with pytest.raises(AttributeError):
        arl.trials = 9


def test_z95_is_the_one_sided_normal_quantile():
    from scipy import stats

    assert Z95 == float(stats.norm.ppf(0.95))


# ---------------------------------------------------------------------------
# lockstep trials against the per-trial loop


def per_trial_taus(model, kind, threshold, nu, horizon, trials, seed, window=None):
    """The reference: every trial alone through run_detector on its own path,
    read as a stream that draws each block of generate_path's as it is
    reached, with the stopping times as simulate_trials reports them (0 for a
    censored trial)."""
    out = np.empty(trials, dtype=np.int64)
    for i in range(trials):
        draw = process._block_drawer(model, nu, horizon, [np.random.default_rng(derive_seed(seed, i))])
        out[i] = run_detector(kind, model, lazy_path(draw, horizon), threshold, horizon, window=window).tau or 0
    return out


def lazy_path(draw, horizon):
    """One run's observations, each block drawn by ``draw`` once it is reached."""
    t = 1
    while t <= horizon:
        block = draw(np.zeros(1, np.intp), t)[:, 0]
        yield from block.tolist()
        t += block.size


GATE_HORIZON, GATE_TRIALS = 30, 23


GATE_MODELS = {
    "gaussian": lambda: gaussian_model(MeanSchedule.arctangent()),
    "no-fast-path": lambda: generic_gaussian_model(MeanSchedule.arctangent()),
    # saturates at age 10, so the runs fold every candidate past it into one tail
    "saturating": lambda: gaussian_model(MeanSchedule.linear_saturating(0.1, 1.0)),
}


@pytest.mark.parametrize("sample_block", [None, 7], ids=["one-block", "blocks-of-7"])
@pytest.mark.parametrize("model_name", list(GATE_MODELS))
@pytest.mark.parametrize("threshold", [-5.0, 3.0, 8.0])
@pytest.mark.parametrize("nu", [1, 25, NO_CHANGE])
@pytest.mark.parametrize("kind, window", [("ex-cusum", None), ("ex-cusum", 3), ("sr", None), ("cusum", None)])
def test_lockstep_trials_equal_per_trial_runs(kind, window, nu, threshold, model_name, sample_block, monkeypatch):
    if sample_block:
        # paths drawn in blocks of 7 break at 7, 14, 21, 28, and at nu - 1 = 24
        monkeypatch.setattr(process, "_CHUNK", sample_block)
    model = GATE_MODELS[model_name]()
    want = per_trial_taus(model, kind, threshold, nu, GATE_HORIZON, GATE_TRIALS, 61, window)
    if threshold == -5.0:
        assert np.all(want == 1)
    for chunk in (1, 7, GATE_TRIALS):
        monkeypatch.setattr(metrics, "_CHUNK_ELEMENTS", chunk * GATE_HORIZON)
        got = simulate_trials(model, kind, threshold, nu, GATE_HORIZON, GATE_TRIALS, 61, window=window)
        assert got.dtype == np.int64 and np.array_equal(got, want), f"chunk size {chunk}"


@pytest.mark.parametrize("model_name", ["gaussian", "no-fast-path"])
@pytest.mark.parametrize("nu", [1, 7, 8, 25, 40, NO_CHANGE])
@pytest.mark.parametrize("kind, window", [("ex-cusum", None), ("ex-cusum", 3), ("sr", None), ("cusum", None)])
def test_block_drawer_trials_equal_runs_on_generate_path(kind, window, nu, model_name, monkeypatch):
    # blocks of 7 steps end at 7, 14, 21 and 28, and at nu - 1 (6 falls
    # before the first end and 7 on it, 24 between two; 40 is past the
    # horizon); tiles of 5 runs split the chunks, and a stopped run's column
    # leaves the next block
    monkeypatch.setattr(process, "_CHUNK", 7)
    monkeypatch.setattr(process, "_TILE_ROWS", 5)
    model = GATE_MODELS[model_name]()
    paths = [generate_path(model, ChangeSpec(nu, GATE_HORIZON, derive_seed(61, i))) for i in range(GATE_TRIALS)]
    for threshold in (3.0, 8.0):
        want = [run_detector(kind, model, p, threshold, GATE_HORIZON, window=window).tau or 0 for p in paths]
        for chunk in (7, GATE_TRIALS):
            monkeypatch.setattr(metrics, "_CHUNK_ELEMENTS", chunk * GATE_HORIZON)
            got = simulate_trials(model, kind, threshold, nu, GATE_HORIZON, GATE_TRIALS, 61, window=window)
            assert np.array_equal(got, want), (threshold, chunk)


def test_lockstep_chunks_are_sized_by_what_a_live_trial_holds(monkeypatch):
    sizes = []

    def record(runs):
        sizes.append(runs)
        return np.zeros(runs, np.int64)

    monkeypatch.setattr(metrics, "_lockstep", lambda kind, model, draw, runs, *rest: record(runs))
    arctan = gaussian_model(MeanSchedule.arctangent())
    saturating = gaussian_model(MeanSchedule.linear_saturating(0.1, 1.0))
    # a live trial with a fold, window or bounded tail holds its column of a
    # sample block, its buffer of max(64, 2 limit) columns, its ratio scratch
    # of limit, a bounded trial's two envelope pieces of 16 and its generator
    # (80); one whose sums grow with n is counted at its horizon
    bounded = 2**18 // (256 + 64 + 17 + 32 + 80)  # head 16 at gamma 100
    folded = 2**18 // (256 + 64 + 11 + 80)  # saturates at age 10
    for kind, model, window, threshold, horizon, chunk in (
        ("ex-cusum", arctan, None, math.log(1000), 140, 2**18 // (140 + 64 + 21 + 32 + 80)),  # delay, head 20
        ("ex-cusum", arctan, None, math.log(100), 2000, bounded),  # false-alarm
        ("sr", saturating, None, math.log(300), 6000, folded),  # sr-saturating
        ("ex-cusum", arctan, None, math.log(100), 200_000, bounded),
        ("ex-cusum", arctan, None, 100.0, 2000, 2**18 // 2000),  # the head passes its cap
        ("sr", arctan, None, 4.0, 200_000, 1),  # sums grow with the horizon
        ("ex-cusum", saturating, None, 4.0, 200_000, folded),
        ("cusum", arctan, None, 4.0, 200_000, 2**18 // (256 + 64 + 1 + 80)),
        ("ex-cusum", arctan, 50, 4.0, 200_000, 2**18 // (256 + 100 + 50 + 80)),
    ):
        sizes.clear()
        simulate_trials(model, kind, threshold, NO_CHANGE, horizon, chunk + 1, 3, window=window)
        assert sizes == [chunk, 1], (kind, threshold, horizon, window)
    # the delay workload's 2000 trials take 3 chunks; false-alarm's 250 and sr-saturating's 220 one each
    assert (bounded, folded) == (583, 637)


def exact_taus(model, threshold, nu, horizon, trials, seed):
    """The exact kernel: every trial's own path through _lockstep with no envelope."""
    draw = process._block_drawer(model, nu, horizon, list(process.trial_generators(seed, np.arange(trials))))
    return detectors._lockstep("ex-cusum", model, draw, trials, threshold, horizon, None, None)


def count_reruns(monkeypatch, bounded=None) -> list:
    """Record the trial count of every exact lockstep chunk simulate_trials
    runs (its reruns, on a bounded run); ``bounded``, if given, replaces the
    bounded pass, a function of the chunk's trial count."""
    reruns = []
    lockstep = detectors._lockstep

    def counted(kind, model, draw, runs, threshold, horizon, window, envelope):
        if envelope is None:
            reruns.append(runs)
        elif bounded is not None:
            return bounded(runs)
        return lockstep(kind, model, draw, runs, threshold, horizon, window, envelope)

    monkeypatch.setattr(metrics, "_lockstep", counted)
    return reruns


@pytest.mark.parametrize(
    "threshold, nu, horizon, trials",
    [(math.log(100), NO_CHANGE, 2000, 60), (math.log(1000), 80, 140, 300)],
    ids=["false-alarm", "delay"],
)
def test_certified_tail_runs_equal_the_exact_kernel(threshold, nu, horizon, trials, monkeypatch):
    model = gaussian_model(MeanSchedule.arctangent())
    assert detectors._certified_tail("ex-cusum", None, model, threshold, horizon) is not None
    reruns = count_reruns(monkeypatch)
    got = simulate_trials(model, "ex-cusum", threshold, nu, horizon, trials, 17)
    assert np.array_equal(got, exact_taus(model, threshold, nu, horizon, trials, 17))
    assert sum(reruns) < trials // 10


@pytest.mark.parametrize(
    "schedule, threshold, nu, horizon",
    [
        (MeanSchedule.arctangent(), 1.0, 20, 300),
        (MeanSchedule.arctangent(), 4.0, NO_CHANGE, 300),
        (MeanSchedule.geometric_approach(1000.0, 0.999999), 2.0, 1, 1000),
    ],
    ids=["arctan-delay", "arctan-false-alarm", "geometric"],
)
def test_uncertified_trials_rerun_to_the_exact_stopping_times(schedule, threshold, nu, horizon, monkeypatch):
    # a head of one candidate leaves the crossings to the tail, whose bound
    # then comes within the margin of the threshold in many trials
    model = gaussian_model(schedule)
    monkeypatch.setattr(detectors, "_head", lambda model, threshold: 1)
    assert detectors._certified_tail("ex-cusum", None, model, threshold, horizon) is not None
    reruns = count_reruns(monkeypatch)
    got = simulate_trials(model, "ex-cusum", threshold, nu, horizon, 60, 5)
    assert np.array_equal(got, exact_taus(model, threshold, nu, horizon, 60, 5))
    assert sum(reruns) >= 1


def test_the_head_grows_with_the_threshold_up_to_its_cap():
    # twice the fewest ages whose KL numbers reach A, at least 8 and at most 60
    arctan = gaussian_model(MeanSchedule.arctangent())
    assert [detectors._head(arctan, math.log(gamma)) for gamma in (10, 100, 1000, 1e5)] == [10, 16, 20, 28]
    assert detectors._head(arctan, -math.inf) == detectors._head(arctan, 0.0) == 8
    reach = float(np.cumsum(arctan.kl(np.arange(30)))[-1])  # what 30 ages sum to
    assert detectors._head(arctan, reach) == 60
    assert detectors._head(arctan, float(np.nextafter(reach, math.inf))) is None
    assert detectors._head(arctan, 20.0) == 42 and detectors._head(arctan, 40.0) is None


def test_past_the_head_cap_no_trial_runs_bounded(monkeypatch):
    # at A = 50 and nu = 1 the head would be 2 * 47: every trial runs once, exactly
    model = gaussian_model(MeanSchedule.arctangent())
    horizon = default_delay_horizon(1, 50.0, I_ARCTAN)
    reruns = count_reruns(monkeypatch, bounded=lambda runs: pytest.fail("a trial ran bounded"))
    got = simulate_trials(model, "ex-cusum", 50.0, 1, horizon, 100, 7)
    assert np.array_equal(got, exact_taus(model, 50.0, 1, horizon, 100, 7))
    assert reruns == [100]


def test_a_delay_run_holds_its_chunk_budget():
    # the delay workload's settings: three chunks of at most 777 bounded trials,
    # each within _CHUNK_ELEMENTS (2 MiB) where the doubling buffer and the
    # block-wide envelope once took 7.4 MiB
    model = gaussian_model(MeanSchedule.arctangent())
    simulate_trials(model, "ex-cusum", math.log(1000), 80, 140, 10, 11)  # the schedule's cache
    tracemalloc.start()
    try:
        simulate_trials(model, "ex-cusum", math.log(1000), 80, 140, 2000, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


def test_runs_whose_block_leaves_the_x_bound_rerun_exactly(monkeypatch):
    # pre-change draws pass |x| = 1.5 in most blocks; those blocks send their
    # runs, not only the runs that read the large value, back to the exact state
    model = gaussian_model(MeanSchedule.arctangent())
    monkeypatch.setattr(detectors, "_X_BOUND", 1.5)
    reruns = count_reruns(monkeypatch)
    got = simulate_trials(model, "ex-cusum", 4.0, NO_CHANGE, 600, 40, 9)
    assert np.array_equal(got, exact_taus(model, 4.0, NO_CHANGE, 600, 40, 9))
    assert sum(reruns) == 40


def test_bounded_runs_check_a_narrower_support_like_run_detector():
    # |x| < _X_BOUND no longer implies the support, so the bounded runs check
    # each block, and its runs step by step where a value falls outside
    model = dataclasses.replace(gaussian_model(MeanSchedule.arctangent()), support=(-3.0, 3.0))
    assert detectors._certified_tail("ex-cusum", None, model, 20.0, 2000) is not None
    spec = ChangeSpec(nu=NO_CHANGE, horizon=2000, seed=derive_seed(9, 0))
    with pytest.raises(ValueError, match=r"outside support \[-3.0, 3.0\]"):
        run_detector("ex-cusum", model, generate_path(model, spec), 20.0, 2000)
    with pytest.raises(ValueError, match=r"outside support \[-3.0, 3.0\]"):
        simulate_trials(model, "ex-cusum", 20.0, NO_CHANGE, 2000, 8, 9)


def test_a_bad_value_only_a_stopped_run_would_read_is_never_checked():
    # one block of 8 steps per run; run 0 crosses at step 1, and its block
    # holds a NaN and an out-of-support value from step 4 on, which fail the
    # block's check, so the live runs' steps are checked one by one instead
    model = dataclasses.replace(constant_model(1.0), support=(-20.0, 20.0))
    blocks = np.zeros((3, 8))
    blocks[0, :3] = 10.0
    blocks[0, 3:5] = np.nan, 25.0

    for kind in ("ex-cusum", "sr", "cusum"):
        want = [run_detector(kind, model, b, 5.0, 8) for b in blocks]
        assert [r.tau for r in want] == [1, None, None]
        assert detectors._lockstep(kind, model, array_drawer(blocks), 3, 5.0, 8, None, None).tolist() == [1, 0, 0]
        # a live run's bad value still raises, at its step
        bad = blocks.copy()
        bad[2, 6] = 25.0
        with pytest.raises(ValueError, match="outside support"):
            detectors._lockstep(kind, model, array_drawer(bad), 3, 5.0, 8, None, None)
        bad[1, 5] = np.inf
        with pytest.raises(ValueError, match="finite"):
            detectors._lockstep(kind, model, array_drawer(bad), 3, 5.0, 8, None, None)


def test_exact_reruns_run_in_chunks_sized_for_the_exact_state(monkeypatch):
    # an exact trial on arctan holds up to horizon sums, so its reruns take
    # _CHUNK_ELEMENTS // horizon trials at a time, not the bounded chunk
    model = gaussian_model(MeanSchedule.arctangent())
    horizon = 2**14
    reruns = count_reruns(monkeypatch, bounded=lambda runs: np.full(runs, -1))
    got = simulate_trials(model, "ex-cusum", 2.0, 1, horizon, 40, 3)
    assert np.array_equal(got, exact_taus(model, 2.0, 1, horizon, 40, 3))
    assert metrics._CHUNK_ELEMENTS // horizon == 16 and reruns == [16, 16, 8]


def test_certified_tail_applies_to_bounded_ex_cusum_runs_only(monkeypatch):
    arctan = gaussian_model(MeanSchedule.arctangent())
    no_envelope = with_information_number(generic_gaussian_model(MeanSchedule.arctangent()), I_ARCTAN)
    far_limit = gaussian_model(MeanSchedule.geometric_approach(1000.0, 0.999999))
    assert detectors._certified_tail("ex-cusum", None, arctan, 4.0, 100)[0] == 14
    assert detectors._certified_tail("ex-cusum", None, arctan, 4.0, 16)[0] == 14

    def integrated(self, index):
        raise AssertionError("a family without an envelope integrated a KL number")

    monkeypatch.setattr(DensityModel, "kl", integrated)
    for kind, window, model, threshold, horizon in (
        ("sr", None, arctan, 4.0, 100),
        ("cusum", None, arctan, 4.0, 100),
        ("ex-cusum", 50, arctan, 4.0, 100),
        ("ex-cusum", None, gaussian_model(MeanSchedule.linear_saturating(0.1, 1.0)), 4.0, 100),
        ("ex-cusum", None, no_envelope, 4.0, 100),
        ("ex-cusum", None, arctan, 4.0, 15),  # no candidate gets past age 14
        ("ex-cusum", None, arctan, 40.0, 2000),  # a head of 2 * 38 passes the cap
        ("ex-cusum", None, far_limit, 2.0, 1000),  # means near 0.001 j: a head of about 460
        ("ex-cusum", None, arctan, math.inf, 100),
        ("ex-cusum", None, arctan, 2.0**11, 100),  # past the margin's thresholds
        ("ex-cusum", None, arctan, 4.0, 2**24 + 1),  # past its horizons
        ("ex-cusum", None, far_limit, 4.0, 20_000),  # means up to 20, past its means
    ):
        assert detectors._certified_tail(kind, window, model, threshold, horizon) is None, (kind, threshold, horizon)


def count_settled_steps(monkeypatch) -> tuple[list, list]:
    """Record the live rows of every lockstep step, and the (step, rows) of
    every logsumexp_rows call the steps make, steps counted from 1."""
    live, computed = [], []
    push, logsumexp_rows = detectors._CandidateBuffer.push, detectors.logsumexp_rows

    def counted_push(self, *args):
        view = push(self, *args)
        live.append(view.shape[1])
        return view

    def counted_logsumexp_rows(values, *args):
        computed.append((len(live), values.shape[1]))
        return logsumexp_rows(values, *args)

    monkeypatch.setattr(detectors._CandidateBuffer, "push", counted_push)
    monkeypatch.setattr(detectors, "logsumexp_rows", counted_logsumexp_rows)
    return live, computed


def test_sr_bound_applies_to_sr_runs_in_range_only(monkeypatch):
    # folded or not, an SR run in range whose statistic stays far below the
    # threshold computes no log-sum-exp; out of range every step computes one
    assert detectors._sr_bound_holds(4.0, 2**24)
    assert detectors._sr_bound_holds(-(2.0**11) + 1.0, 100)
    assert detectors._sr_bound_holds(2.0**11 - 1.0, 100)
    for threshold, horizon in ((2.0**11, 100), (-(2.0**11), 100), (math.inf, 100), (4.0, 2**24 + 1)):
        assert not detectors._sr_bound_holds(threshold, horizon), (threshold, horizon)
    live, computed = count_settled_steps(monkeypatch)
    for schedule in (MeanSchedule.linear_saturating(0.1, 1.0), MeanSchedule.arctangent()):
        model = gaussian_model(schedule)
        live.clear()
        assert not simulate_trials(model, "sr", 50.0, NO_CHANGE, 300, 4, 3).any()
        assert len(live) == 300 and computed == []
        live.clear()
        # with no RuntimeWarning, which the test configuration makes an error
        assert not simulate_trials(model, "sr", 2.0**11, NO_CHANGE, 300, 4, 3).any()
        assert computed == [(t, 4) for t in range(1, 301)]
        computed.clear()


@pytest.mark.parametrize("nu", [1, 25, NO_CHANGE])
def test_sr_trials_at_the_edges_of_the_bound_ranges_equal_per_trial_runs(nu):
    # at thresholds of +-2**11 every step settles through logsumexp_rows, one
    # below them the bound rules steps out; on a constant mean of 64 a
    # post-change step adds about 2**11, so the runs cross near those thresholds
    models = (
        gaussian_model(MeanSchedule.linear_saturating(0.1, 1.0)),
        gaussian_model(MeanSchedule.arctangent()),
        constant_model(64.0),
    )
    for model in models:
        for threshold in (-(2.0**11), -(2.0**11) + 1.0, 2.0**11 - 1.0, 2.0**11):
            want = per_trial_taus(model, "sr", threshold, nu, GATE_HORIZON, GATE_TRIALS, 61)
            got = simulate_trials(model, "sr", threshold, nu, GATE_HORIZON, GATE_TRIALS, 61)
            assert np.array_equal(got, want), (model.schedule.kind, threshold)


def test_lockstep_chunks_of_bounded_trials_equal_chunks_of_one(monkeypatch):
    # with sample blocks of 7 a folded trial holds 7 + 11 values, so 400
    # elements make chunks of 22 trials where the horizon alone gave 1
    monkeypatch.setattr(process, "_CHUNK", 7)
    model = gaussian_model(MeanSchedule.linear_saturating(0.1, 1.0))
    for kind in ("ex-cusum", "sr"):
        monkeypatch.setattr(metrics, "_CHUNK_ELEMENTS", 1)
        want = simulate_trials(model, kind, 6.0, NO_CHANGE, 400, 30, 73)
        assert np.any(want == 0) and np.any(want > 0)
        monkeypatch.setattr(metrics, "_CHUNK_ELEMENTS", 400)
        assert np.array_equal(simulate_trials(model, kind, 6.0, NO_CHANGE, 400, 30, 73), want)


def test_lockstep_trials_run_past_one_sample_block():
    horizon = process._CHUNK + 500
    taus = []
    for kind, window, model, threshold in (
        ("cusum", None, constant_model(0.5), 5.0),
        ("ex-cusum", 3, gaussian_model(MeanSchedule.arctangent()), 3.0),
    ):
        want = per_trial_taus(model, kind, threshold, NO_CHANGE, horizon, 12, 71, window)
        assert np.any(want == 0)
        assert np.array_equal(simulate_trials(model, kind, threshold, NO_CHANGE, horizon, 12, 71, window=window), want)
        taus += want[want > 0].tolist()
    assert max(taus) > process._CHUNK


def test_lockstep_trials_draw_only_what_they_read(monkeypatch):
    # a trial draws its path block by block and stops drawing when it stops,
    # exactly as the per-trial stream does
    monkeypatch.setattr(process, "_CHUNK", 7)
    base = generic_gaussian_model(MeanSchedule.arctangent())
    drawn = []

    def counted(xs):
        drawn.append(np.size(xs))
        return xs

    model = dataclasses.replace(
        base,
        sampler_pre=lambda rng, size=None: counted(base.sampler_pre(rng, size)),
        sampler_post=lambda n, rng, size=None: counted(base.sampler_post(n, rng, size)),
    )
    for nu in (25, NO_CHANGE):
        for threshold in (-5.0, 3.0, 8.0):
            drawn.clear()
            per_trial_taus(model, "ex-cusum", threshold, nu, GATE_HORIZON, GATE_TRIALS, 61)
            want = sum(drawn)
            drawn.clear()
            simulate_trials(model, "ex-cusum", threshold, nu, GATE_HORIZON, GATE_TRIALS, 61)
            assert sum(drawn) == want
            if threshold == -5.0:
                assert want == 7 * GATE_TRIALS


@pytest.mark.filterwarnings("ignore:schedule is identically zero")
def test_lockstep_crossing_rule_at_exact_threshold():
    # zero schedule: ex-cusum sits exactly at 0 and SR at log(n), so only the
    # crossing rule decides (strict for ex-cusum and SR, weak for cusum)
    model = constant_model(0.0)
    for kind, threshold, tau in (("ex-cusum", 0.0, 0), ("cusum", 0.0, 1), ("sr", math.log(3.0), 4)):
        want = per_trial_taus(model, kind, threshold, NO_CHANGE, 10, 5, 67)
        assert np.all(want == tau)
        assert np.array_equal(simulate_trials(model, kind, threshold, NO_CHANGE, 10, 5, 67), want)


def test_folded_sr_trials_at_the_benchmark_settings_equal_per_trial_runs(monkeypatch):
    # the sr-saturating workload's settings: most steps settle nothing, and a
    # step that may cross computes the statistic of the few rows in reach
    model = gaussian_model(MeanSchedule.linear_saturating(0.1, 1.0))
    threshold, horizon, trials = math.log(300.0), 6000, 40
    live, computed = count_settled_steps(monkeypatch)
    got = simulate_trials(model, "sr", threshold, NO_CHANGE, horizon, trials, 17)
    steps = {step for step, _ in computed}
    assert len(steps) < len(live) / 2  # most steps skip the log-sum-exp
    assert any(rows < live[step - 1] for step, rows in computed)  # the row subset
    assert any(rows == live[step - 1] > 1 for step, rows in computed)  # every row
    monkeypatch.undo()
    want = per_trial_taus(model, "sr", threshold, NO_CHANGE, horizon, trials, 17)
    assert np.all(want > 0)
    assert np.array_equal(got, want)


def test_lockstep_gate_covers_every_outcome_kind():
    # the gate's thresholds give false alarms, censoring and detections
    model = gaussian_model(MeanSchedule.arctangent())
    taus = [
        (nu, per_trial_taus(model, "ex-cusum", a, nu, GATE_HORIZON, GATE_TRIALS, 61))
        for nu, a in ((25, 3.0), (25, 8.0), (1, 8.0))
    ]
    assert any(np.any((0 < t) & (t < nu)) for nu, t in taus)  # false alarms
    assert any(np.any(t == 0) for _, t in taus)  # censored
    assert any(np.any(t >= nu) for nu, t in taus)  # detections


def test_lockstep_trials_raise_like_per_trial_runs(monkeypatch):
    spiky = DensityModel(
        pre_change_log_density=lambda x: np.zeros_like(np.asarray(x, float)),
        post_change_log_density=lambda n, x: np.where(np.asarray(x, float) > 1.0, np.inf, 0.0),
        sampler_pre=lambda rng, size=None: rng.normal(0.0, 1.0, size),
        sampler_post=lambda n, rng, size=None: rng.normal(0.0, 1.0, size),
        support=(-math.inf, math.inf),
    )
    # the same +inf ratio at every age, so the family may also fold at age 2,
    # which sends SR through _lockstep's folded step
    folded = type("FoldedSpiky", (DensityModel,), {"saturation_index": lambda self: 2})(
        **{f.name: getattr(spiky, f.name) for f in dataclasses.fields(spiky)}
    )
    for model, kind in itertools.product((spiky, folded), ("ex-cusum", "sr", "cusum")):
        steps = []
        for i in range(12):
            spec = ChangeSpec(nu=NO_CHANGE, horizon=60, seed=derive_seed(5, i))
            with pytest.raises(NumericError) as err:
                run_detector(kind, model, generate_path(model, spec), 100.0, 60)
            steps.append(int(re.search(r"step (\d+)", str(err.value)).group(1)))
        assert len(set(steps)) > 1
        # an unfolded trial is counted at the horizon; a folded one holds its
        # block column, a buffer of 64 and a scratch of 3 (1 for CUSUM) and its generator
        held = 60 if model is spiky and kind != "cusum" else 60 + 64 + (1 if kind == "cusum" else 3) + 80
        for chunk in (1, 5, 12):
            monkeypatch.setattr(metrics, "_CHUNK_ELEMENTS", chunk * held)
            with pytest.raises(NumericError, match=f"{kind} statistic non-finite at step {min(steps[:chunk])}:"):
                simulate_trials(model, kind, 100.0, NO_CHANGE, 60, 12, 5)

    def nan_at_step_4(rng, size=None):
        xs = rng.normal(0.0, 1.0, size)
        xs[3] = np.nan
        return xs

    holey = DensityModel(
        pre_change_log_density=spiky.pre_change_log_density,
        post_change_log_density=lambda n, x: np.zeros_like(np.asarray(x, float)),
        sampler_pre=nan_at_step_4,
        sampler_post=spiky.sampler_post,
        support=(-math.inf, math.inf),
    )
    with pytest.raises(ValueError):
        per_trial_taus(holey, "sr", 100.0, NO_CHANGE, 10, 3, 5)
    with pytest.raises(ValueError, match="finite"):
        simulate_trials(holey, "sr", 100.0, NO_CHANGE, 10, 3, 5)
    # a run that stops before the bad observation never reads it
    assert np.array_equal(
        simulate_trials(holey, "sr", -5.0, NO_CHANGE, 10, 3, 5), per_trial_taus(holey, "sr", -5.0, NO_CHANGE, 10, 3, 5)
    )
    with pytest.raises(ValueError, match="window"):
        simulate_trials(gaussian_model(MeanSchedule.arctangent()), "sr", 1.0, 1, 10, 3, 5, window=3)


# ---------------------------------------------------------------------------
# ARL


def test_very_negative_threshold_gives_arl_one(arctan_model):
    est = estimate_arl2fa(arctan_model, "ex-cusum", -5.0, trials=50, horizon=10, seed=3)
    assert est.mean_tau == 1.0
    assert est.stderr == 0.0
    assert est.censored_fraction == 0.0


def test_arl_reproducible_bit_exactly(arctan_model):
    a = estimate_arl2fa(arctan_model, "ex-cusum", math.log(20), trials=60, horizon=400, seed=99)
    b = estimate_arl2fa(arctan_model, "ex-cusum", math.log(20), trials=60, horizon=400, seed=99)
    assert a == b
    c = estimate_arl2fa(arctan_model, "ex-cusum", math.log(20), trials=60, horizon=400, seed=100)
    assert c.mean_tau != a.mean_tau


def test_arl_chunk_size_does_not_change_estimate(arctan_model, monkeypatch):
    monkeypatch.setattr(metrics, "_CHUNK_ELEMENTS", 1)  # one trial per chunk
    one = estimate_arl2fa(arctan_model, "ex-cusum", math.log(10), trials=40, horizon=200, seed=7)
    monkeypatch.setattr(metrics, "_CHUNK_ELEMENTS", 40 * 200)  # every trial in one chunk
    every = estimate_arl2fa(arctan_model, "ex-cusum", math.log(10), trials=40, horizon=200, seed=7)
    assert one == every


def test_arl_warns_on_short_horizon(arctan_model):
    with pytest.warns(UserWarning, match="horizon"):
        estimate_arl2fa(arctan_model, "ex-cusum", math.log(100), trials=20, horizon=50, seed=1)


def test_arl_lower_bound_holds_at_gamma_20(arctan_model):
    gamma = 20.0
    est = estimate_arl2fa(arctan_model, "ex-cusum", math.log(gamma), trials=400, horizon=400, seed=11)
    assert est.lcb95 >= gamma
    assert 0.0 <= est.censored_fraction < 0.5


def test_sr_arl_lower_bound_at_gamma_100(arctan_model):
    # the martingale argument gives E[tau] >= exp(A) for the SR rule too
    gamma = 100.0
    est = estimate_arl2fa(arctan_model, "sr", math.log(gamma), trials=500, horizon=2000, seed=13)
    assert est.lcb95 >= gamma


@pytest.mark.filterwarnings("ignore:horizon")
def test_censoring_counted(arctan_model):
    est = estimate_arl2fa(arctan_model, "ex-cusum", math.log(1000), trials=30, horizon=5, seed=17)
    assert est.censored_fraction == 1.0
    assert est.mean_tau == 5.0


# ---------------------------------------------------------------------------
# CADD


def test_cadd_immediate_change_at_log1000(arctan_model):
    est = estimate_cadd(arctan_model, "ex-cusum", math.log(1000), nu=1, trials=2_000, seed=19)
    assert 4.0 <= est.mean_delay <= 9.0
    assert est.accepted == 2_000  # nu = 1: conditioning is vacuous
    assert est.acceptance_rate == 1.0
    assert est.censored == 0


def test_cadd_zero_delay_cases_counted(arctan_model):
    # threshold below the attainable first-step statistic: tau = nu = 1 always
    est = estimate_cadd(arctan_model, "ex-cusum", -0.5, nu=1, trials=50, seed=23, horizon=10)
    assert est.mean_delay == 0.0
    assert est.accepted == 50


def test_cadd_shift_invariance_between_nu_1_and_40(arctan_model):
    a = math.log(1000)
    at1 = estimate_cadd(arctan_model, "ex-cusum", a, nu=1, trials=2_000, seed=29)
    at40 = estimate_cadd(arctan_model, "ex-cusum", a, nu=40, trials=2_000, seed=31)
    joint = 3.0 * math.hypot(at1.stderr, at40.stderr)
    assert abs(at1.mean_delay - at40.mean_delay) <= joint
    assert at40.acceptance_rate <= 1.0


def test_cadd_no_accepted_runs_is_an_error(arctan_model):
    with pytest.raises(EstimationError):
        estimate_cadd(arctan_model, "ex-cusum", math.log(10_000), nu=5, trials=10, seed=37, horizon=6)


def test_estimators_refuse_a_bool_trial_count(arctan_model):
    # a bool is no count (models._checked_integer); a count below 1 is an EstimationError
    with pytest.raises(ValueError, match=r"^trials must be an integer in "):
        estimate_arl2fa(arctan_model, "ex-cusum", 1.0, trials=True, horizon=100, seed=1)


def test_estimators_count_fixed_stopping_times_exactly(arctan_model, monkeypatch):
    # with the detector replaced by fixed stopping times (0: censored), the
    # estimates are plain arithmetic with no Monte Carlo noise
    calls = []

    def fixed(kind, model, draw, runs, threshold, horizon, window, certified):
        calls.append(runs)
        return np.array([0, 3, 9, 10, 14, 0, 25], np.int64)

    monkeypatch.setattr(metrics, "_lockstep", fixed)
    arl = estimate_arl2fa(arctan_model, "ex-cusum", threshold=0.0, trials=7, horizon=30, seed=1)
    # censored runs count at the horizon: 30 + 3 + 9 + 10 + 14 + 30 + 25
    assert arl.mean_tau == 121 / 7
    assert arl.censored_fraction == 2 / 7
    cadd = estimate_cadd(arctan_model, "ex-cusum", 0.0, nu=10, trials=7, seed=1, horizon=30)
    # taus 3 and 9 are false alarms; 10, 14 and 25 are delays 0, 4 and 15
    assert cadd.mean_delay == 19 / 3
    assert cadd.accepted == 3
    assert cadd.censored == 2
    assert cadd.acceptance_rate == 5 / 7
    assert calls == [7, 7]  # no fixed time is -1, so nothing reruns


def test_default_delay_horizon_is_overshoot_safe():
    assert default_delay_horizon(1, math.log(1000), I_ARCTAN) == 1 + 10 * 6
    assert default_delay_horizon(80, 4.0, I_ARCTAN) == 80 + 10 * 4
    assert default_delay_horizon(7, -math.inf, I_ARCTAN) == 7 + 10


@pytest.mark.parametrize("info", [0.0, -1.0, math.nan])
def test_explicit_information_number_must_be_positive(arctan_model, info):
    model = with_information_number(arctan_model, info)
    with pytest.raises(EstimationError, match="information number"):
        default_delay_horizon(1, 3.0, info)
    with pytest.raises(EstimationError, match="information number"):
        estimate_cadd(model, "ex-cusum", 3.0, nu=1, trials=5, seed=1)
    with pytest.raises(EstimationError, match="information number"):
        tradeoff_curve(model, [10.0], trials=5, seed=1)


def test_model_without_information_number_needs_an_explicit_horizon():
    model = windowed_gaussian_model(1.0)
    assert model.information_number() is None
    with pytest.raises(EstimationError, match="information number"):
        estimate_cadd(model, "ex-cusum", 3.0, nu=1, trials=5, seed=1)
    with pytest.raises(EstimationError, match="information number"):
        tradeoff_curve(model, [10.0], trials=5, seed=1)
    est = estimate_cadd(model, "ex-cusum", 3.0, nu=1, trials=5, seed=1, horizon=60)
    assert est.accepted == 5


@pytest.mark.parametrize("threshold", [math.nan, math.inf])
def test_a_nan_or_infinite_threshold_has_no_default_delay_horizon(threshold, arctan_model, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("simulate_trials was called")

    monkeypatch.setattr(metrics, "simulate_trials", no_run)
    with pytest.raises(ValueError, match=f"threshold {threshold} gives no delay horizon"):
        default_delay_horizon(1, threshold, I_ARCTAN)
    with pytest.raises(ValueError, match=f"threshold {threshold} gives no delay horizon"):
        estimate_cadd(arctan_model, "ex-cusum", threshold, nu=1, trials=5, seed=1)


# ---------------------------------------------------------------------------
# tradeoff curve


def test_tradeoff_rows_structure(arctan_model):
    gammas = (math.e**2, math.e**3)
    rows = tradeoff_curve(arctan_model, gammas, trials=400, seed=53, arl_trials=200)
    assert [r.gamma for r in rows] == list(gammas)
    for r in rows:
        assert r.threshold == math.log(r.gamma)
        assert r.bound == r.threshold / I_ARCTAN  # exact arithmetic
        assert r.arl.lcb95 >= r.gamma
        assert r.cadd.mean_delay > 0


def test_custom_family_supplies_its_information_number_to_the_tradeoff():
    # a plain DensityModel subclass whose information_number() gives I
    model = with_information_number(windowed_gaussian_model(1.0), 0.5)
    rows = tradeoff_curve(model, (math.e**2, math.e**3), trials=20, seed=5, arl_trials=10)
    assert [r.bound for r in rows] == [math.log(r.gamma) / 0.5 for r in rows]
    assert [r.cadd.accepted for r in rows] == [20, 20]


@pytest.mark.parametrize("bad", [0, -3, True])
@pytest.mark.parametrize("side", ["trials", "arl_trials"])
def test_tradeoff_checks_both_trial_counts_before_any_run(arctan_model, monkeypatch, side, bad):
    def no_run(*args, **kwargs):
        raise AssertionError("a trial ran before the counts were checked")

    monkeypatch.setattr(metrics, "simulate_trials", no_run)
    counts = {"trials": 10, "arl_trials": 200, side: bad}
    # a bool is no count, and so a ValueError naming the side; a count below 1 gives no estimate
    error, match = EstimationError, "at least one trial"
    if bad is True:
        error, match = ValueError, f"^{side} must be an integer in "
    with pytest.raises(error, match=match):
        tradeoff_curve(arctan_model, [20.0], seed=1, **counts)


def test_tradeoff_validates_gammas(arctan_model):
    with pytest.raises(EstimationError, match="at least one trial"):
        tradeoff_curve(arctan_model, (math.e**2,), trials=10, seed=1, arl_trials=0)
    with pytest.raises(ValueError):
        tradeoff_curve(arctan_model, (), trials=10, seed=1)
    with pytest.raises(ValueError):
        tradeoff_curve(arctan_model, (5.0, 2.0), trials=10, seed=1)
    with pytest.raises(ValueError):
        tradeoff_curve(arctan_model, (0.5, 2.0), trials=10, seed=1)
    # non-finite gammas would give a NaN horizon or an endless exact run
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            tradeoff_curve(arctan_model, (math.e**2, bad), trials=10, seed=1)


# ---------------------------------------------------------------------------
# shared-path equivalence of detectors


def test_constant_schedule_outcomes_identical_for_ex_cusum_and_cusum():
    model = constant_model(0.5)
    a = 3.0
    ex = simulate_trials(model, "ex-cusum", a, nu=20, horizon=200, trials=100, seed=59)
    cu = simulate_trials(model, "cusum", a, nu=20, horizon=200, trials=100, seed=59)
    # crossing rules differ only on exact threshold hits, which have
    # probability zero for continuous statistics
    assert np.array_equal(ex, cu)
