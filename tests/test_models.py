"""Density-family tests: log-likelihood ratios, KL, MLR/dominance checks,
schedules, and sampling contracts."""

import ast
import copy
import math
import pickle
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from excusum import (
    DensityModel,
    GaussianModel,
    MeanSchedule,
    NumericError,
    default_grid,
    gaussian_model,
    kl_divergence,
    llr,
    sample_post,
    verify_mlr,
    verify_stochastic_dominance,
)
from excusum import metrics, numerics
from excusum.models import LOG_2PI, SATURATION_SCAN_CAP, SCHEDULE_KINDS
from excusum.numerics import adaptive_trapezoid

from conftest import constant_model, generic_gaussian_model, plain

SRC = Path(__file__).resolve().parents[1] / "src"


#: one schedule of each kind in SCHEDULE_KINDS
EVERY_KIND = [
    MeanSchedule.constant(0.8),
    MeanSchedule.arctangent(),
    MeanSchedule.linear_saturating(0.1, 1.0),
    MeanSchedule.geometric_approach(1.3, 0.9),
    MeanSchedule.from_table([0.2, 0.9, 0.4, 1.5]),
]


def normal_logpdf(x, mean):
    # independent hand evaluation used as the oracle for llr values
    return -0.5 * (x - mean) ** 2 - 0.5 * LOG_2PI


# ---------------------------------------------------------------------------
# llr


@pytest.mark.filterwarnings("ignore:schedule is identically zero")
def test_llr_zero_schedule_is_identically_zero():
    model = constant_model(0.0)
    for x in (-3.0, 0.0, 1.7, 10.0):
        assert llr(model, 5, x) == 0.0


def test_llr_unit_mean_at_one_is_half():
    model = constant_model(1.0)
    assert llr(model, 0, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_llr_arctan_index_one_at_zero():
    model = gaussian_model(MeanSchedule.arctangent())
    mu = math.atan(1.0)
    got = llr(model, 1, 0.0)
    assert got == pytest.approx(-mu * mu / 2.0, abs=1e-12)
    assert got == pytest.approx(-0.308425, abs=5e-7)
    # cross-check against the two log-density formulas evaluated independently
    assert got == pytest.approx(normal_logpdf(0.0, mu) - normal_logpdf(0.0, 0.0), abs=1e-12)


def test_llr_rejects_bad_observations():
    model = constant_model(1.0)
    with pytest.raises(ValueError):
        llr(model, 0, float("nan"))
    with pytest.raises(ValueError):
        llr(model, 0, float("inf"))
    with pytest.raises(ValueError):
        llr(model, -1, 0.5)


def test_llr_respects_finite_support():
    uniform = DensityModel(
        pre_change_log_density=lambda x: np.zeros_like(np.asarray(x, float)),
        post_change_log_density=lambda n, x: np.zeros_like(np.asarray(x, float)),
        sampler_pre=lambda rng, size=None: rng.uniform(0.0, 1.0, size),
        sampler_post=lambda n, rng, size=None: rng.uniform(0.0, 1.0, size),
        support=(0.0, 1.0),
    )
    assert llr(uniform, 3, 0.5) == 0.0
    with pytest.raises(ValueError):
        llr(uniform, 3, 1.5)


def test_llr_broadcasts_and_matches_scalar():
    model = gaussian_model(MeanSchedule.arctangent())
    idx = np.arange(6)
    xs = np.linspace(-2, 2, 6)
    vec = llr(model, idx, xs)
    for i, x in zip(idx, xs):
        assert vec[i] == pytest.approx(llr(model, int(i), float(x)), abs=0)


def test_llr_prefix_agrees_with_elementwise_llr():
    model = gaussian_model(MeanSchedule.arctangent())
    out = np.empty(16)
    got = model.llr_prefix(10, 0.7, out)
    want = [llr(model, j, 0.7) for j in range(10)]
    assert np.allclose(got, want, atol=0, rtol=0)


@pytest.mark.parametrize(
    "schedule",
    [MeanSchedule.arctangent(), MeanSchedule.linear_saturating(0.1, 1.0), MeanSchedule.from_table([0.2, 1.5, 0.7])],
    ids=lambda s: s.kind,
)
def test_gaussian_closed_forms_agree_with_the_density_model_defaults(schedule):
    fast, generic = gaussian_model(schedule), generic_gaussian_model(schedule)
    idx = np.arange(300)
    xs = np.linspace(-4.0, 6.0, 300)
    np.testing.assert_allclose(fast.log_ratio(idx, xs), generic.log_ratio(idx, xs), rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        fast.llr_prefix(200, 0.7, np.empty(256)), generic.llr_prefix(200, 0.7, np.empty(256)), rtol=0, atol=1e-12
    )
    row = np.array([-2.5, 0.0, 3.25])
    got = fast.llr_columns(160)(150, row, np.empty((160, 3)))
    want = generic.llr_columns(160)(150, row, np.empty((160, 3)))
    assert got.shape == (150, 3)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got, fast.log_ratio(idx[:150, None], row), rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "schedule, means",
    [
        (MeanSchedule.arctangent(), lambda ages: np.arctan(ages)),
        (MeanSchedule.linear_saturating(0.1, 1.0), lambda ages: np.minimum(0.1 * ages, 1.0)),
        (
            MeanSchedule.from_table([0.2, 1.5, 0.7]),
            lambda ages: np.array([0.2, 1.5, 0.7])[np.minimum(ages, 2).astype(np.intp)],
        ),
    ],
    ids=["arctangent", "linear-saturating", "explicit-table"],
)
@pytest.mark.parametrize("shape", [(300,), (7, 300)])
@pytest.mark.parametrize("first_age", [0, 5])
def test_gaussian_llr_sampler_draws_the_default_bits(schedule, means, shape, first_age):
    # the in-place closed form against the default's block_sampler and
    # log_ratio calls on the same model, and against standard normals plus
    # the means and the ratio computed here, over two fills of one block
    model = gaussian_model(schedule)
    data_ages, llr_ages = np.arange(first_age, first_age + shape[-1]), np.arange(shape[-1])
    fill = model.llr_sampler(data_ages, llr_ages)
    default = DensityModel.llr_sampler(model, data_ages, llr_ages)
    rng, reference, normals = np.random.default_rng(3), np.random.default_rng(3), np.random.default_rng(3)
    mu = means(llr_ages.astype(np.float64))
    block = np.full(shape, np.nan)
    for _ in range(2):
        want = default(reference, np.empty(shape))
        x = normals.standard_normal(shape) + means(data_ages.astype(np.float64))
        assert fill(rng, block) is block
        assert block.tobytes() == want.tobytes() == (mu * x - mu * mu / 2.0).tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state == normals.bit_generator.state


@pytest.mark.parametrize("schedule", EVERY_KIND + [MeanSchedule.geometric_approach(1000.0, 0.999999)])
@pytest.mark.parametrize("start, stop", [(0, 1), (0, 4), (3, 10), (32, 2000)])
def test_llr_envelope_bounds_every_ratio_of_its_ages(schedule, start, stop):
    model = gaussian_model(schedule)
    mus = schedule.means(stop)[start:]
    # the means themselves and their neighbours are where the bound is tight
    xs = np.concatenate([np.linspace(-8.0, 8.0, 3201), mus, np.nextafter(mus, 9.0), np.nextafter(mus, -9.0)])
    bound = model.llr_envelope(start, stop)(xs)
    ratios = model.log_ratio(np.arange(start, stop)[:, None], xs)
    # in the reals bound >= ratio; the computed forms may round apart by
    # the per-step term the detectors' _TAIL_MARGIN covers
    slack = 2.0**-51 * (mus.max() * np.abs(xs) + mus.max() ** 2)
    assert np.all(bound >= ratios.max(axis=0) - slack)


def test_llr_envelope_stops_where_the_means_reach_two():
    # the range detectors._TAIL_MARGIN's rounding bound covers; this
    # schedule's means pass 2 from index 2003 on
    model = gaussian_model(MeanSchedule.geometric_approach(1000.0, 0.999999))
    assert model.schedule.means(2003)[-1] < 2.0 <= model.schedule.means(2004)[-1]
    assert model.llr_envelope(32, 2003) is not None
    assert model.llr_envelope(32, 2004) is None
    assert model.llr_envelope(32, 20_000) is None


def test_llr_envelope_scans_its_range_without_growing_the_cache():
    # the range's extremes come from pieces of the cache's formula, so a
    # horizon of 10**7 leaves the cache at its first size, with the same bits
    schedule = MeanSchedule.arctangent()
    model = gaussian_model(schedule)
    assert model.llr_envelope(32, 10**7) is not None
    assert schedule._cache.get("mu") is None or schedule._cache["mu"][0].size < 2**16
    for stop in (2000, 2**15 + 40, 3 * 2**15):
        lo, hi = model.llr_envelope(32, stop).args
        vals = schedule.means(stop)[32:]
        assert (lo, hi) == (vals.min(), vals.max())
        assert schedule._evaluate(32, stop).tobytes() == vals.tobytes()
    for other in EVERY_KIND:
        assert other._evaluate(3, 5000).tobytes() == other.means(5000)[3:].tobytes()


@pytest.mark.parametrize("schedule", EVERY_KIND, ids=lambda s: s.kind)
def test_a_zero_width_llr_envelope_is_the_ratio_bit_for_bit(schedule):
    model = gaussian_model(schedule)
    xs = np.concatenate([np.linspace(-6.0, 6.0, 1201), schedule.means(8)])
    prefix = model.llr_columns(8)(8, xs, np.empty((8, xs.size)))
    for j in range(8):
        assert model.llr_envelope(j, j + 1)(xs).tobytes() == prefix[j].tobytes()
    assert plain(model).llr_envelope(0, 8) is None


def test_llr_integrates_to_one_under_pre_change():
    # exp(llr) * g is the post-change density, so its integral is 1
    model = gaussian_model(MeanSchedule.arctangent())
    for n in (0, 3, 50):
        lo, hi = model.quadrature_window(n)
        val = adaptive_trapezoid(
            lambda xs: np.exp(llr(model, np.full(xs.shape, n), xs) + model.pre_change_log_density(xs)), lo, hi
        )
        assert val == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# KL divergence


@pytest.mark.filterwarnings("ignore:schedule is identically zero")
def test_kl_closed_form_values():
    assert kl_divergence(constant_model(0.0), 7) == 0.0
    assert kl_divergence(constant_model(2.0), 0) == pytest.approx(2.0, abs=1e-15)
    assert kl_divergence(constant_model(math.pi / 2), 1) == pytest.approx(math.pi**2 / 8, abs=1e-12)


@pytest.mark.parametrize("mu", [0.1, 1.0, math.pi / 2])
def test_kl_quadrature_matches_closed_form(mu):
    model = constant_model(mu)
    closed = kl_divergence(model, 0)
    quad = kl_divergence(plain(model), 0)
    assert quad == pytest.approx(closed, abs=1e-8)


@pytest.mark.parametrize("n", [0, 1, 4])
def test_kl_hook_is_kl_divergence_bit_for_bit(n, arctan_model):
    for model in (arctan_model, plain(arctan_model)):
        got = model.kl(np.arange(n))
        assert got.shape == (n,)
        assert got.tobytes() == np.array([kl_divergence(model, j) for j in range(n)]).tobytes()


@pytest.mark.parametrize("n", [-1, 2.0, True], ids=["negative", "float", "bool"])
def test_kl_divergence_checks_its_index_like_llr(n, arctan_model):
    for model in (arctan_model, plain(arctan_model)):
        with pytest.raises(ValueError, match="nonnegative integer"):
            kl_divergence(model, n)
        with pytest.raises(ValueError, match="nonnegative integer"):
            llr(model, n, 0.5)


@pytest.mark.parametrize("n", [[3], np.array([1, 2]), np.array([[0]])], ids=["list", "array", "2-d"])
def test_kl_divergence_refuses_an_index_array(n, arctan_model):
    # documented for one index; llr broadcasts over arrays, kl_divergence does not
    for model in (arctan_model, plain(arctan_model)):
        with pytest.raises(ValueError, match="one integer"):
            kl_divergence(model, n)
    assert kl_divergence(arctan_model, np.array(3)) == kl_divergence(arctan_model, 3)


def test_kl_without_closed_form_is_quadrature():
    bare = DensityModel(
        pre_change_log_density=lambda x: normal_logpdf(np.asarray(x, float), 0.0),
        post_change_log_density=lambda n, x: normal_logpdf(np.asarray(x, float), 1.0),
        sampler_pre=lambda rng, size=None: rng.normal(0.0, 1.0, size),
        sampler_post=lambda n, rng, size=None: rng.normal(1.0, 1.0, size),
        support=(-math.inf, math.inf),
        finite_window=lambda n=None: (-11.0, 11.0),
    )
    assert kl_divergence(bare, 0) == pytest.approx(0.5, abs=1e-8)


def test_kl_quadrature_without_window_errors():
    bare = DensityModel(
        pre_change_log_density=lambda x: normal_logpdf(np.asarray(x, float), 0.0),
        post_change_log_density=lambda n, x: normal_logpdf(np.asarray(x, float), 1.0),
        sampler_pre=lambda rng, size=None: rng.normal(0.0, 1.0, size),
        sampler_post=lambda n, rng, size=None: rng.normal(1.0, 1.0, size),
        support=(-math.inf, math.inf),
    )
    with pytest.raises(ValueError, match="finite"):
        kl_divergence(bare, 0)


def test_trapezoid_non_convergence_raises(monkeypatch):
    # an effectively random integrand never stabilizes under refinement
    def noisy(xs):
        return np.sin(1e9 * xs * xs)

    monkeypatch.setattr(numerics, "TRAPEZOID_TOL", 1e-14)
    monkeypatch.setattr(numerics, "TRAPEZOID_REFINEMENTS", 4)
    with pytest.raises(NumericError, match="residual"):
        adaptive_trapezoid(noisy, 0.0, 3.0)


# ---------------------------------------------------------------------------
# MLR and stochastic dominance


def tabled(mu0, mu1):
    return gaussian_model(MeanSchedule.from_table([mu0, mu1]))


def test_mlr_increasing_means_passes():
    model = tabled(0.3, 0.7)
    check = verify_mlr(model, 0, np.linspace(-5, 5, 101))
    assert check.ok and check.worst_violation == 0.0


def test_mlr_decreasing_means_fails():
    model = tabled(0.7, 0.3)
    check = verify_mlr(model, 0, np.linspace(-5, 5, 101))
    assert not check.ok and check.worst_violation > 1e-3


def test_mlr_equal_densities_pass():
    model = constant_model(0.9)
    assert verify_mlr(model, 4, np.linspace(-6, 6, 301)).ok


def test_mlr_sentinel_checks_pre_change_vs_first_post():
    assert verify_mlr(tabled(0.4, 0.9), -1, np.linspace(-5, 5, 101)).ok
    with pytest.warns(UserWarning, match="identically zero"):
        zero_first = gaussian_model(MeanSchedule.from_table([0.0, 0.0]))
    assert verify_mlr(zero_first, -1, np.linspace(-5, 5, 101)).ok  # g = f_0 equality allowed


def test_mlr_grid_validation():
    model = constant_model(1.0)
    with pytest.raises(ValueError):
        verify_mlr(model, 0, [0.0])
    with pytest.raises(ValueError):
        verify_mlr(model, 0, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        verify_mlr(model, -2, [0.0, 1.0])


def test_mlr_zero_density_reported_as_violation():
    # post-change density vanishes on half the line: log ratio non-finite
    def post(n, x):
        xs = np.asarray(x, float)
        vals = np.where(xs > 0, normal_logpdf(xs, 0.5 + n), -np.inf)
        return vals

    spiky = DensityModel(
        pre_change_log_density=lambda x: normal_logpdf(np.asarray(x, float), 0.0),
        post_change_log_density=post,
        sampler_pre=lambda rng, size=None: rng.normal(0.0, 1.0, size),
        sampler_post=lambda n, rng, size=None: abs(rng.normal(0.5, 1.0, size)),
        support=(-math.inf, math.inf),
        finite_window=lambda n=None: (-10.0, 12.0),
    )
    check = verify_mlr(spiky, 0, np.linspace(-2.0, 2.0, 41))
    assert not check.ok and math.isinf(check.worst_violation)


def test_dominance_ordered_means():
    grid = np.linspace(-5, 5, 101)
    assert verify_stochastic_dominance(tabled(0.3, 0.7), 0, grid)
    assert verify_stochastic_dominance(constant_model(0.5), 2, grid)
    assert not verify_stochastic_dominance(tabled(1.0, 0.0), 0, grid)


@hypothesis.given(
    st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=2, max_size=6),
    st.integers(min_value=0, max_value=4),
)
@pytest.mark.filterwarnings("ignore:schedule is identically zero")
def test_mlr_implies_dominance(raw, n):
    # sorted table = nondecreasing schedule: MLR holds, so dominance must too
    model = gaussian_model(MeanSchedule.from_table(sorted(raw)))
    grid = default_grid(model, n + 1, points=201)
    assert verify_mlr(model, n, grid).ok
    assert verify_stochastic_dominance(model, n, grid)


def test_built_in_schedules_pass_mlr_and_dominance_with_defaults():
    for sched in (
        MeanSchedule.arctangent(),
        MeanSchedule.constant(1.0),
        MeanSchedule.linear_saturating(0.25, 1.2),
        MeanSchedule.geometric_approach(2.0, 0.7),
    ):
        model = gaussian_model(sched)
        for n in (-1, 0, 1, 5, 25):
            grid = default_grid(model, max(n + 1, 0))
            assert verify_mlr(model, n, grid).ok, (sched.kind, n)
            assert verify_stochastic_dominance(model, n, grid), (sched.kind, n)


# ---------------------------------------------------------------------------
# normalization


def check_normalization(model: DensityModel, n: int | None = None) -> float:
    """Integral of g (n = None) or of f_n over the model's quadrature window."""
    lo, hi = model.quadrature_window(n)
    if n is None:
        fn = lambda xs: np.exp(model.pre_change_log_density(xs))
    else:
        fn = lambda xs: np.exp(model.post_change_log_density(n, xs))
    return adaptive_trapezoid(fn, lo, hi)


@pytest.mark.parametrize("n", [None, 0, 10, 100])
def test_densities_normalize_to_one(n, arctan_model):
    assert check_normalization(arctan_model, n) == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# sampling


def test_sampling_is_deterministic_given_seed(arctan_model):
    a = arctan_model.sampler_pre(np.random.default_rng(7), 5)
    b = arctan_model.sampler_pre(np.random.default_rng(7), 5)
    assert np.array_equal(a, b)
    c = sample_post(arctan_model, 3, np.random.default_rng(7), size=5)
    d = sample_post(arctan_model, 3, np.random.default_rng(7), size=5)
    assert np.array_equal(c, d)


def test_post_change_sample_mean_tracks_schedule():
    model = constant_model(10.0)
    draws = sample_post(model, 0, np.random.default_rng(123), size=100_000)
    assert abs(draws.mean() - 10.0) < 0.02


def test_zero_mean_post_change_matches_pre_change_in_distribution():
    # mu_0 = 0, so f_0 and g coincide in law
    model = gaussian_model(MeanSchedule.from_table([0.0, 1.0]))
    rng = np.random.default_rng(99)
    pre = model.sampler_pre(rng, 100_000)
    post = sample_post(model, 0, np.random.default_rng(100), size=100_000)
    assert abs(pre.mean() - post.mean()) < 0.02


@pytest.mark.parametrize("schedule", EVERY_KIND, ids=lambda s: s.kind)
@pytest.mark.parametrize(
    "n, size",
    [
        (5, 1000),  # the fourth-moment check: one age, many draws
        (5, None),
        (np.arange(40, 340), None),  # a path block or one SLLN trial
        (np.broadcast_to(np.arange(21), (50, 21)), None),  # the dominance check's age grid
    ],
    ids=["scalar-sized", "scalar", "index-array", "broadcast-grid"],
)
def test_gaussian_post_draws_equal_rng_normal(schedule, n, size):
    # the Gaussian sampler skips rng.normal's broadcast path; every seeded
    # output rests on it giving the same values and leaving the same state
    got_rng, want_rng = np.random.default_rng(31), np.random.default_rng(31)
    got = gaussian_model(schedule).sampler_post(n, got_rng, size)
    want = want_rng.normal(schedule.at(n), 1.0, size)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize(
    "n, size, want",
    [
        (7, 3, ["0x1.ba965d3516950p+0", "0x1.2bc4093043c95p+1", "0x1.d8c29c7080808p+0"]),
        (np.array([0, 12, 5]), None, ["0x1.07632a01e361cp+0", "0x1.522a6f96aa2fbp+1", "0x1.a58f693d4d4d4p+0"]),
        (4, None, ["0x1.6dc9906849c82p+0"]),
    ],
    ids=["scalar-sized", "index-array", "zero-d"],
)
def test_gaussian_sample_post_keeps_its_recorded_bits(n, size, want):
    # recorded when sample_post still called sampler_post; it now draws one
    # block_sampler row, and the arrays keep their shapes and bits
    got = sample_post(gaussian_model(MeanSchedule.linear_saturating(0.1, 1.0)), n, np.random.default_rng(2024), size)
    assert type(got) is np.ndarray and got.shape == (np.shape(n) if size is None else (size,))
    assert [float(v).hex() for v in got.ravel()] == want


def test_only_the_default_block_sampler_calls_the_samplers():
    # every draw of the library goes through block_sampler, so its shape
    # check covers them all
    callers = set()

    def visit(node, scope):
        # scope: the file name, then the enclosing classes and functions
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                if child.func.attr in ("sampler_pre", "sampler_post"):
                    callers.add((scope[0], scope[1:3], child.func.attr))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, scope + (child.name,) if named else scope)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), (path.name,))
    assert callers == {
        ("models.py", ("DensityModel", "block_sampler"), "sampler_pre"),
        ("models.py", ("DensityModel", "block_sampler"), "sampler_post"),
    }


def test_sample_post_rejects_negative_index(arctan_model):
    with pytest.raises(ValueError):
        sample_post(arctan_model, -2, np.random.default_rng(0))


def _round_trip(value):
    return pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize("schedule", EVERY_KIND, ids=lambda s: s.kind)
def test_unpickled_gaussian_model_gives_the_same_numbers(schedule):
    model = gaussian_model(schedule)
    twin = _round_trip(model)
    assert type(twin) is GaussianModel and twin.schedule == schedule
    assert twin.llr_prefix(70, 0.7, np.empty(80)).tobytes() == model.llr_prefix(70, 0.7, np.empty(80)).tobytes()
    row = np.array([-2.5, 0.0, 3.25])
    got = twin.llr_columns(80)(70, row, np.empty((80, 3)))
    assert got.tobytes() == model.llr_columns(80)(70, row, np.empty((80, 3))).tobytes()
    idx, xs = np.arange(70), np.linspace(-3.0, 5.0, 70)
    assert twin.log_ratio(idx, xs).tobytes() == model.log_ratio(idx, xs).tobytes()
    assert twin.pre_change_log_density(xs).tobytes() == model.pre_change_log_density(xs).tobytes()
    assert twin.post_change_log_density(idx, xs).tobytes() == model.post_change_log_density(idx, xs).tobytes()

    def draws(m, rng):
        out = (m.sampler_pre(rng, 7), m.sampler_post(idx, rng), m.sampler_post(5, rng, 3), m.sampler_pre(rng))
        return [np.asarray(d).tobytes() for d in out]

    got_rng, want_rng = np.random.default_rng(17), np.random.default_rng(17)
    assert draws(twin, got_rng) == draws(model, want_rng)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    for n in (None, 0, 3, 400):
        assert twin.quadrature_window(n) == model.quadrature_window(n)
    assert twin.saturation_index() == model.saturation_index()
    assert twin.information_number() == model.information_number()


@pytest.mark.parametrize("detector", ["ex-cusum", "sr", "cusum"])
@pytest.mark.parametrize(
    "schedule",
    [MeanSchedule.arctangent(), MeanSchedule.linear_saturating(0.1, 1.0), MeanSchedule.constant(0.8)],
    ids=["unbounded", "folded", "folded-at-0"],  # mu_0 = 0 leaves CUSUM censored but for the constant
)
def test_unpickled_gaussian_model_stops_at_the_same_times(detector, schedule):
    model = gaussian_model(schedule)
    args = (detector, math.log(50.0), 20, 150, 24, 5)
    want = metrics.simulate_trials(model, *args)
    assert np.array_equal(metrics.simulate_trials(_round_trip(model), *args), want)


# ---------------------------------------------------------------------------
# schedules


def test_arctangent_schedule_values():
    s = MeanSchedule.arctangent()
    mus = s.means(200)
    assert np.all(np.diff(mus) > 0)
    assert s.mu(80) == pytest.approx(math.atan(80.0), abs=0)
    assert s.mu(80) == pytest.approx(1.558297, abs=5e-7)
    assert s.limit_mu == math.pi / 2
    assert abs(s.mu(10_000_000) - s.limit_mu) < 1e-6


def test_half_squares_match_means_bit_for_bit_across_regrowth():
    s = MeanSchedule.arctangent()
    first = s.half_squares(10).copy()
    mu = s.means(10)
    assert first.tobytes() == (mu * mu / 2.0).tobytes()
    big = s.half_squares(5000)  # past the first cache of 64 entries: regrown
    mu = s.means(5000)
    assert big.tobytes() == (mu * mu / 2.0).tobytes()
    assert big[:10].tobytes() == first.tobytes()
    assert not big.flags.writeable and not mu.flags.writeable
    assert s.at(np.array([3, 4999, 0])).tolist() == [mu[3], mu[4999], mu[0]]


@pytest.mark.parametrize("schedule", EVERY_KIND, ids=lambda s: s.kind)
@pytest.mark.parametrize("copy_of", [copy.deepcopy, _round_trip], ids=["deepcopy", "pickle"])
def test_copied_schedules_keep_a_read_only_cache_of_their_own(schedule, copy_of):
    want = schedule.means(100).tobytes()  # a filled cache, then the copy
    twin = copy_of(schedule)
    assert twin == schedule
    for view in (twin.means(5), twin.half_squares(5)):
        assert not view.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 99.0
    assert twin.means(100).tobytes() == want
    assert schedule.means(100).tobytes() == want


def test_schedule_rejects_negative_counts_and_indices():
    s = MeanSchedule.arctangent()
    for call in (
        lambda: s.means(-1),
        lambda: s.half_squares(-1),
        lambda: s.at(np.array([-2])),
        lambda: s.at(np.array([-1])),
        lambda: s.mu(-1),
    ):
        with pytest.raises(ValueError, match="index or count must be >= 0"):
            call()


def test_schedule_cache_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        MeanSchedule(kind="constant", limit_mu=1.0, _cache={})


def test_table_schedule_extends_by_last_value():
    s = MeanSchedule.from_table([0.1, 0.4, 0.4, 0.9])
    assert s.mu(3) == 0.9
    assert s.mu(1000) == 0.9
    assert s.limit_mu == 0.9


def test_decreasing_table_is_accepted_for_counterexamples():
    s = MeanSchedule.from_table([2.0, 1.0, 0.5])
    assert s.mu(0) == 2.0 and s.limit_mu == 0.5


@hypothesis.given(st.floats(min_value=0.01, max_value=3.0), st.floats(min_value=0.05, max_value=0.95))
def test_parametric_schedules_are_nondecreasing_and_bounded(mu, ratio):
    for s in (
        MeanSchedule.constant(mu),
        MeanSchedule.linear_saturating(ratio, mu),
        MeanSchedule.geometric_approach(mu, ratio),
    ):
        vals = s.means(500)
        assert np.all(np.diff(vals) >= -1e-15)
        assert vals[0] >= 0.0 and vals.max() <= s.limit_mu + 1e-12
        assert abs(s.mu(100_000) - s.limit_mu) < max(1e-6, 1e-6 * s.limit_mu) or s.kind == "geometric-approach"


def test_schedule_validation_errors():
    with pytest.raises(ValueError):
        MeanSchedule.constant(-1.0)
    with pytest.raises(ValueError):
        MeanSchedule.from_table([])
    with pytest.raises(ValueError):
        MeanSchedule.geometric_approach(1.0, 1.5)
    for slope in (-0.1, math.inf, math.nan):
        with pytest.raises(ValueError):
            MeanSchedule.linear_saturating(slope, 1.0)
    with pytest.raises(ValueError):
        MeanSchedule(kind="bogus", limit_mu=1.0)
    with pytest.raises(ValueError, match="pi/2"):
        MeanSchedule(kind="arctangent", limit_mu=5.0)  # mu_n still tends to pi/2


def test_schedules_take_the_params_and_table_their_kind_lists():
    for kind, (names, _, has_table) in SCHEDULE_KINDS.items():
        limit = math.pi / 2.0 if kind == "arctangent" else 1.0
        table = (1.0,) if has_table else None
        with pytest.raises(ValueError, match="params"):
            MeanSchedule(kind=kind, limit_mu=limit, params=(0.5,) * (len(names) + 1), table=table)
        with pytest.raises(ValueError, match="table"):
            MeanSchedule(kind=kind, limit_mu=limit, params=(0.5,) * len(names), table=None if has_table else (1.0,))


@pytest.mark.parametrize(
    "schedule, index",
    [
        (MeanSchedule.constant(0.6), 0),
        (MeanSchedule.linear_saturating(0.1, 1.0), 10),
        (MeanSchedule.linear_saturating(0.3, 0.9), 4),  # 0.3 * 3 rounds below 0.9
        (MeanSchedule.linear_saturating(0.3, 2.1), 7),  # 2.1 / 0.3 rounds above 7
        (MeanSchedule.from_table([0.2, 0.5, 1.0, 1.0]), 2),
        (MeanSchedule.arctangent(), None),
        (MeanSchedule.geometric_approach(1.0, 0.5), 54),  # 1 - 0.5**54 rounds to 1.0
        (MeanSchedule.geometric_approach(1.3, 0.9), 356),
        (MeanSchedule.linear_saturating(1e-9, 1.0), None),  # limit reached past the scan cap
    ],
    ids=[
        "constant", "linear-0.1", "linear-0.3-low", "linear-0.3-high", "table", "arctangent", "geometric",
        "geometric-0.9", "linear-over-cap",
    ],
)
def test_saturation_index_is_where_the_means_stop_changing(schedule, index):
    assert schedule.saturation_index() == index
    assert schedule._grown(0)[0].size <= SATURATION_SCAN_CAP
    assert gaussian_model(schedule).saturation_index() == index
    if index is not None:
        mus = schedule.means(index + 5000)
        limit = np.full(mus.size - index, schedule.limit_mu)
        assert mus[index:].tobytes() == limit.tobytes()  # bit for bit
        assert index == 0 or mus[index - 1] != schedule.limit_mu
    assert generic_gaussian_model(schedule).saturation_index() is None


def test_identically_zero_schedule_warns():
    with pytest.warns(UserWarning, match="identically zero"):
        gaussian_model(MeanSchedule.constant(0.0))
    # but a schedule that merely STARTS at zero (f_0 = g) is silently accepted
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gaussian_model(MeanSchedule.arctangent())
