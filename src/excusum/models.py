"""Density families for change detection with stochastically growing signals.

Before the change the data are i.i.d. with density g.  After the change the
observation at post-change age n follows f_n, where the family {f_n} is
nondecreasing in monotone-likelihood-ratio (MLR) order, i.e. f_{n+1}/f_n is
nondecreasing, so samples become stochastically larger as the change ages.

The one fully built-in family is the unit-variance Gaussian location family

    g = N(0, 1),    f_n = N(mu_n, 1),    0 <= mu_n nondecreasing -> mu,

driven by a MeanSchedule.  It has closed forms for everything (per-sample
log-likelihood ratio mu_n * (x - mu_n / 2), KL divergence mu_n**2 / 2,
centered fourth moment 3 * mu_n**4, information number limit_mu**2 / 2),
which makes it the reference model for the condition checkers and the Monte
Carlo studies.  The schedule caches mu_n and mu_n**2 / 2 together.

All detector and simulation code is written against the generic
DensityModel interface, so custom families (including deliberately broken
ones used as counterexamples in tests) plug in the same way.  The per-sample
log-likelihood ratio has one hook, DensityModel.log_ratio, and three forms:
llr_prefix fills ages 0..n-1 of a 1-d array for one stream, llr_columns,
bound for a lockstep run, an (ages, rows) array (by default with one
llr_prefix call per row), and llr_sampler, bound for a condition check,
draws into a block and overwrites it with the ratios.  Every draw has one hook,
block_sampler, which fills one row per run of a block, by default with one
sampler_pre or sampler_post call per row whose shape it checks: it is the
only caller of a family's samplers.  GaussianModel overrides these five
hooks: one in-place kernel (_gaussian_ratio) computes mu * x - mu**2 / 2
for every ratio form and for llr_envelope, and each block row is drawn in
place, so a replaced sampler is not called.  The KL numbers have one
hook too, DensityModel.kl: trapezoid quadrature by default, the schedule's
mu_n**2 / 2 for the Gaussian family.
saturation_index tells the detectors from which age on that ratio stops
changing: for the Gaussian family, the index from which the schedule's
cached means equal its limit bit for bit, scanned in the same array
the prefix forms read, so folding there is exact.  For a family that never
saturates, llr_envelope(start, stop) bounds the ratio of every age in
[start, stop) from above, which lets the Monte Carlo runs bound their old
candidates by one tail.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .numerics import NumericError, adaptive_trapezoid

LOG_2PI = math.log(2.0 * math.pi)

#: the fields each schedule kind takes: the names of its params, whether its
#: config gives mu (the limit), and whether it takes a table
SCHEDULE_KINDS = {
    "constant": ((), True, False),
    "arctangent": ((), False, False),
    "linear-saturating": (("slope",), True, False),
    "geometric-approach": (("ratio",), True, False),
    "explicit-table": ((), False, True),
}

#: half-width of the finite integration window, in pre-change standard
#: deviations, used to truncate Gaussian-like tails for quadrature
TAIL_HALFWIDTH = 10.0

MLR_TOLERANCE = 1e-12

#: most means MeanSchedule.saturation_index scans; a schedule that reaches its
#: limit only past this many entries is treated as never reaching it
SATURATION_SCAN_CAP = 2**20

#: quadrature error allowed in verify_stochastic_dominance's tail comparison,
#: and the points of the fine grid on which it integrates the tails
DOMINANCE_SLACK = 1e-9
DOMINANCE_POINTS = 4001


@dataclass(frozen=True)
class MeanSchedule:
    """The nondecreasing mean sequence mu_n defining a Gaussian growing family.

    Built-in kinds:

    - ``constant``:           mu_n = mu
    - ``arctangent``:         mu_n = arctan(n), limit pi/2
    - ``linear-saturating``:  mu_n = min(slope * n, mu)
    - ``geometric-approach``: mu_n = mu * (1 - ratio**n), 0 < ratio < 1
    - ``explicit-table``:     finite list, extended forever by its last value

    The built-in parametric kinds are nondecreasing with 0 <= mu_n <= limit_mu
    by construction.  Explicit tables are *not* forced to be nondecreasing:
    decreasing tables are the standard counterexample input for the MLR and
    dominance checkers, which is why construction accepts them.

    Copies and pickles are rebuilt through the constructor, so they are
    validated again and start with an empty cache of their own.
    """

    kind: str
    limit_mu: float
    params: tuple[float, ...] = ()
    table: tuple[float, ...] | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}, expected one of {list(SCHEDULE_KINDS)}")
        names, _, has_table = SCHEDULE_KINDS[self.kind]
        if not (math.isfinite(self.limit_mu) and self.limit_mu >= 0.0):
            raise ValueError(f"limit_mu must be finite and >= 0, got {self.limit_mu}")
        if len(self.params) != len(names):
            raise ValueError(f"{self.kind} schedule needs params={names}, got {self.params}")
        if not has_table and self.table is not None:
            raise ValueError(f"{self.kind} schedule does not take a table")
        if has_table and not self.table:
            raise ValueError(f"{self.kind} schedule needs a non-empty table")
        if self.kind == "arctangent" and self.limit_mu != math.pi / 2.0:
            raise ValueError(f"limit_mu of an arctangent schedule is pi/2, got {self.limit_mu}")
        if has_table:
            if any(not math.isfinite(v) or v < 0.0 for v in self.table):
                raise ValueError("table values must be finite and >= 0")
            if self.table[-1] != self.limit_mu:
                raise ValueError("limit_mu of a table schedule is its last entry")
        if self.kind == "linear-saturating" and not 0.0 < self.params[0] < math.inf:
            raise ValueError("linear-saturating needs params=(slope,) with finite slope > 0")
        if self.kind == "geometric-approach" and not 0.0 < self.params[0] < 1.0:
            raise ValueError("geometric-approach needs params=(ratio,) with 0 < ratio < 1")

    def __reduce__(self):
        return type(self), (self.kind, self.limit_mu, self.params, self.table)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, mu: float) -> "MeanSchedule":
        return cls(kind="constant", limit_mu=float(mu))

    @classmethod
    def arctangent(cls) -> "MeanSchedule":
        return cls(kind="arctangent", limit_mu=math.pi / 2.0)

    @classmethod
    def linear_saturating(cls, slope: float, mu: float) -> "MeanSchedule":
        return cls(kind="linear-saturating", limit_mu=float(mu), params=(float(slope),))

    @classmethod
    def geometric_approach(cls, mu: float, ratio: float) -> "MeanSchedule":
        return cls(kind="geometric-approach", limit_mu=float(mu), params=(float(ratio),))

    @classmethod
    def from_table(cls, values) -> "MeanSchedule":
        vals = tuple(float(v) for v in values)
        if not vals:
            raise ValueError("explicit-table schedule needs a non-empty table")
        return cls(kind="explicit-table", limit_mu=vals[-1], table=vals)

    # -- evaluation --------------------------------------------------------

    def _grown(self, upto: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (mu, mu**2 / 2) holding at least ``upto`` entries each."""
        if upto < 0:
            raise ValueError("schedule index or count must be >= 0")
        cached = self._cache.get("mu")
        if cached is None or cached[0].size < upto:
            # grow geometrically: a detector asks for one more entry every step
            size = max(int(upto), 64, 2 * (cached[0].size if cached is not None else 0))
            vals = self._evaluate(0, size)
            half = vals * vals / 2.0
            vals.setflags(write=False)
            half.setflags(write=False)
            cached = self._cache["mu"] = (vals, half)
        return cached

    def _evaluate(self, start: int, stop: int) -> np.ndarray:
        """mu_j for start <= j < stop, with the cache's bits but not through it."""
        n = np.arange(start, stop, dtype=np.float64)
        if self.kind == "constant":
            return np.full(n.size, self.limit_mu)
        if self.kind == "arctangent":
            return np.arctan(n)
        if self.kind == "linear-saturating":
            return np.minimum(self.params[0] * n, self.limit_mu)
        if self.kind == "geometric-approach":
            return self.limit_mu * (1.0 - self.params[0] ** n)
        vals = np.full(n.size, self.table[-1])  # explicit-table
        head = self.table[start:stop]
        vals[: len(head)] = head
        return vals

    def means(self, upto: int) -> np.ndarray:
        """Read-only view of (mu_0, ..., mu_{upto-1})."""
        return self._grown(upto)[0][:upto]

    def half_squares(self, upto: int) -> np.ndarray:
        """Read-only view of mu_j**2 / 2 for j = 0..upto-1, the KL numbers."""
        return self._grown(upto)[1][:upto]

    def mu(self, n: int) -> float:
        return float(self.at(n))

    def at(self, index) -> np.ndarray:
        """mu at every entry of a nonnegative integer index (array)."""
        idx = np.asarray(index)
        if idx.size and idx.min() < 0:
            raise ValueError("schedule index or count must be >= 0")
        return self._grown(int(idx.max()) + 1 if idx.size else 1)[0][idx]

    def saturation_index(self) -> int | None:
        """The first index L from which every mu_j equals limit_mu bit for bit,
        or None.  L is read off the cached means the detectors add: it starts
        the trailing run of equal values in means(bound), where each kind's
        bound over-estimates the index by which its values reach the limit.
        None when the bound passes SATURATION_SCAN_CAP or the last scanned
        value is not limit_mu, and for arctangent, which never reaches it."""
        if self.kind == "constant":
            bound = 1.0
        elif self.kind == "linear-saturating":
            # slope * n rounds, so it may reach mu one step past ceil(mu / slope)
            bound = np.ceil(self.limit_mu / self.params[0]) + 2.0
        elif self.kind == "geometric-approach":
            # ratio**n <= 2**-56 makes 1 - ratio**n round to 1.0
            bound = np.ceil(56.0 / -math.log2(self.params[0])) + 2.0
        elif self.kind == "explicit-table":
            bound = float(len(self.table))
        else:
            return None
        if not bound <= SATURATION_SCAN_CAP:
            return None
        vals = self.means(int(bound))
        if vals[-1] != self.limit_mu:
            return None
        bits = vals.view(np.uint64)
        differ = np.flatnonzero(bits != bits[-1])
        return int(differ[-1]) + 1 if differ.size else 0


@dataclass(frozen=True, kw_only=True)
class DensityModel:
    """A pre-change density plus an indexed post-change family.

    Log densities are numpy-vectorized in x (and in the index for the
    post-change family).  Samplers take a numpy Generator plus an optional
    ``size``; the post-change sampler also accepts an index array, drawing one
    sample per index.  ``finite_window(n)`` must return an interval holding
    essentially all mass of g and f_n, used to truncate quadrature when the
    support is infinite.  Instances are immutable and safe to share across
    concurrent workers; rng state is always owned by the caller.  A
    GaussianModel pickles, and so does a custom family whose callables do
    (module-level functions and their partials, not lambdas or closures).
    """

    pre_change_log_density: Callable
    post_change_log_density: Callable
    sampler_pre: Callable
    sampler_post: Callable
    support: tuple[float, float]
    finite_window: Callable | None = None

    def quadrature_window(self, n: int | None = None) -> tuple[float, float]:
        """Finite interval used for numerical integration involving f_n and g."""
        lo, hi = self.support
        if self.finite_window is not None:
            wlo, whi = self.finite_window(n)
            lo, hi = max(lo, wlo), min(hi, whi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(
                "model has unbounded support and no finite_window; quadrature needs a finite interval"
            )
        return lo, hi

    def log_ratio(self, index, x):
        """log f_index(x) - log g(x), broadcast over index and x (no checks)."""
        return self.post_change_log_density(index, x) - self.pre_change_log_density(x)

    def llr_prefix(self, n: int, x: float, out: np.ndarray) -> np.ndarray:
        """Write log_ratio(j, x) for j = 0..n-1 into the 1-d out[:n] and return
        that view; x is one stream's validated float (the detectors' hot path)."""
        out[:n] = self.log_ratio(np.arange(n), x)
        return out[:n]

    def llr_columns(self, size: int) -> Callable:
        """llr_prefix for lockstep rows, bound for n <= size so that a family
        fetches what it reads per age once: (n, x, out) writes log_ratio(j,
        x[r]) into the candidate-major out[j, r] for a validated (rows,) x,
        by default with one llr_prefix call per row."""

        def columns(n: int, x: np.ndarray, out: np.ndarray) -> np.ndarray:
            for r, xr in enumerate(x.tolist()):
                self.llr_prefix(n, xr, out[:, r])
            return out[:n]

        return columns

    def llr_sampler(self, data_ages, llr_ages) -> Callable:
        """The condition checks' draws, bound once per check: (rng, out) draws
        X ~ f_{data_ages}, broadcast to out's shape (by default as one
        block_sampler row, in C order), then overwrites out with
        log_ratio(llr_ages, X) and returns it."""

        def fill(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
            # out.reshape is a view, unless out is not contiguous: read x back
            x = self.block_sampler(np.broadcast_to(data_ages, out.shape).ravel())([rng], out.reshape(1, -1))
            out[...] = self.log_ratio(llr_ages, x.reshape(out.shape))
            return out

        return fill

    def block_sampler(self, ages) -> Callable:
        """The path draws, bound once per block: (rngs, out) fills row r of the
        (rows, take) out from rngs[r] and returns out, drawing from g where
        ``ages`` is None and else from f_{ages}, one draw per age.  By default
        one sampler_pre(rng, take) or sampler_post(ages, rng, None) call per
        row; a draw whose shape is not (take,) raises ValueError."""
        name = "sampler_pre" if ages is None else "sampler_post"

        def fill(rngs: list, out: np.ndarray) -> np.ndarray:
            take = out.shape[1]
            for row, rng in zip(out, rngs):
                x = np.atleast_1d(self.sampler_pre(rng, take) if ages is None else self.sampler_post(ages, rng, None))
                if x.shape != (take,):
                    raise ValueError(f"{name} returned draws of shape {x.shape} for a block of {take} steps")
                row[...] = x
            return out

        return fill

    def kl(self, index):
        """D(f_j || g) at every entry j of a nonnegative integer index (array),
        one trapezoid quadrature over quadrature_window(j) per entry (no checks)."""
        idx = np.asarray(index)
        vals = [
            max(adaptive_trapezoid(partial(_kl_integrand, self, j), *self.quadrature_window(j)), 0.0)
            for j in idx.ravel().tolist()
        ]
        return np.reshape(vals, idx.shape)

    def saturation_index(self) -> int | None:
        """The first age index L from which log_ratio(j, x) is one function of
        x for every j >= L, bit for bit, or None.  The detectors then fold
        every candidate of age index >= L into one tail.  None by default."""
        return None

    def llr_envelope(self, start: int, stop: int) -> Callable | None:
        """A function of x that is >= log_ratio(j, x) for every age index j in
        [start, stop) (in the reals; the computed values may round apart), or
        None, also where that rounding is past what detectors._TAIL_MARGIN
        covers.  The Monte Carlo runs of a family that never saturates then
        bound every candidate of age index >= start by one tail.  None by
        default."""
        return None

    def information_number(self) -> float | None:
        """The information number I = lim D(f_n || g), which sets the default
        delay horizon and the log(gamma) / I bound, or None.  None by default."""
        return None


@dataclass(frozen=True, kw_only=True)
class GaussianModel(DensityModel):
    """Unit-variance Gaussian location family g = N(0,1), f_n = N(mu_n, 1)."""

    schedule: MeanSchedule

    # closed forms, algebraically identical to the DensityModel defaults
    def log_ratio(self, index, x):
        m = self.schedule.at(index)
        return _gaussian_ratio(m, m * m / 2.0, x)

    def llr_prefix(self, n: int, x: float, out: np.ndarray) -> np.ndarray:
        # one cache read for both arrays: means() and half_squares() each cost a call per step
        return _gaussian_columns(*self.schedule._grown(n), n, x, out)

    def llr_columns(self, size: int) -> Callable:
        return partial(_gaussian_columns, self.schedule.means(size)[:, None], self.schedule.half_squares(size)[:, None])

    def llr_sampler(self, data_ages, llr_ages) -> Callable:
        # draws as block_sampler does, so a replaced sampler_post is not called
        return partial(_gaussian_llr_fill, self.schedule.at(data_ages), self.schedule.at(llr_ages), self.kl(llr_ages))

    def block_sampler(self, ages) -> Callable:
        # draws in place, without the samplers: a replaced one is not called
        return partial(_gaussian_rows, None if ages is None else self.schedule.at(ages))

    def kl(self, index):
        # the same operations as the cached half_squares, so the same bits
        m = self.schedule.at(index)
        return m * m / 2.0

    def saturation_index(self) -> int | None:
        return self.schedule.saturation_index()

    def llr_envelope(self, start: int, stop: int) -> Callable | None:
        # mu * x - mu * mu / 2 is concave in mu, so over the means of [start,
        # stop), in any order, it peaks at x clipped to their range, scanned in
        # pieces so the cache does not grow; _TAIL_MARGIN takes |means| < 2
        lo, hi = math.inf, -math.inf
        for first in range(start, stop, 2**15):
            vals = self.schedule._evaluate(first, min(first + 2**15, stop))
            lo, hi = min(lo, float(vals.min())), max(hi, float(vals.max()))
        return partial(_gaussian_envelope, lo, hi) if -2.0 < lo and hi < 2.0 else None

    def information_number(self) -> float:
        return self.schedule.limit_mu ** 2 / 2.0


def _kl_integrand(model: DensityModel, n: int, xs):
    logf = model.post_change_log_density(n, xs)
    logg = model.pre_change_log_density(xs)
    f = np.exp(logf)
    return np.where(f > 0.0, f * (logf - logg), 0.0)


def _gaussian_ratio(means, half, x, out=None):
    # every Gaussian ratio: means * x - half, half = means**2 / 2, into out
    return np.subtract(np.multiply(means, x, out=out), half, out=out)


def _gaussian_columns(means: np.ndarray, half: np.ndarray, n: int, x, out: np.ndarray) -> np.ndarray:
    return _gaussian_ratio(means[:n], half[:n], x, out[:n])


def _gaussian_llr_fill(data_means, means, half, rng, out: np.ndarray) -> np.ndarray:
    _gaussian_rows(data_means, [rng], out[None])
    return _gaussian_ratio(means, half, out, out)


def _gaussian_rows(means, rngs: list, out: np.ndarray) -> np.ndarray:
    # each row the standard normals sampler_pre draws, then the means added
    # once as _gaussian_draw_post adds them, so the same bits
    for row, rng in zip(out, rngs):
        rng.standard_normal(out=row)
    if means is not None:
        out += means
    return out


def _gaussian_envelope(lo: float, hi: float, x):
    # the ratio at the mean c, so a zero-width range gives llr_prefix's bits;
    # in place for an array x, which then costs one temporary besides the result
    c = np.clip(x, lo, hi)
    return _gaussian_ratio(c, c * c / 2.0, x, c if np.ndim(c) else None)


def _normal_logpdf(mean, x):
    d = np.asarray(x, dtype=np.float64) - mean
    return -0.5 * d * d - 0.5 * LOG_2PI


def _gaussian_post_logpdf(schedule: MeanSchedule, n, x):
    return _normal_logpdf(schedule.at(n), x)


def _gaussian_draw_post(schedule: MeanSchedule, n, rng, size=None):
    # rng.normal(mu, 1.0, size) bit for bit, without its broadcast path
    mu = schedule.at(n)
    z = rng.standard_normal(np.shape(mu) if size is None else size)
    z += mu
    return z


def _gaussian_window(schedule: MeanSchedule, n=None):
    hi_mean = 0.0 if n is None or n < 0 else schedule.mu(n)
    return (-TAIL_HALFWIDTH, hi_mean + TAIL_HALFWIDTH)


def gaussian_model(schedule: MeanSchedule) -> GaussianModel:
    """Build the unit-variance Gaussian location model for a mean schedule."""
    if schedule.limit_mu == 0.0 and float(schedule.means(256).max(initial=0.0)) == 0.0:
        warnings.warn(
            "schedule is identically zero: pre- and post-change laws coincide, "
            "so the information number is 0 and detection is impossible",
            UserWarning,
            stacklevel=2,
        )

    return GaussianModel(
        pre_change_log_density=partial(_normal_logpdf, 0.0),
        post_change_log_density=partial(_gaussian_post_logpdf, schedule),
        # rng.normal(0.0, 1.0, size) bit for bit
        sampler_pre=np.random.Generator.standard_normal,
        sampler_post=partial(_gaussian_draw_post, schedule),
        support=(-math.inf, math.inf),
        finite_window=partial(_gaussian_window, schedule),
        schedule=schedule,
    )


# ---------------------------------------------------------------------------
# operations


def _validate_x(model: DensityModel, x):
    # scalar fast path: this sits inside every detector step
    if type(x) is float:
        if not math.isfinite(x):
            raise ValueError("observation must be finite")
        lo, hi = model.support
        if not lo <= x <= hi:
            raise ValueError(f"observation {x!r} outside support [{lo}, {hi}]")
        return x
    xs = np.asarray(x, dtype=np.float64)
    if xs.size:
        # the extremes decide both checks; NaN propagates into both
        first, last = float(xs.min()), float(xs.max())
        if not (math.isfinite(first) and math.isfinite(last)):
            raise ValueError("observation must be finite")
        lo, hi = model.support
        if first < lo or last > hi:
            bad = float(xs.flat[np.argmax((xs < lo) | (xs > hi))])  # the first, as the scalar branch names it
            raise ValueError(f"observation {bad!r} outside support [{lo}, {hi}]")
    return xs


def _checked_index(index, name: str) -> np.ndarray:
    idx = np.asarray(index)
    if idx.dtype.kind not in "iu" or np.any(idx < 0):
        raise ValueError(f"{name} must be a nonnegative integer (or array thereof)")
    return idx


def llr(model: DensityModel, post_index, x):
    """Per-sample log-likelihood ratio log f_{post_index}(x) - log g(x).

    The checked form of model.log_ratio: broadcasts over ``post_index`` and
    ``x``; returns a float for scalar inputs.  Raises ValueError for
    non-finite x, x outside the support, or a negative or non-integer index.
    """
    xs = _validate_x(model, x)
    val = model.log_ratio(_checked_index(post_index, "post_index"), xs)
    if np.ndim(val) == 0:
        return float(val)
    return val


def kl_divergence(model: DensityModel, n: int) -> float:
    """D(f_n || g): the checked form of model.kl.  Raises ValueError for a
    negative or non-integer index, as llr does, and for an index array."""
    if np.ndim(n):
        raise ValueError(f"index must be one integer, got an array of shape {np.shape(n)}")
    return float(model.kl(_checked_index(n, "index")))


class MlrCheck(NamedTuple):
    ok: bool
    worst_violation: float


def _pair_log_densities(model: DensityModel, n: int):
    """Log densities of the ordered pair checked at n; n = -1 compares g vs f_0."""
    if n == -1:
        return model.pre_change_log_density, lambda xs: model.post_change_log_density(0, xs)
    if n < -1:
        raise ValueError("n must be >= 0, or the sentinel -1 for g vs f_0")
    return (
        lambda xs: model.post_change_log_density(n, xs),
        lambda xs: model.post_change_log_density(n + 1, xs),
    )


def _validate_grid(model: DensityModel, grid) -> np.ndarray:
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim != 1 or g.size < 2:
        raise ValueError("grid must be a 1-d array with at least 2 points")
    if not np.all(np.isfinite(g)) or np.any(np.diff(g) <= 0.0):
        raise ValueError("grid must be finite and strictly increasing")
    lo, hi = model.support
    if g[0] < lo or g[-1] > hi:
        raise ValueError("grid extends outside the support")
    return g


def verify_mlr(model: DensityModel, n: int, grid) -> MlrCheck:
    """Check that f_{n+1}/f_n is nondecreasing along a grid (n = -1: f_0/g).

    Works in the log domain; a grid point where the denominator density
    vanishes makes the log ratio non-finite and is reported as a violation.
    This is a necessary-condition check: monotonicity off the grid is not
    examined.
    """
    g = _validate_grid(model, grid)
    lower, upper = _pair_log_densities(model, n)
    with np.errstate(invalid="ignore"):  # -inf minus -inf where a density vanishes
        ratio = np.asarray(upper(g), dtype=np.float64) - np.asarray(lower(g), dtype=np.float64)
    if not np.all(np.isfinite(ratio)):
        return MlrCheck(False, math.inf)
    drops = -np.diff(ratio)
    worst = float(max(0.0, drops.max(initial=0.0)))
    return MlrCheck(worst <= MLR_TOLERANCE, worst)


def _right_tails(log_density, grid: np.ndarray, hi: float) -> np.ndarray:
    """Upper-tail masses at the grid points, by trapezoid on a shared fine grid."""
    fine = np.union1d(grid, np.linspace(grid[0], hi, DOMINANCE_POINTS))
    dens = np.exp(np.asarray(log_density(fine), dtype=np.float64))
    seg = 0.5 * (dens[1:] + dens[:-1]) * np.diff(fine)
    tails = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    return tails[np.searchsorted(fine, grid)]


def verify_stochastic_dominance(model: DensityModel, n: int, grid) -> bool:
    """Check P(f_n > x) <= P(f_{n+1} > x) at every grid point (n = -1: g vs f_0).

    Tail masses are computed by quadrature on a shared fine grid, so when the
    MLR check passes this check passes as well up to DOMINANCE_SLACK.
    """
    g = _validate_grid(model, grid)
    lower, upper = _pair_log_densities(model, n)
    _, hi = model.quadrature_window(max(n + 1, 0))
    hi = max(hi, float(g[-1]))
    tails_lower = _right_tails(lower, g, hi)
    tails_upper = _right_tails(upper, g, hi)
    return bool(np.all(tails_lower <= tails_upper + DOMINANCE_SLACK))


def sample_post(model: DensityModel, n, rng: np.random.Generator, size=None):
    """Draw from f_n into an array of shape ``size``, else of n's shape (n
    may be an index array), as one block_sampler row, in C order."""
    idx = _checked_index(n, "post-change index")
    out = np.empty(idx.shape if size is None else size)
    model.block_sampler(np.broadcast_to(idx, out.shape).ravel())([rng], out.reshape(1, -1))
    return out


def default_grid(model: DensityModel, n: int | None = None, points: int = 2001) -> np.ndarray:
    """Equispaced evaluation grid covering ~8 standard-deviation-equivalents.

    Derived by shrinking the model's quadrature window (10 sigma-equivalents)
    by a factor 0.8 about its center.
    """
    lo, hi = model.quadrature_window(n)
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return np.linspace(center - 0.8 * half, center + 0.8 * half, points)
