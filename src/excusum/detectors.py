"""Sequential detectors: the growing-family CUSUM statistic, its
Shiryaev-Roberts companion, and the classic CUSUM baseline.

The main statistic at time n is

    W_n = max_{1 <= k <= n}  sum_{i=k}^{n}  log f_{i-k}(X_i) / g(X_i),

the best accumulated log-likelihood ratio over all change-point hypotheses k,
where the post-change density index is the age i - k of the hypothesized
change.  Because the per-sample ratio depends on that age, states keep one
running sum per candidate and cost O(candidates) per observation.

Where the family saturates, f_j = f_L for every age j >= L (the model's
saturation_index), all candidates of age >= L gain the same increment, so
the states built for runs fold them into one tail and keep L + 1 sums: the
tail is their max for the CUSUM statistic, exactly, and a shift with a
scaled sum for SR, to rounding.  For the Gaussian family L is read off the
schedule's cached means, the very values llr_prefix adds, and every
built-in schedule but arctangent has one (geometric-approach from where
1 - ratio**n rounds to 1).  The classic CUSUM is this engine folded at
L = 0 on the age-0 ratio.  For families that never saturate (arctangent)
no constant-memory recursion of the exact statistic exists, but the Monte
Carlo runs of ex-cusum still need only O(_HEAD) per step: _bounded_lockstep
keeps the newest _HEAD candidates exact and folds the older ones into one
tail that gains the model's llr_envelope, an upper bound of their ratios,
so the tail bounds them from above.  A run whose head crosses stops
exactly; one whose tail comes within _TAIL_MARGIN of the threshold leaves,
for its caller to rerun on the exact state, so every stopping time is the
exact run's.  run_detector, statistic_trace and run_detector_batch stay
exact; an optional window caps the candidate count of any run at the price
of an uncharacterized approximation.  The candidate buffer owns all of
this: how many columns are read, whether older candidates are dropped,
folded or bounded, and SR's tail weight.

The Shiryaev-Roberts variant replaces the max by a sum of likelihood-ratio
products; R_n - n is a martingale under the pre-change law, which is what
makes threshold exp(A) give a mean time to false alarm of at least exp(A).
All accumulation is in the log domain, with log-sum-exp for R_n.  A folded
SR run keeps L + 1 sums, so log R_n is at most m + log(L + s), m their max
and s the tail's scale: run_detector_batch's folded SR steps compute the
log-sum-exp only on the steps, and then only for the runs, where that bound
plus _SR_MARGIN reaches the threshold, each run's sum taken as the full step
takes it, so the stopping times stay exact.

The DETECTORS table is the one list of detector kinds: each kind names its
state class, its crossing rule (strict > for ex-cusum and SR, >= for the
classic CUSUM) and whether it takes a window.  DetectorKind.crossed is the
one test of a statistic against a threshold, for every stop decision.
Every per-sample ratio comes from the model's llr_prefix hook.

States are single-owner: mutate them only from their owning run.  A state
holds one stream (a 1-d array of running sums); run_detector_batch builds
private states of one candidate-major row per run, advancing in lockstep
through the same update, fold and reductions, and drops each finished row.
The public ExCusumState and SrState never fold, and serve as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .models import DensityModel, llr, _validate_x
from .numerics import NumericError, logsumexp_rows

_MIN_CAPACITY = 64

#: candidates a bounded run keeps exact (see _certified_tail), several times
#: the first-order delay A / I at the thresholds the configs use
_HEAD = 32

#: the largest |x| a bounded run reads; a block holding a larger one sends
#: its runs back to the exact state (see _TAIL_MARGIN)
_X_BOUND = 32.0

#: how far below the threshold a bounded tail T must stay for its run to go
#: on.  T bounds each of its candidates' sums S in the reals, and in floats
#: falls below a float S only by rounding, since max is exact and IEEE
#: rounding monotone.  Per step: (a) the computed envelope c*x - c*c/2 and
#: ratio m*x - m*m/2 each round by at most 2**-52 (mu |x| + mu**2), mu the
#: largest |mean| of the tail's ages; (b) the adds T + e and S + r round by
#: at most 2**-53 |T| and 2**-53 |S|.  The runs keep these in range: the
#: Gaussian llr_envelope gives no bound where mu reaches 2, a block with an
#: |x| of _X_BOUND leaves, and _certified_tail takes thresholds below 2**11
#: and horizons up to 2**24.  So |T| < 2**12 while a run goes on (T <= A,
#: and T is at least the sum of _HEAD + 1 ratios and one envelope, each of
#: size below 66), and an S below -2**13 trails T by more than 2**12, a gap
#: that never closes in the reals and that its rounding, at most 2**-29 |S|
#: over 2**24 steps, cannot close either.  That leaves (a) + (b) below
#: 2**-44 + 2**-39 per step, under 2**-14 over 2**24 steps.
_TAIL_MARGIN = 2.0**-12

#: how far _sr_bound lies above m + log(C - 1 + s), for a folded SR row of C
#: columns with max m and tail scale s, so that it is at least the statistic
#: logsumexp_rows computes for that row.  With u = 2**-53 that statistic is
#: fl(m + log S), S the pairwise sum of C terms: exp(v - m) <= 1 each (a
#: rounded v - m <= 0, and exp is faithful), the last times s, at most s.  So
#: S <= (C - 1 + s)(1 + Cu), and log S exceeds log(C - 1 + s) by less than
#: 2**-32 for C <= 2**20.  The merge adds at most 1 to s per step, so for
#: horizons up to 2**24 C - 1 + s < 2**26, each log is below 2**5 and within
#: 2**-44 (16 ulp) of the real one, and fl(C - 1 + s) moves it by 2**-52.
#: Only rows whose statistic reaches a threshold in (-2**11, 2**11) matter
#: (_sr_bounded takes no others): where m >= 2**11 the bound is at least m
#: and reaches it too, and otherwise |m| < 2**11 + 2**5, so each of the three
#: adds rounds by at most 2**-41.  The errors sum to less than 2**-31.
_SR_MARGIN = 2.0**-24


class _CandidateBuffer:
    """Right-aligned running sums of the candidate change points.

    The sums of one stream form a 1-d array of columns; run_detector_batch
    stacks one row per run into a candidate-major array of (columns, rows),
    and every operation below acts on axis 0, so both shapes go through the
    same arithmetic.  The candidates occupy buf[pos:], newest first: column
    pos + j holds the candidate of age j, whose increment at the next
    observation is the log-likelihood ratio at age index j.  That makes every
    per-step update one contiguous block.  When at most ``limit`` columns are
    read, once the buffer fills the newest ones move back to its end instead
    of the buffer growing: it stays below 4 limit + 64 columns, and the moves
    cost O(1) per step on average.  The ratios' scratch holds the columns read.

    Past the limit, older candidates are dropped (a window) or, with
    ``fold``, merged into the last column: with a fold at saturation index
    L = limit - 1, every candidate of age index >= L gains the same
    increment, so they share one tail column at age index L, and each step
    the candidate that reaches it takes the old tail in through the state's
    merge.  With a ``bound`` per row (_bounded_lockstep) the fold bounds
    rather than sums: the tail column gains bound, at least the ratio of
    every age it holds, so it stays at or above each of its candidates' sums
    (to rounding, see _TAIL_MARGIN) while the newest limit - 1 stay exact.
    The buffer also keeps SR's tail weight, ``scale``.
    """

    def __init__(
        self, rows: int | None = None, limit: int | None = None, fold: bool = False, model: DensityModel | None = None
    ) -> None:
        #: most columns read (None: all of them)
        self.limit = limit
        #: whether candidates past the limit merge into the last column
        self.fold = fold
        #: SR's tail weight per row: the last column holds a shift m, and the
        #: tail's log mass is m + log scale; None until the first merge stands
        #: for 1.0, which is exact since 1.0 * w == w
        self.scale = None
        self.n = 0
        self._pos = _MIN_CAPACITY
        self._rows = () if rows is None else (rows,)
        # rows write their ratios through llr_columns, bound as the scratch grows
        self._columns = None if rows is None else model.llr_columns
        # columns left of the newest candidate stay zero, ready for the next one
        self._buf = np.zeros((_MIN_CAPACITY,) + self._rows)
        self._size_scratch(_MIN_CAPACITY)

    @property
    def active(self) -> int:
        """Number of candidates read after the latest observation."""
        return self.n if self.limit is None else min(self.n, self.limit)

    def _size_scratch(self, cap: int) -> None:
        cols = cap if self.limit is None else min(cap, self.limit)
        self._tmp = np.empty((cols,) + self._rows)
        self._prefix = None if self._columns is None else self._columns(cols)

    def _make_room(self, keep: int) -> None:
        # free the column left of the newest candidate, keeping the newest `keep`
        cap = self._buf.shape[0]
        buf = self._buf
        if 2 * keep > cap:
            cap *= 2
            buf = np.zeros((cap,) + self._rows)
            self._size_scratch(cap)
            buf[cap - keep :] = self._buf[:keep]
        else:
            buf[cap - keep :] = buf[:keep]
            buf[: cap - keep] = 0.0
        self._buf = buf
        self._pos = cap - keep

    def push(self, x, model: DensityModel, merge, bound=None) -> np.ndarray:
        """Register an observation (a float, or a (rows,) row), fold the old
        tail into the candidate reaching age index L with ``merge(pair)``, a
        view of that candidate's column and the tail's after it, update the
        newest `active` candidates (a folded tail by ``bound`` if given), and
        return their sums' view."""
        self.n += 1
        active = self.active
        folding = self.fold and self.n > self.limit
        if self._pos == 0:
            # a window drops its oldest candidate; a fold still merges it
            self._make_room(active if folding else active - 1)
        self._pos -= 1
        if folding:
            at = self._pos + self.limit - 1
            merge(self._buf[at : at + 2])
        view = self._buf[self._pos : self._pos + active]
        ratios = (self._prefix or model.llr_prefix)(active, x, self._tmp)
        if bound is not None and folding:
            ratios[-1] = bound
        view += ratios
        return view

    def view(self) -> np.ndarray:
        return self._buf[self._pos : self._pos + self.active]

    def keep_rows(self, keep: np.ndarray) -> None:
        """Drop the rows whose entry in the boolean mask ``keep`` is False."""
        idx = np.flatnonzero(keep)
        cols = slice(self._pos, self._pos + self.active)
        sums = self._buf[cols, idx]
        # contiguous in place, as the per-step passes and SR's scratch want: the
        # zero rows left of pos take a prefix of the old ones' memory
        self._buf = self._buf.reshape(-1)[: self._buf.shape[0] * idx.size].reshape(-1, idx.size)
        self._buf[cols] = sums
        self._rows = (idx.size,)
        self._tmp = self._tmp.reshape(-1)[: self._tmp.shape[0] * idx.size].reshape(-1, idx.size)
        if self.scale is not None:
            self.scale = self.scale[keep]


class _SumsState:
    """What the three states share: the candidate sums, and the max
    reduction and its merge (ex-cusum and CUSUM)."""

    _cands: _CandidateBuffer

    @property
    def n(self) -> int:
        return self._cands.n

    def _advance(self, x, model: DensityModel):
        return np.maximum.reduce(self._cands.push(x, model, self._merge), axis=0)

    @staticmethod
    def _merge(pair: np.ndarray) -> None:
        # IEEE addition is monotone, so max(a, b) + z == max(a + z, b + z):
        # the tail is the max of its candidates' sums exactly
        candidate = pair[0, ...]
        np.maximum(pair[1, ...], candidate, out=candidate)


class ExCusumState(_SumsState):
    """Incremental state of the growing-family CUSUM statistic.

    ``candidate_sums`` lists the retained candidates' running sums in
    candidate order (oldest hypothesis first); without a window there are n
    of them, with window M only the newest min(n, M).
    """

    def __init__(self, window: int | None = None) -> None:
        if window is not None and (type(window) is not int or window < 1):
            raise ValueError(f"window must be a positive integer or None, got {window!r}")
        self.statistic = -math.inf
        self._cands = _CandidateBuffer(limit=window)

    @property
    def active_count(self) -> int:
        return self._cands.active

    @property
    def candidate_sums(self) -> np.ndarray:
        return self._cands.view()[::-1].copy()

    @property
    def argmax_candidate(self) -> int:
        """The change-point hypothesis k achieving the current statistic."""
        return self.n - int(np.argmax(self._cands.view()))


def ex_cusum_step(state: ExCusumState, x: float, model: DensityModel) -> ExCusumState:
    """Advance the statistic by one observation (mutates and returns state).

    Every retained candidate k gains the log-likelihood ratio at age index
    n - k, a fresh candidate k = n enters at age index 0, candidates older
    than the window are dropped, and the statistic is the max over what
    remains.
    """
    state.statistic = _step(state, x, model)
    return state


class SrState(_SumsState):
    """Incremental state of the Shiryaev-Roberts statistic (log domain).

    ``log_candidate_products`` holds, for each candidate k = 1..n, the log of
    the product of per-sample likelihood ratios since k; ``log_statistic`` is
    log R_n via log-sum-exp over them.
    """

    def __init__(self) -> None:
        self.log_statistic = -math.inf
        self._cands = _CandidateBuffer()

    @property
    def log_candidate_products(self) -> np.ndarray:
        return self._cands.view()[::-1].copy()

    def _advance(self, x, model: DensityModel):
        cands = self._cands
        view = cands.push(x, model, self._merge)
        # _tmp's contents are dead once push() has folded them into the sums
        return logsumexp_rows(view, cands._tmp.reshape(-1), cands.scale)

    def _merge(self, pair: np.ndarray) -> None:
        # the tail keeps a shift and a scale rather than one np.logaddexp
        # column because the scale sums equal candidates exactly: on a zero
        # schedule R_n = n, and a logaddexp tail rounds it, which moves SR's
        # crossing of an exact threshold such as log 20.
        # Shift by the larger of the two; fmin maps the NaN of -inf - (-inf)
        # to 0, where the tail's mass stays exp(-inf) = 0 whatever its scale.
        # Both terms are exponentiated in one call.  The new scale is
        # scale * exp(tail - top) + exp(candidate - top), whose two roundings
        # do not depend on the order of the operands
        cands = self._cands
        top = np.maximum(pair[1], pair[0])
        terms = pair - top
        np.exp(np.fmin(terms, 0.0, out=terms), out=terms)
        cands.scale = terms[0] + (terms[1] if cands.scale is None else terms[1] * cands.scale)
        pair[0] = top


def sr_step(state: SrState, x: float, model: DensityModel) -> SrState:
    """Advance R_n by one observation (mutates and returns state)."""
    state.log_statistic = _step(state, x, model)
    return state


class CusumState(_SumsState):
    """Classic CUSUM against the fixed first post-change density f_0.

    It is the candidate engine folded at L = 0: every candidate gains the
    age-0 ratio, so all of them live in the one tail, and each step is the
    reflected recursion max(statistic, 0) + llr(0, x).  With a constant
    schedule it reproduces the growing-family statistic exactly.
    """

    def __init__(self) -> None:
        self.statistic = 0.0
        self._cands = _CandidateBuffer(limit=1, fold=True)


def cusum_step(state: CusumState, x: float, model: DensityModel) -> CusumState:
    state.statistic = _step(state, x, model)
    return state


class DetectorKind(NamedTuple):
    """What a detector kind is made of: its state class, whether a crossing
    is strict (statistic > threshold) or weak (>=), and whether it takes a
    window."""

    state: type
    strict: bool
    windowed: bool

    def crossed(self, stat, threshold: float):
        """Whether ``stat`` (a float, or an array elementwise) crosses the
        threshold by this kind's rule; NaN never crosses."""
        return stat > threshold if self.strict else stat >= threshold


#: every detector kind, by the name configs and run_detector use
DETECTORS = {
    "ex-cusum": DetectorKind(ExCusumState, strict=True, windowed=True),
    "sr": DetectorKind(SrState, strict=True, windowed=False),
    "cusum": DetectorKind(CusumState, strict=False, windowed=False),
}


def _step(state, x: float, model: DensityModel) -> float:
    # one stream: a validated scalar observation through the state's update
    return float(state._advance(_validate_x(model, x), model))


def ex_cusum_brute(samples, model: DensityModel, n: int) -> float:
    """Literal O(n^2) recomputation of W_n by the double loop over k and i.

    The correctness oracle for the incremental state: scalar arithmetic, no
    shared code with the per-step update.
    """
    if n < 1 or n > len(samples):
        raise ValueError(f"n must be in 1..{len(samples)}, got {n}")
    best = -math.inf
    for k in range(1, n + 1):
        s = 0.0
        for i in range(k, n + 1):
            s += llr(model, i - k, float(samples[i - 1]))
        best = max(best, s)
    return best


def ex_cusum_brute_all(samples, model: DensityModel) -> np.ndarray:
    """W_n for every n <= len(samples), one cumulative-sum row per candidate.

    Same double loop over (k, i) as ex_cusum_brute with the inner loop
    vectorized; structurally independent of the incremental update.
    """
    xs = np.asarray(samples, dtype=np.float64)
    n_max = xs.size
    stats = np.full(n_max, -math.inf)
    for k in range(1, n_max + 1):
        ages = np.arange(n_max - k + 1)
        terms = llr(model, ages, xs[k - 1 :])
        np.maximum(stats[k - 1 :], np.cumsum(terms), out=stats[k - 1 :])
    return stats


@dataclass(frozen=True)
class StopResult:
    """Outcome of running a detector to its first alarm (tau) or to the
    horizon (censored_at); exactly one of the two is set."""

    tau: int | None
    censored_at: int | None

    def __post_init__(self) -> None:
        if (self.tau is None) == (self.censored_at is None):
            raise ValueError("a result carries exactly one of tau and censored_at")

    @property
    def stopped(self) -> bool:
        return self.tau is not None


def _start(kind: str, window: int | None, model: DensityModel, horizon: int, threshold: float, rows: int | None):
    """Validate a run and return its fresh state and its kind's DETECTORS row."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if math.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    return _make_state(kind, window, model, rows), DETECTORS[kind]


def _make_state(kind: str, window: int | None, model: DensityModel, rows: int | None = None):
    """A fresh state for runs on ``model``: of one stream or, with ``rows``, of
    that many streams in lockstep.  Without a window it folds at the model's
    saturation index (CUSUM always folds at 0).  The folded and lockstep
    forms serve the runs only; the public views do not apply to them."""
    spec = DETECTORS.get(kind)
    if spec is None:
        raise ValueError(f"unknown detector kind {kind!r}, expected one of {list(DETECTORS)}")
    if spec.windowed:
        state = spec.state(window=window)
    elif window is not None:
        raise ValueError(f"the {kind!r} detector takes no window")
    else:
        state = spec.state()
    limit, fold = state._cands.limit, state._cands.fold
    if limit is None:
        saturation = model.saturation_index()
        if saturation is not None:
            limit, fold = saturation + 1, True
    state._cands = _CandidateBuffer(rows, limit, fold, model)
    return state


def _retained_columns(kind: str, window: int | None, model: DensityModel, bounded: bool = False) -> int | None:
    """Most candidate sums a run keeps per stream, or None when they grow with
    n.  A ``bounded`` run (_bounded_lockstep) keeps _HEAD and its tail."""
    return _HEAD + 1 if bounded else _make_state(kind, window, model)._cands.limit


def _certified_tail(kind: str, window: int | None, model: DensityModel, threshold: float, horizon: int):
    """The envelope with which _bounded_lockstep runs ex-cusum on a family
    that never saturates, or None where the runs keep the exact state:
    another kind, a window, a saturating family, one without an llr_envelope
    for the ages past _HEAD, a horizon by which no candidate gets there, or a
    threshold or horizon past the ranges _TAIL_MARGIN covers."""
    if kind != "ex-cusum" or window is not None or model.saturation_index() is not None:
        return None
    if not threshold < 2.0**11 or not _HEAD + 1 < horizon <= 2**24:
        return None
    return model.llr_envelope(_HEAD, horizon)


def run_detector(
    kind: str,
    model: DensityModel,
    path_or_stream,
    threshold: float,
    horizon: int,
    *,
    window: int | None = None,
) -> StopResult:
    """Run a detector until its first alarm, censoring at the horizon.

    The threshold is on the log scale for every kind (the Shiryaev-Roberts
    rule stops when R_n > exp(threshold)).  A crossing is strict or weak as
    DETECTORS says for the kind.  A non-finite statistic aborts the run with
    a NumericError.
    """
    state, spec = _start(kind, window, model, horizon, threshold, None)
    it = iter(getattr(path_or_stream, "samples", path_or_stream))
    for t in range(1, horizon + 1):
        try:
            x = float(next(it))
        except StopIteration:
            raise ValueError(f"observation stream exhausted at step {t} before horizon {horizon}")
        stat = _step(state, x, model)
        if not stat < math.inf:
            raise NumericError(f"{kind} statistic non-finite at step {t}: {stat} (x={x})")
        if spec.crossed(stat, threshold):
            return StopResult(tau=t, censored_at=None)
    return StopResult(tau=None, censored_at=horizon)


def run_detector_batch(
    kind: str,
    model: DensityModel,
    streams: list[Iterator[np.ndarray]],
    threshold: float,
    horizon: int,
    *,
    window: int | None = None,
) -> np.ndarray:
    """Run one detector per stream in lockstep and return the stopping times.

    Each stream yields a run's observations as 1-d blocks, and the k-th
    blocks of all streams have one length (as process._sample_blocks gives
    for paths with one change point and horizon).  The result is an int64
    array holding run r's tau, or 0 where run r is censored at the horizon,
    and it equals run_detector(kind, model, <stream r's observations>,
    threshold, horizon, window=window) exactly: all live runs take each step
    together, through the same update and reduction, and a run is dropped
    once it crosses.  A stream is read one block at a time and only while
    its run is live.  The checks are run_detector's, applied to live runs
    only; when several runs fail, the error names the earliest failing step.
    """
    state, spec = _start(kind, window, model, horizon, threshold, len(streams))
    cands = state._cands
    if _sr_bounded(kind, cands, threshold, horizon):
        return _lockstep(kind, model, streams, threshold, horizon, cands, *_folded_sr_steps(state, model))

    def step(xs, bounds, j, at):
        stat = state._advance(xs, model)
        return float(np.maximum.reduce(stat)), stat

    return _lockstep(kind, model, streams, threshold, horizon, cands, step, lambda stat, calm: (stat, None))


def _sr_bounded(kind: str, cands: _CandidateBuffer, threshold: float, horizon: int) -> bool:
    """Whether run_detector_batch takes _folded_sr_steps: SR folded at a
    saturation index, within the ranges _SR_MARGIN covers."""
    return (
        kind == "sr" and cands.fold and cands.limit <= 2**20 and -(2.0**11) < threshold < 2.0**11 and horizon <= 2**24
    )


def _sr_bound(m, columns: int, scale):
    """At least the folded SR statistic logsumexp_rows computes from a row's
    ``columns`` sums, given their max ``m`` and the tail's scale (1.0 before
    the first merge), elementwise (see _SR_MARGIN).  It is +inf or NaN where
    m or the scale is, so such a row always takes the exact path."""
    return m + (np.log(columns - 1 + scale) + _SR_MARGIN)


def _folded_sr_steps(state: SrState, model: DensityModel):
    """The step and settle of folded SR runs that compute the statistic only
    where it may reach the loop's calm ceiling: a step settles nothing while
    _sr_bound of its largest sum and largest scale stays below calm.
    Otherwise settle reads each row's max, and the rows whose own bound
    reaches calm (all rows when those are not a minority) take
    logsumexp_rows with those maxima, while the others keep their bound, so
    every statistic it computes is exact."""
    cands = state._cands

    def step(xs, bounds, j, at):
        sums = cands.push(xs, model, state._merge)
        scale = 1.0 if cands.scale is None else np.maximum.reduce(cands.scale)
        return float(_sr_bound(np.maximum.reduce(sums, axis=None), sums.shape[0], scale)), sums

    def settle(sums, calm):
        m = np.maximum.reduce(sums, axis=0)
        scale = cands.scale
        stat = _sr_bound(m, sums.shape[0], 1.0 if scale is None else scale)
        reach = np.flatnonzero(~(stat < calm))
        scratch = cands._tmp.reshape(-1)
        if 2 * reach.size >= m.size:
            return logsumexp_rows(sums, scratch, scale, m), None
        if reach.size:
            stat[reach] = logsumexp_rows(sums[:, reach], scratch, None if scale is None else scale[reach], m[reach])
        return stat, None

    return step, settle


def _bounded_lockstep(model: DensityModel, streams, threshold: float, horizon: int, envelope) -> np.ndarray:
    """run_detector_batch for ex-cusum with a bounded tail, the ``envelope``
    of _certified_tail: each run keeps its newest _HEAD candidates exact and
    bounds the older ones by one tail column that gains envelope(x), so
    max(head) <= W_n <= max(head, tail) with W_n the exact statistic (to
    rounding, see _TAIL_MARGIN).  A run stops where its head crosses and
    goes on where its tail is at most threshold - _TAIL_MARGIN.  Otherwise,
    or where its next block holds an |x| of _X_BOUND or more (NaN too), it
    leaves with tau -1, to be rerun on the exact state; every other tau is
    run_detector_batch's."""
    cands = _CandidateBuffer(len(streams), _HEAD + 1, True, model)

    def step(xs, bounds, j, at):
        sums = cands.push(xs, model, _SumsState._merge, bounds[j, at])
        return float(np.maximum.reduce(sums, axis=None)), sums

    def settle(sums, calm):
        return np.maximum.reduce(sums[:_HEAD], axis=0), sums[_HEAD] if cands.n > _HEAD else None

    return _lockstep("ex-cusum", model, streams, threshold, horizon, cands, step, settle, envelope)


def _lockstep(kind: str, model: DensityModel, streams, threshold, horizon, cands, step, settle, envelope=None):
    """The one step loop of run_detector_batch and _bounded_lockstep: ``step(xs,
    bounds, j, at)`` advances the live runs on xs, step j of the block's columns
    ``at``, returning their largest value (or a bound of it) and what
    ``settle(values, calm)`` turns into their statistics and tails (None if
    exact), where calm is the ceiling below which nothing settles.
    ``envelope`` and the check run per block."""
    spec = DETECTORS[kind]
    # below calm no statistic crosses or is +inf or NaN, and no tail passes the ceiling
    ceiling = threshold if envelope is None else threshold - _TAIL_MARGIN
    calm = float(np.nextafter(ceiling, math.inf)) if spec.strict else ceiling
    taus = np.zeros(len(streams), dtype=np.int64)
    live = np.arange(len(streams))
    block = bounds = np.empty((0, 0))  # (steps, runs): the live runs' current blocks
    at = live  # column of each live run in block
    j = 0
    for t in range(1, horizon + 1):
        if j == block.shape[0]:
            del block, bounds  # free the old block before the next one is drawn
            block, at, j = _next_blocks(streams, live, t, horizon), np.arange(live.size), 0
            if envelope is not None and not float(np.abs(block).max()) < _X_BOUND:
                taus[live] = -1
                break
            bounds = None if envelope is None else envelope(block)
            try:
                checked = _validate_x(model, block) is not None  # True unless it raises
            except ValueError:
                checked = False  # so each step checks its live runs
        xs = block[j, at]
        if not checked:
            _validate_x(model, xs)
        top, values = step(xs, bounds, j, at)
        j += 1
        if top < calm:
            continue
        stat, tail = settle(values, calm)
        top = float(np.maximum.reduce(stat))  # NaN and +inf propagate into the max
        if not top < math.inf:
            r = int(np.argmax(~(stat < math.inf)))
            raise NumericError(f"{kind} statistic non-finite at step {t}: {stat[r]} (x={xs[r]})")
        leave = None
        if tail is not None and not float(np.maximum.reduce(tail)) <= ceiling:
            leave = ~(tail <= ceiling)
            taus[live[leave]] = -1
        if spec.crossed(top, threshold):
            crossed = spec.crossed(stat, threshold)
            taus[live[crossed]] = t  # a crossing head settles a bounded run exactly
            leave = crossed if leave is None else leave | crossed
        if leave is not None:
            keep = ~leave
            live = live[keep]
            if live.size == 0:
                break
            at = at[keep]
            cands.keep_rows(keep)
    return taus


def _next_blocks(streams, live: np.ndarray, t: int, horizon: int) -> np.ndarray:
    """The next block of every live run, one row per step and one column per
    run, copied in as it is drawn so that no run's block is held twice."""
    block = None
    for c, r in enumerate(live.tolist()):
        part = next(streams[r], None)
        if part is None:
            raise ValueError(f"observation stream exhausted at step {t} before horizon {horizon}")
        if block is None:
            block = np.empty((part.size, live.size))
        block[:, c] = part
    return block


def statistic_trace(
    kind: str, model: DensityModel, samples, *, window: int | None = None
) -> np.ndarray:
    """Statistic value after each observation of a full sample sequence."""
    state = _make_state(kind, window, model)
    xs = getattr(samples, "samples", samples)
    out = np.empty(len(xs))
    for i, x in enumerate(xs):
        out[i] = _step(state, float(x), model)
    return out
