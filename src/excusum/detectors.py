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
schedule's cached means, the very values the ratio hooks add, and every
built-in schedule but arctangent has one (geometric-approach from where
1 - ratio**n rounds to 1).  The classic CUSUM is this engine folded at
L = 0 on the age-0 ratio.  For families that never saturate (arctangent)
no constant-memory recursion of the exact statistic exists, but the Monte
Carlo runs of ex-cusum still need only O(head) per step: given the head
and envelope of _certified_tail, _lockstep keeps the newest head candidates
exact and folds the older ones into one tail that gains the model's
llr_envelope, an upper bound of their ratios, so the tail bounds them from
above.  The head is sized from the schedule (_head): twice the fewest ages
whose KL numbers sum to the threshold, so it grows with the first-order
delay A / I, and past _HEAD_CAP the runs keep the exact state.  A run whose
head crosses stops exactly; one whose tail comes within _TAIL_MARGIN of the
threshold leaves, for its caller to rerun without the envelope, so every
stopping time is the exact run's.  run_detector, statistic_trace and
_lockstep without an envelope stay exact; an optional window caps the
candidate count of any run at the price of an uncharacterized
approximation.  The candidate buffer owns all of this: how many columns are
read, whether older candidates are dropped, folded or bounded, and SR's
tail weight.

The Shiryaev-Roberts variant replaces the max by a sum of likelihood-ratio
products; R_n - n is a martingale under the pre-change law, which is what
makes threshold exp(A) give a mean time to false alarm of at least exp(A).
All accumulation is in the log domain, with log-sum-exp for R_n, which a
lockstep step computes only for the runs whose _sr_bound, m + log(C - 1 + s)
plus _SR_MARGIN for C sums of max m and tail scale s, reaches the threshold.

The DETECTORS table is the one list of detector kinds: each kind names its
state class, its crossing rule (strict > for ex-cusum and SR, >= for the
classic CUSUM) and whether it takes a window.  DetectorKind.crossed is the
one test of a statistic against a threshold, for every stop decision.
Every per-sample ratio comes from a model hook, which the candidate buffer
picks by its shape: llr_prefix for one stream, llr_columns for lockstep rows.
Every observation comes from another, block_sampler: run_detector reads a
path that generate_path drew through it, and _lockstep reads the blocks of
a drawer, process._block_drawer for simulate_trials, which draws through it.

States are single-owner: mutate them only from their owning run.  A state
holds one stream (a 1-d array of running sums) or, built by _lockstep, one
candidate-major row per run, and drops each finished row.  Either way a step
is the buffer's push and the kind's one reduction, _reduce: the max for
ex-cusum and CUSUM, the log-sum-exp for SR.  The public ExCusumState and
SrState never fold, and serve as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .models import DensityModel, _validate_x
from .numerics import NumericError, logsumexp_rows

_MIN_CAPACITY = 64

#: the fewest and the most candidates a bounded run keeps exact (see _head);
#: _TAIL_MARGIN's derivation holds up to _HEAD_CAP, so a longer head keeps
#: the exact state instead
_HEAD_FLOOR = 8
_HEAD_CAP = 60

#: steps of a sample block whose envelope a bounded run evaluates at once, so
#: that it holds two such pieces (the result and one temporary), not two blocks
_PIECE = 16

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
#: |x| of _X_BOUND leaves, and _certified_tail takes thresholds below 2**11,
#: horizons up to 2**24 and heads up to _HEAD_CAP.  So |T| < 2**12 while a
#: run goes on (T <= A, and T is at least the sum of head + 1 ratios and one
#: envelope, each of size below 66, and (head + 2) * 66 < 2**12 for every
#: head up to 60; a larger cap needs this bound derived again), and an S
#: below -2**13 trails T by more than 2**12, a gap that never closes in the
#: reals and that its rounding, at most 2**-29 |S| over 2**24 steps, cannot
#: close either.  That leaves (a) + (b) below 2**-44 + 2**-39 per step, under
#: 2**-14 over 2**24 steps.
_TAIL_MARGIN = 2.0**-12

#: how far _sr_bound lies above m + log(C - 1 + s), for an SR row of C
#: columns with max m and tail scale s (1 for an unfolded row, whose last
#: column is a candidate like the others), so that it is at least the
#: statistic logsumexp_rows computes for that row.  With u = 2**-53 that
#: statistic is fl(m + log S), S the pairwise sum of C terms: exp(v - m) <= 1
#: each (a rounded v - m <= 0, and exp is faithful), the last times s, at most
#: s.  So S <= (C - 1 + s)(1 + Cu), and as C <= n <= horizon <= 2**24, log S
#: exceeds log(C - 1 + s) by less than Cu <= 2**-29.  The merge adds at most 1
#: to s per step, so C - 1 + s < 2**26, each log is below 2**5 and within
#: 2**-44 (16 ulp) of the real one, and fl(C - 1 + s) moves it by 2**-52.
#: Only rows whose statistic reaches a threshold in (-2**11, 2**11) matter
#: (outside these ranges _lockstep settles every step): where m >= 2**11 the
#: bound is at least m and reaches it too, and otherwise |m| < 2**11 + 2**5,
#: so each of the three adds rounds by at most 2**-41.  The errors sum to
#: less than 2**-28.
_SR_MARGIN = 2.0**-24


class _CandidateBuffer:
    """Right-aligned running sums of the candidate change points.

    The sums of one stream form a 1-d array of columns; _lockstep stacks one
    row per run into a candidate-major array of (columns, rows), and every
    operation below acts on axis 0, so both shapes go through the same
    arithmetic.  The candidates occupy buf[pos:], newest first: column
    pos + j holds the candidate of age j, whose increment at the next
    observation is the log-likelihood ratio at age index j.  That makes every
    per-step update one contiguous block.  When at most ``limit`` columns are
    read, the buffer starts at _capacity(limit) columns, at least 2 limit, and
    never grows: once it fills the newest ones move back to its end, which
    costs O(1) per step on average.  Otherwise it doubles as it fills.  The
    ratios' scratch holds the columns read.

    Past the limit, older candidates are dropped (a window) or, with
    ``fold``, merged into the last column: with a fold at saturation index
    L = limit - 1, every candidate of age index >= L gains the same
    increment, so they share one tail column at age index L, and each step
    the candidate that reaches it takes the old tail in through the state's
    merge.  With a ``bound`` per row (_lockstep given an envelope) the fold
    bounds rather than sums: the tail column gains bound, at least the ratio
    of every age it holds, so it stays at or above each of its candidates'
    sums (to rounding, see _TAIL_MARGIN) while the newest limit - 1 stay
    exact.
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
        cap = _capacity(limit)
        self._pos = cap
        self._rows = () if rows is None else (rows,)
        # rows write their ratios through llr_columns, bound as the scratch grows
        self._columns = None if rows is None else model.llr_columns
        # columns left of the newest candidate stay zero, ready for the next one
        self._buf = np.zeros((cap,) + self._rows)
        self._size_scratch(cap)

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


def _capacity(limit: int | None) -> int:
    """Columns a candidate buffer that reads at most ``limit`` starts with:
    enough that one reading ``limit`` never grows (None: it doubles as it fills)."""
    return _MIN_CAPACITY if limit is None else max(_MIN_CAPACITY, 2 * limit)


class _SumsState:
    """What the three states share: the candidate sums, and the max
    reduction, its lockstep _settle and its merge (ex-cusum and CUSUM)."""

    _cands: _CandidateBuffer
    #: how many candidates stay exact where the last column bounds the older
    #: ones (_lockstep given an envelope), else None
    _head = None

    @property
    def n(self) -> int:
        return self._cands.n

    def _reduce(self, sums: np.ndarray, m=None):
        """The statistic of each stream from its sums (axis 0)."""
        return np.maximum.reduce(sums, axis=0)

    def _settle(self, sums: np.ndarray, calm: float):
        """(None, None) where the largest sum, a bounded tail's too, stays
        below ``calm``; else each row's statistic, the max of its sums (of its
        head if bounded), and a bounded run's tail, None while every sum is
        exact."""
        if np.maximum.reduce(sums, axis=None) < calm:
            return None, None
        head = self._head
        if head is None:
            return self._reduce(sums), None
        return self._reduce(sums[:head]), sums[head] if self._cands.n > head else None

    @staticmethod
    def _merge(pair: np.ndarray) -> None:
        # IEEE addition is monotone, so max(a, b) + z == max(a + z, b + z):
        # the tail is the max of its candidates' sums exactly
        candidate = pair[0, ...]
        np.maximum(pair[1, ...], candidate, out=candidate)


class ExCusumState(_SumsState):
    """Incremental state of the growing-family CUSUM statistic: one running
    sum per candidate, n of them without a window, with window M only the
    newest min(n, M)."""

    def __init__(self, window: int | None = None) -> None:
        self.statistic = -math.inf
        self._cands = _CandidateBuffer(None, *_layout("ex-cusum", window, None))


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
    """Incremental state of the Shiryaev-Roberts statistic (log domain): for
    each candidate k = 1..n the log of the product of per-sample likelihood
    ratios since k, and ``log_statistic``, log R_n, their log-sum-exp."""

    def __init__(self) -> None:
        self.log_statistic = -math.inf
        self._cands = _CandidateBuffer(None, *_layout("sr", None, None))

    def _reduce(self, sums: np.ndarray, m=None):
        # _tmp's contents are dead once push() has folded them into the sums
        cands = self._cands
        return logsumexp_rows(sums, cands._tmp.reshape(-1), cands.scale, m)

    def _settle(self, sums: np.ndarray, calm: float):
        """(None, None) where _sr_bound of the largest sum and scale, which
        bounds every row's, stays below ``calm``; else each row's _sr_bound,
        and where it reaches calm its statistic as _reduce computes it (on
        every row when those are not a minority), and no tail."""
        scale = self._cands.scale
        top_scale = 1.0 if scale is None else np.maximum.reduce(scale)
        if _sr_bound(np.maximum.reduce(sums, axis=None), sums.shape[0], top_scale) < calm:
            return None, None
        m = np.maximum.reduce(sums, axis=0)
        stat = _sr_bound(m, sums.shape[0], 1.0 if scale is None else scale)
        reach = ~(stat < calm)
        count = np.count_nonzero(reach)
        if 2 * count >= m.size:
            return self._reduce(sums, m), None
        if count:
            scratch = self._cands._tmp.reshape(-1)
            stat[reach] = logsumexp_rows(sums[:, reach], scratch, None if scale is None else scale[reach], m[reach])
        return stat, None

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
        self._cands = _CandidateBuffer(None, *_layout("cusum", None, None))


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
    # one stream: a validated scalar observation through the buffer and the kind's reduction
    return float(state._reduce(state._cands.push(_validate_x(model, x), model, state._merge)))


@dataclass(frozen=True)
class StopResult:
    """Outcome of running a detector to its first alarm (tau) or to the
    horizon (censored_at); exactly one of the two is set."""

    tau: int | None
    censored_at: int | None

    def __post_init__(self) -> None:
        if (self.tau is None) == (self.censored_at is None):
            raise ValueError("a result carries exactly one of tau and censored_at")


def _start(kind: str, window: int | None, model: DensityModel, horizon: int, threshold: float, rows, head=None):
    """Validate a run and return its fresh state and its kind's DETECTORS row."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if math.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    return _make_state(kind, window, model, rows, head), DETECTORS[kind]


def _make_state(kind: str, window: int | None, model: DensityModel, rows: int | None = None, head: int | None = None):
    """A fresh state for runs on ``model``: of one stream or, with ``rows``, of
    that many streams in lockstep, its buffer laid out by _layout."""
    limit, fold = _layout(kind, window, model, head)
    # the kind's reductions on the run's buffer; the public statistic is unset
    state = object.__new__(DETECTORS[kind].state)
    state._cands, state._head = _CandidateBuffer(rows, limit, fold, model), head
    return state


def _layout(kind: str, window: int | None, model: DensityModel | None, head: int | None = None):
    """(limit, fold) of a state's candidate buffer: a window keeps the newest
    ``window`` sums, a bounded run (_lockstep given a ``head``) the head and
    its tail; otherwise CUSUM folds at 0 and the other kinds at the
    saturation index of ``model`` (None for a public state, which never
    folds), or keep every sum where there is none.  ``limit`` is the most
    sums a run keeps per stream, None when they grow with n."""
    spec = DETECTORS.get(kind)
    if spec is None:
        raise ValueError(f"unknown detector kind {kind!r}, expected one of {list(DETECTORS)}")
    if window is not None:
        if not spec.windowed:
            raise ValueError(f"the {kind!r} detector takes no window")
        if type(window) is not int or window < 1:
            raise ValueError(f"window must be a positive integer or None, got {window!r}")
        return window, False
    if head is not None:
        return head + 1, True
    saturation = 0 if kind == "cusum" else None if model is None else model.saturation_index()
    return (None, False) if saturation is None else (saturation + 1, True)


def _state_elements(kind: str, window: int | None, model: DensityModel, head: int | None = None) -> int | None:
    """float64 elements a lockstep state holds per run: its buffer's columns,
    its ratio scratch and, given a ``head``, its envelope pieces; None where
    its sums grow with n."""
    limit = _layout(kind, window, model, head)[0]
    if limit is None:
        return None
    return _capacity(limit) + limit + (0 if head is None else 2 * _PIECE)


def _head(model: DensityModel, threshold: float) -> int | None:
    """How many candidates a bounded run on ``model`` keeps exact:
    max(_HEAD_FLOOR, 2 k), with k the fewest ages whose KL numbers sum to at
    least the threshold, as the first-order delay A / I grows with A (Lai
    1998, IEEE T-IT 44(7)); None where that passes _HEAD_CAP."""
    sums = np.cumsum(np.concatenate(([0.0], model.kl(np.arange(_HEAD_CAP // 2)))))
    head = max(_HEAD_FLOOR, 2 * int(np.searchsorted(sums, threshold)))
    return head if head <= _HEAD_CAP else None


def _certified_tail(kind: str, window: int | None, model: DensityModel, threshold: float, horizon: int):
    """The (head, envelope) with which _lockstep runs ex-cusum on a family
    that never saturates, or None where the runs keep the exact state:
    another kind, a window, a saturating family, a threshold or horizon past
    the ranges _TAIL_MARGIN covers, a head past _HEAD_CAP, a horizon by which
    no candidate gets past the head, or a family with no llr_envelope for the
    ages past it.  The oldest age is asked first: a family with no envelope
    for it, as every family without llr_envelope, reads no KL number, which
    a custom family integrates by quadrature."""
    if kind != "ex-cusum" or window is not None or model.saturation_index() is not None:
        return None
    if not threshold < 2.0**11 or not horizon <= 2**24 or model.llr_envelope(horizon - 1, horizon) is None:
        return None
    head = _head(model, threshold)
    if head is None or not head + 1 < horizon:
        return None
    envelope = model.llr_envelope(head, horizon)
    return None if envelope is None else (head, envelope)


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


def _sr_bound(m, columns: int, scale):
    """At least the SR statistic logsumexp_rows computes from a row's
    ``columns`` sums, given their max ``m`` and the tail's scale (1 for an
    unfolded row), elementwise (see _SR_MARGIN).  It is +inf or NaN where m
    or the scale is, so such a row always settles."""
    return m + (np.log(columns - 1 + scale) + _SR_MARGIN)


def _sr_bound_holds(threshold: float, horizon: int) -> bool:
    """Whether _sr_bound may rule a step of an SR run out: a threshold and a
    horizon within the ranges _SR_MARGIN covers."""
    return -(2.0**11) < threshold < 2.0**11 and horizon <= 2**24


def _lockstep(kind: str, model: DensityModel, draw, runs: int, threshold, horizon, window, certified) -> np.ndarray:
    """Run ``runs`` detectors in lockstep and return the int64 stopping
    times: run r's tau, or 0 where run r is censored at the horizon.

    draw(live, t) returns the observations of the runs ``live`` from step t
    to the end of a block, one row per step and one column per run, as
    process._block_drawer does; it is called at step 1 and again after each
    block, with the runs still live, so a run reads no block once it has
    stopped.  With ``certified`` None each tau equals run_detector(kind, model,
    <run r's observations>, threshold, horizon, window=window) exactly: all
    live runs take each step together, through the same update and
    reduction, and a run is dropped once it crosses.  The checks are
    run_detector's, applied to live runs only; when several runs fail, the
    error names the earliest failing step.

    With the (head, envelope) of _certified_tail (ex-cusum, no window) each
    run keeps its newest head candidates exact and bounds the older ones by
    one tail column that gains envelope(x), so max(head) <= W_n <= max(head,
    tail) with W_n the exact statistic (to rounding, see _TAIL_MARGIN).  A
    run stops where its head crosses and goes on where its tail is at most
    threshold - _TAIL_MARGIN.  Otherwise, or where its next block holds an
    |x| of _X_BOUND or more (NaN too), it leaves with tau -1, to be rerun
    with no envelope; every other tau is the exact run's.

    Every kind takes one step: push the live runs' observations (a bounded
    run's with the envelope's tail bound), then the state's _settle, which
    reads one upper bound of the step's largest statistic and works out each
    run's statistic and tail only where that bound reaches calm, the ceiling
    below which nothing settles.  The observations' check runs per block, and
    ``envelope`` per _PIECE steps of a block."""
    head, envelope = (None, None) if certified is None else certified
    state, spec = _start(kind, window, model, horizon, threshold, runs, head)
    # below calm no statistic crosses or is +inf or NaN, and no tail passes the ceiling
    ceiling = threshold if envelope is None else threshold - _TAIL_MARGIN
    calm = float(np.nextafter(ceiling, math.inf)) if spec.strict else ceiling
    if kind == "sr" and not _sr_bound_holds(threshold, horizon):
        calm = -math.inf  # every step settles, through logsumexp_rows
    taus = np.zeros(runs, dtype=np.int64)
    live = np.arange(runs)
    block = np.empty((0, 0))  # (steps, runs): the live runs' current blocks
    bounds = None  # (_PIECE, runs): envelope(x) of the current piece of block
    at = live  # column of each live run in block
    j = 0
    for t in range(1, horizon + 1):
        if j == block.shape[0]:
            del block, bounds  # free the old block before the next one is drawn
            block, bounds, at, j = draw(live, t), None, np.arange(live.size), 0
            if envelope is not None and not max(float(block.max()), -float(block.min())) < _X_BOUND:
                taus[live] = -1
                break
            try:
                checked = _validate_x(model, block) is not None  # True unless it raises
            except ValueError:
                checked = False  # so each step checks its live runs
        xs = block[j, at]
        if not checked:
            _validate_x(model, xs)
        if envelope is not None and j % _PIECE == 0:
            bounds = None  # free the old piece before the next one is evaluated
            bounds = envelope(block[j : j + _PIECE])
        sums = state._cands.push(xs, model, state._merge, None if bounds is None else bounds[j % _PIECE, at])
        j += 1
        stat, tail = state._settle(sums, calm)
        if stat is None:
            continue
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
            state._cands.keep_rows(keep)
    return taus


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
