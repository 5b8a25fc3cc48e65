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
scaled sum for SR, to rounding.  The classic CUSUM is this engine folded at
L = 0 on the age-0 ratio.  Only for families that never saturate does no
constant-memory recursion exist; there an optional window caps the
candidate count at the price of an uncharacterized approximation.  The
candidate buffer owns all of this: how many columns are read, whether older
candidates are dropped or folded, and SR's tail weight.

The Shiryaev-Roberts variant replaces the max by a sum of likelihood-ratio
products; R_n - n is a martingale under the pre-change law, which is what
makes threshold exp(A) give a mean time to false alarm of at least exp(A).
All accumulation is in the log domain, with log-sum-exp for R_n.

The DETECTORS table is the one list of detector kinds: each kind names its
state class, its crossing rule (strict > for ex-cusum and SR, >= for the
classic CUSUM) and whether it takes a window.  DetectorKind.crossed is the
one test of a statistic against a threshold, for every stop decision.
Every per-sample ratio comes from the model's llr_prefix hook.

States are single-owner: mutate them only from their owning run.  A state
holds one stream (a 1-d row of running sums); run_detector_batch builds
private states holding a stack of rows that advance in lockstep through the
same update, fold and reductions, and drops each row once its run stops.
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


class _CandidateBuffer:
    """Right-aligned running sums of the candidate change points.

    The sums of one stream form a 1-d row; run_detector_batch stacks one row
    per run into a 2-d array, and every operation below acts on the last axis,
    so both shapes go through the same arithmetic.  The candidates occupy
    buf[..., pos:], newest first: column pos + j holds the candidate of age j,
    whose increment at the next observation is the log-likelihood ratio at
    age index j.  That makes every per-step update a contiguous-slice
    operation on each row.  When at most ``limit`` columns are read, once the
    buffer fills the newest ones move back to its right end instead of the
    buffer growing: it stays below 4 limit + 64 columns, and the moves cost
    O(1) per step on average.

    Past the limit, older candidates are dropped (a window) or, with
    ``fold``, merged into the last column: with a fold at saturation index
    L = limit - 1, every candidate of age index >= L gains the same
    increment, so they share one tail column at age index L, and each step
    the candidate that reaches it takes the old tail in through the state's
    merge.  The buffer also keeps SR's tail weight, ``scale``.
    """

    def __init__(self, rows: int | None = None, limit: int | None = None, fold: bool = False) -> None:
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
        # columns left of the newest candidate stay zero, ready for the next one
        self._buf = np.zeros(self._rows + (_MIN_CAPACITY,))
        self._tmp = np.empty(self._buf.shape)

    @property
    def active(self) -> int:
        """Number of candidates read after the latest observation."""
        return self.n if self.limit is None else min(self.n, self.limit)

    def _make_room(self, keep: int) -> None:
        # free the column left of the newest candidate, keeping the newest `keep`
        cap = self._buf.shape[-1]
        buf = self._buf
        if 2 * keep > cap:
            cap *= 2
            buf = np.zeros(self._rows + (cap,))
            self._tmp = np.empty(buf.shape)
            buf[..., cap - keep :] = self._buf[..., :keep]
        else:
            buf[..., cap - keep :] = buf[..., :keep]
            buf[..., : cap - keep] = 0.0
        self._buf = buf
        self._pos = cap - keep

    def push(self, x, model: DensityModel, merge) -> np.ndarray:
        """Register an observation (a float, or a (rows, 1) column with one per
        row), fold the old tail into the candidate reaching age index L with
        ``merge(candidate, tail)`` (column views), update the newest `active`
        candidates, and return the view of their sums (newest first)."""
        self.n += 1
        active = self.active
        folding = self.fold and self.n > self.limit
        if self._pos == 0:
            # a window drops its oldest candidate; a fold still merges it
            self._make_room(active if folding else active - 1)
        self._pos -= 1
        if folding:
            at = self._pos + self.limit - 1
            merge(self._buf[..., at], self._buf[..., at + 1])
        view = self._buf[..., self._pos : self._pos + active]
        view += model.llr_prefix(active, x, self._tmp)
        return view

    def view(self) -> np.ndarray:
        return self._buf[..., self._pos : self._pos + self.active]

    def scratch(self, size: int) -> np.ndarray:
        # _tmp's contents are dead once push() has folded them into the sums
        return self._tmp[..., :size]

    def keep_rows(self, keep: np.ndarray) -> None:
        """Drop the rows whose entry in the boolean mask ``keep`` is False."""
        idx = np.flatnonzero(keep)
        cols = slice(self._pos, self._pos + self.active)
        self._buf[: idx.size, cols] = self._buf[idx, cols]
        self._buf = self._buf[: idx.size]
        self._tmp = self._tmp[: idx.size]
        self._rows = (idx.size,)
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
        return self._cands.push(x, model, self._merge).max(axis=-1)

    @staticmethod
    def _merge(candidate: np.ndarray, tail: np.ndarray) -> None:
        # IEEE addition is monotone, so max(a, b) + z == max(a + z, b + z):
        # the tail is the max of its candidates' sums exactly
        np.maximum(tail, candidate, out=candidate)


class ExCusumState(_SumsState):
    """Incremental state of the growing-family CUSUM statistic.

    ``candidate_sums`` lists the retained candidates' running sums in
    candidate order (oldest hypothesis first); without a window there are n
    of them, with window M only the newest min(n, M).
    """

    def __init__(self, window: int | None = None) -> None:
        if window is not None and (not isinstance(window, int) or window < 1):
            raise ValueError(f"window must be a positive integer or None, got {window!r}")
        self.window = window
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
        return logsumexp_rows(view, cands.scratch(view.shape[-1]), cands.scale)

    def _merge(self, candidate: np.ndarray, tail: np.ndarray) -> None:
        # shift by the larger of the two; fmin maps the NaN of -inf - (-inf)
        # to 0, where the tail's mass stays exp(-inf) = 0 whatever its scale
        cands = self._cands
        top = np.maximum(tail, candidate)
        scale = 1.0 if cands.scale is None else cands.scale
        cands.scale = scale * np.exp(np.fmin(tail - top, 0.0)) + np.exp(np.fmin(candidate - top, 0.0))
        candidate[...] = top


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
    """Outcome of running a detector to its first alarm or to the horizon."""

    stopped: bool
    tau: int | None
    censored_at: int | None

    def __post_init__(self) -> None:
        if self.stopped and (self.tau is None or self.censored_at is not None):
            raise ValueError("stopped result must carry tau and no censoring point")
        if not self.stopped and (self.tau is not None or self.censored_at is None):
            raise ValueError("censored result must carry censored_at and no tau")


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
    state._cands = _CandidateBuffer(rows, limit, fold)
    return state


def _retained_columns(kind: str, window: int | None, model: DensityModel) -> int | None:
    """Most candidate sums a run keeps per stream, or None when they grow with n."""
    return _make_state(kind, window, model)._cands.limit


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
            return StopResult(stopped=True, tau=t, censored_at=None)
    return StopResult(stopped=False, tau=None, censored_at=horizon)


def run_detector_batch(
    kind: str,
    model: DensityModel,
    streams: list[Iterator[np.ndarray]],
    threshold: float,
    horizon: int,
    *,
    window: int | None = None,
) -> list[StopResult]:
    """Run one detector per stream in lockstep.

    Each stream yields a run's observations as 1-d blocks, and the k-th
    blocks of all streams have one length (as process._sample_blocks gives
    for paths with one change point and horizon).  Run r's result equals
    run_detector(kind, model, <stream r's observations>, threshold, horizon,
    window=window) exactly: all live runs take each step together, through
    the same update and reduction, and a run is dropped once it crosses.  A
    stream is read one block at a time and only while its run is live.  The
    checks are run_detector's, applied to live runs only; when several runs
    fail, the error names the earliest failing step.
    """
    state, spec = _start(kind, window, model, horizon, threshold, len(streams))
    taus = np.zeros(len(streams), dtype=np.int64)
    live = np.arange(len(streams))
    block = np.empty((0, 0))  # (steps, runs): the live runs' current blocks
    at = live  # column of each live run in block
    j = 0
    for t in range(1, horizon + 1):
        if j == block.shape[0]:
            # the next block of every live run, one row per step, copied in
            # as it is drawn so that no run's block is held twice
            block = None
            for c, r in enumerate(live.tolist()):
                part = next(streams[r], None)
                if part is None:
                    raise ValueError(f"observation stream exhausted at step {t} before horizon {horizon}")
                if block is None:
                    block = np.empty((part.size, live.size))
                block[:, c] = part
            at = np.arange(live.size)
            j = 0
        xs = _validate_x(model, block[j, at][:, None])
        j += 1
        stat = state._advance(xs, model)
        top = float(stat.max())  # NaN and +inf propagate into the max
        if not top < math.inf:
            r = int(np.argmax(~(stat < math.inf)))
            raise NumericError(f"{kind} statistic non-finite at step {t}: {stat[r]} (x={xs[r, 0]})")
        if spec.crossed(top, threshold):
            crossed = spec.crossed(stat, threshold)
            taus[live[crossed]] = t
            keep = ~crossed
            live = live[keep]
            if live.size == 0:
                break
            at = at[keep]
            state._cands.keep_rows(keep)
    return [
        StopResult(stopped=True, tau=int(t), censored_at=None)
        if t
        else StopResult(stopped=False, tau=None, censored_at=horizon)
        for t in taus.tolist()
    ]


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
