"""Small shared numerical routines: self-refining trapezoid quadrature and a
stable log-sum-exp."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

#: points of adaptive_trapezoid's first grid, the gap between two successive
#: estimates that ends its refinement, and the most grids it tries
TRAPEZOID_START_POINTS = 1025
TRAPEZOID_TOL = 1e-10
TRAPEZOID_REFINEMENTS = 16


class NumericError(RuntimeError):
    """A numerical routine failed (non-convergence, non-finite statistic)."""


def adaptive_trapezoid(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> float:
    """Integrate ``fn`` over [lo, hi] by composite trapezoid with grid doubling.

    The grid starts at TRAPEZOID_START_POINTS points and is refined (points
    roughly doubled) until two successive estimates differ by less than
    TRAPEZOID_TOL.  Raises NumericError with the last residual if
    TRAPEZOID_REFINEMENTS grids do not get there.  ``fn`` must accept a full
    grid as an ndarray.
    """
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"integration window must be finite with lo < hi, got ({lo}, {hi})")
    pts = TRAPEZOID_START_POINTS
    prev: float | None = None
    residual = np.inf
    for _ in range(TRAPEZOID_REFINEMENTS):
        xs = np.linspace(lo, hi, pts)
        val = float(_trapezoid(fn(xs), xs))
        if prev is not None:
            residual = abs(val - prev)
            if residual < TRAPEZOID_TOL:
                return val
        prev = val
        pts = 2 * pts - 1
    raise NumericError(
        f"trapezoid refinement did not converge on [{lo}, {hi}]: "
        f"residual {residual:.3e} > tol {TRAPEZOID_TOL:.1e}"
    )


def logsumexp(values: np.ndarray) -> float:
    """log(sum(exp(values))) with the running-max shift; values must be nonempty."""
    return float(logsumexp_rows(values))


def logsumexp_rows(values: np.ndarray, scratch: np.ndarray | None = None, tail_scale=None, m=None):
    """log(sum(exp(values))) over the first axis, which must be nonempty.

    A 1-d array gives a scalar; a 2-d array of (columns, rows) one value per
    row, summed pairwise in a row-major (rows, columns) scratch as a 1-d array
    is.  Each row is shifted by its max, so a row whose max is not finite
    returns that max (all -inf collapses to -inf; +inf and NaN propagate).
    ``m`` may supply those maxes, np.maximum.reduce(values, axis=0), when the
    caller has them.  ``scratch`` may supply a reusable contiguous 1-d buffer
    of values.size.  ``tail_scale`` (a float, or one per row) multiplies the
    last column's term: that column is then the shift m of a folded tail
    whose mass is tail_scale * exp(m).  The log is ``math.log`` per row
    rather than numpy's vectorized log, which can differ from it in the last
    bit; that keeps every row bit-identical to a scalar computation.
    """
    if m is None:
        m = np.maximum.reduce(values, axis=0)
    if values.ndim == 1:
        if not math.isfinite(m):
            return m
        out = np.empty(values.shape) if scratch is None else scratch[: values.size]
        np.subtract(values, m, out=out)
    elif not np.isfinite(m).all():
        out = m.copy()
        finite = np.isfinite(out)
        if finite.any():
            scale = None if tail_scale is None else tail_scale[finite]
            out[finite] = logsumexp_rows(values[:, finite], None, scale, m[finite])
        return out
    else:
        out = (np.empty(values.size) if scratch is None else scratch[: values.size]).reshape(values.shape[::-1])
        np.subtract(values.T, m[:, None], out=out)
    np.exp(out, out=out)
    if tail_scale is not None:
        out[..., -1] *= tail_scale
    total = np.add.reduce(out, axis=-1)
    if values.ndim == 1:
        return m + math.log(total)
    return m + np.array(list(map(math.log, total.tolist())))
