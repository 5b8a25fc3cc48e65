"""Literal O(n^2) recomputation of stopping times, independent of the detectors.

For each candidate change point k the running sum
sum_{i=k}^{n} (mu_{i-k} x_i - mu_{i-k}^2 / 2) is formed as a cumulative sum
over n, and the statistic at n is the max over k (ex-cusum) or the
log-sum-exp over k (sr).  It shares nothing with the per-step update
except the model's mean schedule.
"""

from __future__ import annotations

import numpy as np

#: a statistic this close to the threshold may round either way between the
#: oracle and the detector, so the trial proves nothing
INCONCLUSIVE = 1e-9


def statistics(kind: str, means: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """W_n (ex-cusum) or log R_n (sr) for n = 1..len(xs)."""
    n_max = xs.size
    half = means[:n_max] * means[:n_max] / 2.0
    out = np.full(n_max, -np.inf)
    for k in range(n_max):
        ages = np.arange(n_max - k)
        sums = np.cumsum(means[ages] * xs[k:] - half[ages])
        if kind == "ex-cusum":
            np.maximum(out[k:], sums, out=out[k:])
        elif kind == "sr":
            np.logaddexp(out[k:], sums, out=out[k:])
        else:
            raise ValueError(f"no oracle for detector {kind!r}")
    return out


def check(kind: str, means: np.ndarray, xs: np.ndarray, threshold: float, tau, censored_at) -> str:
    """Compare a detector's stop with the oracle: 'agree', 'inconclusive' or a mismatch message."""
    stop = tau if tau is not None else censored_at
    stats = statistics(kind, means, np.asarray(xs[:stop], dtype=np.float64))
    crossed = np.flatnonzero(stats > threshold)
    oracle_tau = int(crossed[0]) + 1 if crossed.size else None
    if oracle_tau == tau:
        return "agree"
    upto = oracle_tau if oracle_tau is not None else stop
    if np.any(np.abs(stats[:upto] - threshold) <= INCONCLUSIVE):
        return "inconclusive"
    return f"detector stopped at {tau} (censored at {censored_at}), oracle at {oracle_tau}"
