"""The literal O(n^2) oracles of the growing-family CUSUM statistic W_n,
which share no code with the detectors' per-step update."""

import math

import numpy as np

from excusum.models import DensityModel


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
            s += float(model.log_ratio(i - k, float(samples[i - 1])))
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
        terms = model.log_ratio(ages, xs[k - 1 :])
        np.maximum(stats[k - 1 :], np.cumsum(terms), out=stats[k - 1 :])
    return stats
