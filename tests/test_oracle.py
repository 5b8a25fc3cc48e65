"""A deterministic oracle for the Monte Carlo ARL and CADD estimators.

On a constant schedule mu the per-sample log-likelihood ratio is
z = mu * x - mu**2 / 2, normal with variance mu**2 and mean -mu**2 / 2 before
the change and +mu**2 / 2 after it.  CUSUM (W_n = max(W_{n-1}, 0) + z_n,
stopping at W_n >= A) is then a Markov chain on u = max(W, 0) in [0, A) with
an atom at 0, and its expected run length L(u) from u solves

    L(u) = 1 + F(-u) L(0) + int_0^A L(y) f(y - u) dy,

with f and F the density and CDF of z (Page 1954; Brook & Evans 1972).  A
Nystrom rule on Gauss-Legendre nodes turns it into one linear system.  The
ex-CUSUM statistic on a constant schedule is the same chain (criterion 2).

Shiryaev-Roberts (R_n = (1 + R_{n-1}) e^{z_n}, stopping at log R_n > A) is a
Markov chain on u = log(1 + R) in [0, log(1 + e^A)], started at u = 0: the
next statistic is r = u + z, and a step that does not stop moves to
log1p(e^r).  Its expected run length solves

    L(u) = 1 + int_{r <= A} L(log1p(e^r)) f(r - u) dr

(Moustakides, Polunchenko & Tartakovsky 2011), and the same Nystrom rule, on
nodes in r, solves it.
"""

import math

import numpy as np
import pytest

from excusum import estimate_arl2fa, estimate_cadd

from conftest import constant_model

_erfc = np.vectorize(math.erfc, otypes=[float])


def cusum_run_length(mu: float, threshold: float, drift: float, nodes: int = 200) -> float:
    """E[tau] of CUSUM started at 0, for increments N(drift, mu**2)."""
    y, w = np.polynomial.legendre.leggauss(nodes)
    y = 0.5 * threshold * (y + 1.0)
    w = 0.5 * threshold * w
    u = np.concatenate([[0.0], y])  # the atom first, then the nodes
    density = np.exp(-0.5 * ((y[None, :] - u[:, None] - drift) / mu) ** 2) / (mu * math.sqrt(2.0 * math.pi))
    at_zero = 0.5 * _erfc((u + drift) / (mu * math.sqrt(2.0)))  # P(u + z <= 0)
    system = np.eye(nodes + 1)
    system[:, 0] -= at_zero
    system[:, 1:] -= density * w[None, :]
    return float(np.linalg.solve(system, np.ones(nodes + 1))[0])


def sr_run_length(mu: float, threshold: float, drift: float, nodes: int = 200) -> float:
    """E[tau] of Shiryaev-Roberts started at R = 0, for increments N(drift, mu**2)."""
    r, w = np.polynomial.legendre.leggauss(nodes)
    lo = drift - 12.0 * mu  # below it r has mass under 1e-32 from any u >= 0
    r = lo + 0.5 * (threshold - lo) * (r + 1.0)
    w = 0.5 * (threshold - lo) * w
    u = np.concatenate([[0.0], np.log1p(np.exp(r))])  # the start first, then where each node moves
    density = np.exp(-0.5 * ((r[None, :] - u[:, None] - drift) / mu) ** 2) / (mu * math.sqrt(2.0 * math.pi))
    system = np.eye(nodes + 1)
    system[:, 1:] -= density * w[None, :]
    return float(np.linalg.solve(system, np.ones(nodes + 1))[0])


def arl_oracle(mu: float, threshold: float, nodes: int = 200) -> float:
    return cusum_run_length(mu, threshold, -mu * mu / 2.0, nodes)


def cadd_oracle(mu: float, threshold: float, nodes: int = 200) -> float:
    # change at nu = 1: every increment is post-change, and the delay is tau - 1
    return cusum_run_length(mu, threshold, mu * mu / 2.0, nodes) - 1.0


def sr_arl_oracle(mu: float, threshold: float, nodes: int = 200) -> float:
    return sr_run_length(mu, threshold, -mu * mu / 2.0, nodes)


def sr_cadd_oracle(mu: float, threshold: float, nodes: int = 200) -> float:
    return sr_run_length(mu, threshold, mu * mu / 2.0, nodes) - 1.0


@pytest.mark.parametrize(
    "oracle, mu, threshold, value",
    [
        (arl_oracle, 1.0, math.log(100), 623.3197),
        (arl_oracle, 0.5, math.log(50), 671.6777),
        (cadd_oracle, 1.0, math.log(100), 8.5883),
        (sr_arl_oracle, 1.0, math.log(100), 179.2407),
        (sr_arl_oracle, 0.5, math.log(50), 67.3264),
        (sr_cadd_oracle, 1.0, math.log(100), 6.7907),
    ],
)
def test_oracle_is_converged_under_node_doubling(oracle, mu, threshold, value):
    coarse, fine = oracle(mu, threshold, 100), oracle(mu, threshold, 200)
    assert abs(coarse - fine) <= 1e-8 * abs(fine)
    assert fine == pytest.approx(value, abs=1e-4)


def test_oracle_at_a_vanishing_threshold_is_geometric():
    # with A -> 0 the chain sits at the atom until the first z >= 0, so the
    # run length is geometric with success probability P(z >= 0)
    p = 0.5 * math.erfc(0.5 / math.sqrt(2.0))
    assert cusum_run_length(1.0, 1e-12, -0.5, 20) == pytest.approx(1.0 / p, rel=1e-9)


@pytest.mark.parametrize(
    "kind, mu, threshold",
    [("cusum", 1.0, math.log(100)), ("ex-cusum", 1.0, math.log(100)), ("ex-cusum", 0.5, math.log(50))],
)
def test_arl_estimate_agrees_with_the_oracle(kind, mu, threshold):
    est = estimate_arl2fa(constant_model(mu), kind, threshold, trials=4000, horizon=20_000, seed=11)
    assert est.censored_fraction == 0.0
    assert abs(est.mean_tau - arl_oracle(mu, threshold)) <= 3.0 * est.stderr


@pytest.mark.parametrize("mu, threshold", [(1.0, math.log(100)), (0.5, math.log(50))])
def test_sr_arl_estimate_agrees_with_the_oracle(mu, threshold):
    est = estimate_arl2fa(constant_model(mu), "sr", threshold, trials=4000, horizon=40_000, seed=11)
    assert est.censored_fraction == 0.0
    assert abs(est.mean_tau - sr_arl_oracle(mu, threshold)) <= 3.0 * est.stderr


def test_cadd_estimate_agrees_with_the_oracle():
    est = estimate_cadd(constant_model(1.0), "cusum", math.log(100), nu=1, trials=40_000, seed=12)
    assert est.accepted == est.trials  # no false alarm can precede nu = 1
    assert abs(est.mean_delay - cadd_oracle(1.0, math.log(100))) <= 3.0 * est.stderr


def test_sr_cadd_estimate_agrees_with_the_oracle():
    est = estimate_cadd(constant_model(1.0), "sr", math.log(100), nu=1, trials=40_000, seed=12)
    assert est.accepted == est.trials
    assert abs(est.mean_delay - sr_cadd_oracle(1.0, math.log(100))) <= 3.0 * est.stderr
