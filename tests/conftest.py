import math

import hypothesis
import numpy as np
import pytest

from excusum import DensityModel, MeanSchedule, gaussian_model
from excusum.models import LOG_2PI

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.load_profile("default")


@pytest.fixture(scope="session")
def arctan_model():
    return gaussian_model(MeanSchedule.arctangent())


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


def constant_model(mu: float):
    return gaussian_model(MeanSchedule.constant(mu))


def generic_gaussian_model(schedule: MeanSchedule) -> DensityModel:
    """The Gaussian family of ``schedule`` as a plain DensityModel, without the
    GaussianModel closed forms, so the detectors call its densities per sample."""

    def logpdf(x, mu):
        d = np.asarray(x, dtype=np.float64) - mu
        return -0.5 * d * d - 0.5 * LOG_2PI

    return DensityModel(
        pre_change_log_density=lambda x: logpdf(x, 0.0),
        post_change_log_density=lambda n, x: logpdf(x, schedule.at(n)),
        sampler_pre=lambda rng, size=None: rng.normal(0.0, 1.0, size),
        sampler_post=lambda n, rng, size=None: rng.normal(schedule.at(n), 1.0, size),
        support=(-math.inf, math.inf),
    )
