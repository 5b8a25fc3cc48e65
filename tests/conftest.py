import dataclasses
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


def plain(model: DensityModel) -> DensityModel:
    """``model``'s densities, samplers and window as a plain DensityModel, without
    the GaussianModel closed forms, so kl_divergence integrates it by quadrature."""
    return DensityModel(**{f.name: getattr(model, f.name) for f in dataclasses.fields(DensityModel)})


def with_information_number(model: DensityModel, info: float) -> DensityModel:
    """``model`` as an instance of a subclass whose information_number()
    returns ``info``, the way a custom family supplies its I."""
    cls = type(f"Fixed{type(model).__name__}", (type(model),), {"information_number": lambda self: info})
    return cls(**{f.name: getattr(model, f.name) for f in dataclasses.fields(model)})


def windowed_gaussian_model(mu: float) -> DensityModel:
    """The constant-mean Gaussian family N(mu, 1) against N(0, 1) as a plain
    DensityModel with a finite quadrature window, so its KL numbers come from
    quadrature and it gives no information number."""
    model = generic_gaussian_model(MeanSchedule.constant(mu))
    return dataclasses.replace(model, finite_window=lambda n=None: (-11.0, mu + 11.0))


def array_drawer(paths):
    """A lockstep block drawer over pre-made paths, one row per run: each call
    returns the live runs' observations from step t to the horizon."""
    paths = np.asarray(paths, dtype=np.float64)
    return lambda live, t: paths[live, t - 1 :].T
