"""Observation paths under the change-point model.

Time is 1-based.  With change point nu, the sample at time t is drawn from
the pre-change density g for t < nu and from f_{t - nu} for t >= nu (so the
sample at time nu itself has post-change age 0).  nu = NO_CHANGE (infinity)
gives a pure pre-change path, the regime used for false-alarm estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
import numpy.random  # noqa: F401  numpy imports it lazily; load it with the package

from .models import DensityModel, sample_post, sample_pre

#: explicit "the change never happens" value; deliberately not an integer so
#: that false-alarm runs cannot be confused with large-nu runs
NO_CHANGE = math.inf

_CHUNK = 8192


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic 64-bit per-trial seed, order-independent across trials."""
    state = np.random.SeedSequence([int(base_seed), int(index)]).generate_state(2, np.uint32)
    return (int(state[0]) << 32) | int(state[1])


@dataclass(frozen=True)
class ChangeSpec:
    """Where the change happens, how long the path is, and its seed."""

    nu: int | float
    horizon: int
    seed: int

    def __post_init__(self) -> None:
        if isinstance(self.nu, bool) or not (
            (isinstance(self.nu, int) and self.nu >= 1)
            or (isinstance(self.nu, float) and math.isinf(self.nu) and self.nu > 0)
        ):
            raise ValueError(f"nu must be an integer >= 1 or NO_CHANGE, got {self.nu!r}")
        if not (isinstance(self.horizon, int) and self.horizon >= 1):
            raise ValueError(f"horizon must be an integer >= 1, got {self.horizon!r}")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")

    @property
    def no_change(self) -> bool:
        return isinstance(self.nu, float) and math.isinf(self.nu)


@dataclass(frozen=True)
class Path:
    """A realized observation path; regeneration from the same spec is bit-identical."""

    samples: np.ndarray
    spec: ChangeSpec

    def __post_init__(self) -> None:
        if len(self.samples) != self.spec.horizon:
            raise ValueError(
                f"path length {len(self.samples)} does not match horizon {self.spec.horizon}"
            )

    def __len__(self) -> int:
        return len(self.samples)


def _sample_blocks(model: DensityModel, spec: ChangeSpec) -> Iterator[np.ndarray]:
    """Draw the path in chunks; the single code path behind both generators."""
    rng = np.random.default_rng(spec.seed)
    n_pre = spec.horizon if spec.no_change else min(int(spec.nu) - 1, spec.horizon)
    done = 0
    while done < n_pre:
        take = min(_CHUNK, n_pre - done)
        yield np.atleast_1d(np.asarray(sample_pre(model, rng, size=take), dtype=np.float64))
        done += take
    n_post = spec.horizon - n_pre
    age = 0
    while age < n_post:
        take = min(_CHUNK, n_post - age)
        idx = np.arange(age, age + take)
        yield np.atleast_1d(np.asarray(sample_post(model, idx, rng), dtype=np.float64))
        age += take


def generate_path(model: DensityModel, spec: ChangeSpec) -> Path:
    """Materialize the full observation path for a change spec."""
    blocks = list(_sample_blocks(model, spec))
    samples = np.concatenate(blocks) if blocks else np.empty(0)
    samples.setflags(write=False)
    return Path(samples=samples, spec=spec)


def path_stream(model: DensityModel, spec: ChangeSpec) -> Iterator[float]:
    """Yield the path one observation at a time (identical values to generate_path)."""
    for block in _sample_blocks(model, spec):
        yield from block
