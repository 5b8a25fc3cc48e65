"""Observation paths under the change-point model.

Time is 1-based.  With change point nu, the sample at time t is drawn from
the pre-change density g for t < nu and from f_{t - nu} for t >= nu (so the
sample at time nu itself has post-change age 0).  nu = NO_CHANGE (infinity)
gives a pure pre-change path, the regime used for false-alarm estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
import numpy.random  # noqa: F401  numpy imports it lazily; load it with the package

from .models import DensityModel, _checked_index, _checked_integer

#: explicit "the change never happens" value; deliberately not an integer so
#: that false-alarm runs cannot be confused with large-nu runs
NO_CHANGE = math.inf

#: the block length of every path generator.  Draws do not depend on it, so
#: it only trades per-block overhead against memory; a folded lockstep trial
#: holds one block plus its retained columns, so it also sizes those chunks
_CHUNK = 256

#: runs a block drawer draws at a time, into a tile of at most (_TILE_ROWS,
#: _CHUNK) that it then copies into the block's columns (128 KiB, so the copy
#: stays in cache)
_TILE_ROWS = 64


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic 64-bit per-trial seed, order-independent across trials;
    the seed and the index each lie in [0, 2**64), as trial_generators'."""
    state = np.random.SeedSequence(
        [_checked_integer(base_seed, "seed", 0, 2**64), _checked_integer(index, "index", 0, 2**64)]
    ).generate_state(2, np.uint32)
    return (int(state[0]) << 32) | int(state[1])


# numpy's SeedSequence hash (bit_generator.pyx), stable since numpy 1.17
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _mixed_state(entropy: list[np.ndarray], n_words: int) -> list[np.ndarray]:
    """SeedSequence(entropy).generate_state(n_words, np.uint32), one seed per
    column: entropy[j] holds word j of every seed, as a uint32 array, for at
    most four words.  The pool is SeedSequence's default of four words, which
    hashes each missing word as a zero, so trailing zero words hash exactly
    like absent ones: a uint64 may always enter as its (low, high) pair."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value *= const
        value ^= value >> 16
        return value

    def mix(x, y):
        out = x * _MIX_L
        out -= y * _MIX_R
        out ^= out >> 16
        return out

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    const = _INIT_B
    state = []
    for i in range(n_words):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _MASK32
        value *= const
        value ^= value >> 16
        state.append(value)
    return state


def _halves(values: np.ndarray) -> list[np.ndarray]:
    """The (low, high) uint32 words of every value of a uint64 array."""
    return [(values & _MASK32).astype(np.uint32), (values >> 32).astype(np.uint32)]


def _trial_seeds(base_seed: int, indices: np.ndarray) -> np.ndarray:
    """derive_seed(base_seed, i) for every i of a uint64 array, as uint64.
    The base enters SeedSequence as one word below 2**32, else as two."""
    base = _checked_integer(base_seed, "seed", 0, 2**64)
    head = _halves(np.full(len(indices), base, np.uint64))[: 1 + (base > _MASK32)]
    state = _mixed_state(head + _halves(indices), 2)
    return (state[0].astype(np.uint64) << 32) | state[1]


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose state words were generated in advance."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _generators(seeds: np.ndarray) -> Iterator[np.random.Generator]:
    """default_rng(s) for every s of a uint64 array, each built as it is
    taken: PCG64 reads four uint64 words, SeedSequence(s).generate_state(4,
    np.uint64), which are all generated up front."""
    state = np.array(_mixed_state(_halves(seeds), 8), np.uint64)
    words = state[0::2] | (state[1::2] << 32)
    return (np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in words.T.copy())


def trial_generators(seed: int, indices: np.ndarray) -> Iterator[np.random.Generator]:
    """The generators of the trials of a nonnegative integer index array, in
    its order: trial i's draws equal those of default_rng(derive_seed(seed,
    i)).  The indices are seeded in one vectorized pass; a generator costs
    memory only once it is taken."""
    # checked first: astype would wrap a negative index and truncate a float one
    return _generators(_trial_seeds(seed, _checked_index(indices, "trial index").astype(np.uint64)))


@dataclass(frozen=True)
class ChangeSpec:
    """Where the change happens, how long the path is, and its seed; an integer is stored as an int."""

    nu: int | float
    horizon: int
    seed: int

    def __post_init__(self) -> None:
        if self.nu != NO_CHANGE:
            object.__setattr__(self, "nu", _checked_integer(self.nu, "nu", 1))
        object.__setattr__(self, "horizon", _checked_integer(self.horizon, "horizon", 1))
        object.__setattr__(self, "seed", _checked_integer(self.seed, "seed", 0, 2**64))

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


def _block_drawer(model: DensityModel, nu: int | float, horizon: int, rngs: list) -> Callable:
    """The block drawer of runs with change point nu: draw(live, t) returns
    the observations of the runs ``live`` (indices into ``rngs``, run r
    drawing from rngs[r]) from step t to the end of t's block, one row per
    step and one column per run.  The one code path behind generate_path and
    the lockstep trials.  Blocks hold at most _CHUNK steps and split at the
    change point, so a run that reads its path block by block draws exactly
    generate_path's samples, and none past the block it stops in.  Each
    block is drawn through model.block_sampler, _TILE_ROWS runs at a time
    into one tile, and copied into its columns."""
    n_pre = horizon if nu == NO_CHANGE else min(int(nu) - 1, horizon)

    def draw(live: np.ndarray, t: int) -> np.ndarray:
        done = t - 1
        if done < n_pre:
            take, ages = min(_CHUNK, n_pre - done), None
        else:
            take = min(_CHUNK, horizon - done)
            ages = np.arange(done - n_pre, done - n_pre + take)
        sample = model.block_sampler(ages)
        block = np.empty((take, live.size))
        # held only while the block is drawn, not beside the caller's work on it
        tile = np.empty((min(_TILE_ROWS, live.size), take))
        for c in range(0, live.size, _TILE_ROWS):
            runs = live[c : c + _TILE_ROWS].tolist()
            block[:, c : c + len(runs)] = sample([rngs[r] for r in runs], tile[: len(runs)]).T
        return block

    return draw


def generate_path(model: DensityModel, spec: ChangeSpec) -> Path:
    """Materialize the full observation path for a change spec."""
    draw = _block_drawer(model, spec.nu, spec.horizon, [np.random.default_rng(spec.seed)])
    samples, run = np.empty(spec.horizon), np.zeros(1, np.intp)
    done = 0
    while done < spec.horizon:
        block = draw(run, done + 1)[:, 0]
        samples[done : done + block.size] = block
        done += block.size
    samples.setflags(write=False)
    return Path(samples=samples, spec=spec)
