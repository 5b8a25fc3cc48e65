"""Change-point path generation: indexing, determinism, stream equivalence."""

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from excusum import (
    NO_CHANGE,
    ChangeSpec,
    DensityModel,
    MeanSchedule,
    Path,
    derive_seed,
    gaussian_model,
    generate_path,
    simulate_trials,
    slln_empirical,
    sum_dominance_check,
)
from excusum import process
from excusum.process import _block_drawer, _generators, _trial_seeds, trial_generators

from conftest import plain

#: base seeds whose words SeedSequence reads as one word (below 2**32) and as two
SEED_BASES = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 0x5DEECE66D2B7E151)


@dataclass
class ProbeLog:
    pre_calls: int = 0
    post_indices: list = field(default_factory=list)


def probe_model(log: ProbeLog) -> DensityModel:
    """Records which density draws the generator requests."""

    def draw_pre(rng, size=None):
        log.pre_calls += int(size if size is not None else 1)
        return rng.normal(0.0, 1.0, size)

    def draw_post(n, rng, size=None):
        idx = np.atleast_1d(np.asarray(n))
        log.post_indices.extend(int(v) for v in idx)
        return rng.normal(0.0, 1.0, size if size is not None else idx.shape)

    return DensityModel(
        pre_change_log_density=lambda x: np.zeros_like(np.asarray(x, float)),
        post_change_log_density=lambda n, x: np.zeros_like(np.asarray(x, float)),
        sampler_pre=draw_pre,
        sampler_post=draw_post,
        support=(-math.inf, math.inf),
    )


def test_change_spec_validation():
    ChangeSpec(nu=1, horizon=1, seed=0)
    ChangeSpec(nu=NO_CHANGE, horizon=10, seed=2**63)
    with pytest.raises(ValueError):
        ChangeSpec(nu=0, horizon=10, seed=0)
    with pytest.raises(ValueError):
        ChangeSpec(nu=5.0, horizon=10, seed=0)  # finite nu must be an int
    with pytest.raises(ValueError):
        ChangeSpec(nu=True, horizon=10, seed=0)
    with pytest.raises(ValueError):
        ChangeSpec(nu=2, horizon=0, seed=0)
    with pytest.raises(ValueError):
        ChangeSpec(nu=1, horizon=True, seed=0)
    with pytest.raises(ValueError):
        ChangeSpec(nu=1, horizon=10, seed=True)
    with pytest.raises(ValueError):
        ChangeSpec(nu=2, horizon=10, seed=-1)
    with pytest.raises(ValueError):
        ChangeSpec(nu=2, horizon=10, seed=2**64)


def test_path_length_must_match_horizon():
    spec = ChangeSpec(nu=1, horizon=3, seed=0)
    with pytest.raises(ValueError):
        Path(samples=np.zeros(2), spec=spec)


def test_time_nu_uses_post_change_index_zero():
    # the off-by-one law: first post-change draw has age index 0
    log = ProbeLog()
    model = probe_model(log)
    generate_path(model, ChangeSpec(nu=80, horizon=200, seed=1))
    assert log.pre_calls == 79
    assert log.post_indices == list(range(121))


def test_nu_one_requests_indices_zero_one_two():
    log = ProbeLog()
    generate_path(probe_model(log), ChangeSpec(nu=1, horizon=3, seed=1))
    assert log.pre_calls == 0
    assert log.post_indices == [0, 1, 2]


def test_no_change_requests_only_pre_change():
    log = ProbeLog()
    generate_path(probe_model(log), ChangeSpec(nu=NO_CHANGE, horizon=100, seed=1))
    assert log.pre_calls == 100
    assert log.post_indices == []


def test_nu_beyond_horizon_is_all_pre_change():
    log = ProbeLog()
    generate_path(probe_model(log), ChangeSpec(nu=1000, horizon=10, seed=1))
    assert log.pre_calls == 10
    assert log.post_indices == []


def test_generation_is_bit_deterministic(arctan_model):
    spec = ChangeSpec(nu=5, horizon=257, seed=987654321)
    a = generate_path(arctan_model, spec)
    b = generate_path(arctan_model, spec)
    assert np.array_equal(a.samples, b.samples)


def test_stream_equals_materialized_path(arctan_model):
    # a lockstep trial reads the blocks its trial_generators generator draws,
    # across many block boundaries and the change point, beside other live
    # runs; they are generate_path's
    spec = ChangeSpec(nu=9000, horizon=9003, seed=derive_seed(31337, 5))
    path = generate_path(arctan_model, spec)
    draw = _block_drawer(arctan_model, spec.nu, spec.horizon, list(trial_generators(31337, np.arange(8))))
    blocks, t = [], 1
    while t <= spec.horizon:
        blocks.append(draw(np.array([2, 5]), t)[:, 1])
        t += blocks[-1].size
    assert np.array_equal(path.samples, np.concatenate(blocks))


def test_adjacent_seeds_differ(arctan_model):
    a = generate_path(arctan_model, ChangeSpec(nu=5, horizon=64, seed=7))
    b = generate_path(arctan_model, ChangeSpec(nu=5, horizon=64, seed=8))
    assert not np.array_equal(a.samples, b.samples)


def test_pre_change_pooled_mean_is_zero(arctan_model):
    pools = []
    for t in range(10):
        spec = ChangeSpec(nu=NO_CHANGE, horizon=10_000, seed=derive_seed(5150, t))
        pools.append(generate_path(arctan_model, spec).samples)
    assert abs(np.concatenate(pools).mean()) < 0.02


def test_post_change_segment_means_follow_schedule(arctan_model):
    # nu=1, horizon 3: positions distributed f_0, f_1, f_2
    rows = np.array(
        [
            generate_path(arctan_model, ChangeSpec(nu=1, horizon=3, seed=derive_seed(777, t))).samples
            for t in range(20_000)
        ]
    )
    want = [math.atan(0), math.atan(1), math.atan(2)]
    se = 1.0 / math.sqrt(len(rows))
    for j in range(3):
        assert abs(rows[:, j].mean() - want[j]) < 4 * se


def test_sample_at_change_point_is_first_family_member(arctan_model):
    # nu=80: time 80 has mean arctan(0) = 0 while time 81 has mean arctan(1)
    rows = np.array(
        [
            generate_path(arctan_model, ChangeSpec(nu=80, horizon=81, seed=derive_seed(4242, t))).samples[-2:]
            for t in range(10_000)
        ]
    )
    se = 1.0 / math.sqrt(len(rows))
    assert abs(rows[:, 0].mean() - 0.0) < 4 * se
    assert abs(rows[:, 1].mean() - math.atan(1)) < 4 * se


def test_long_no_change_stream_is_total(arctan_model):
    path = generate_path(arctan_model, ChangeSpec(nu=NO_CHANGE, horizon=1_000_000, seed=2))
    assert len(path) == 1_000_000
    assert np.all(np.isfinite(path.samples))


def test_derive_seed_is_stable_and_spread():
    a = derive_seed(123, 0)
    b = derive_seed(123, 1)
    c = derive_seed(124, 0)
    assert a == derive_seed(123, 0)
    assert len({a, b, c}) == 3
    assert all(0 <= s < 2**64 for s in (a, b, c))


def test_vectorized_trial_seeds_equal_seed_sequence():
    # indices from 2**32 on enter SeedSequence as two words
    blocks = (
        np.arange(0, 9_000),
        np.arange(2**32 - 4_000, 2**32 + 4_000),
        np.array([2**63, 2**64 - 1]),
    )
    indices = np.concatenate([b.astype(np.uint64) for b in blocks])
    checked = 0
    for base in SEED_BASES:
        got = _trial_seeds(base, indices)
        for i, value in zip(indices.tolist(), got.tolist()):
            hi, lo = np.random.SeedSequence([base, i]).generate_state(2, np.uint32).tolist()
            assert value == (hi << 32) | lo, (base, i)
        checked += len(indices)
    assert checked >= 100_000


def test_generators_draw_what_default_rng_draws():
    # seeds below 2**32 enter SeedSequence as one word, larger ones as two
    for seed, rng in zip(SEED_BASES, _generators(np.array(SEED_BASES, dtype=np.uint64)), strict=True):
        ref = np.random.default_rng(seed)
        assert np.array_equal(rng.integers(0, 2**40, 300), ref.integers(0, 2**40, 300))
    for base in SEED_BASES:
        indices = np.arange(2**32 - 3, 2**32 + 3)
        for i, rng in zip(indices.tolist(), trial_generators(base, indices), strict=True):
            ref = np.random.default_rng(derive_seed(base, i))
            assert np.array_equal(rng.standard_normal(300), ref.standard_normal(300))
            assert np.array_equal(rng.normal(0.5, 2.0, 300), ref.normal(0.5, 2.0, 300))
            assert np.array_equal(rng.integers(0, 1_000, 300), ref.integers(0, 1_000, 300))


def test_trial_generators_do_not_depend_on_the_range():
    whole = list(trial_generators(7, np.arange(40)))
    parts = [*trial_generators(7, np.arange(13)), *trial_generators(7, np.arange(13, 40))]
    assert list(trial_generators(7, np.arange(5, 5))) == []
    bad_seeds = (
        (lambda: derive_seed(-1, 0), r"^seed must be an integer in \[0, "),
        (lambda: trial_generators(-1, np.arange(1)), r"^seed must be an integer in \[0, "),
        # ChangeSpec's range: seeds lie in [0, 2**64)
        (lambda: trial_generators(2**64, np.arange(1)), r"^seed must be an integer in \[0, "),
        (lambda: derive_seed(7, -1), r"^index must be an integer in \[0, "),
        # an index, too, is refused rather than wrapped
        (lambda: trial_generators(7, np.array([3, -1])), r"^trial index must be a nonnegative integer"),
    )
    for bad, match in bad_seeds:
        with pytest.raises(ValueError, match=match):
            bad()
    for a, b in zip(whole, parts, strict=True):
        assert np.array_equal(a.standard_normal(5), b.standard_normal(5))
    # the reruns pass the indices of the unsettled trials: any order, with gaps
    indices = np.array([7, 3, 2**32 + 5, 0], dtype=np.int64)
    for i, rng in zip(indices.tolist(), trial_generators(7, indices), strict=True):
        ref = np.random.default_rng(derive_seed(7, i))
        assert np.array_equal(rng.standard_normal(50), ref.standard_normal(50))


@pytest.mark.parametrize("size", [None, 1, 300])
def test_gaussian_pre_change_sampler_equals_rng_normal(arctan_model, size):
    for seed in range(20):
        got = arctan_model.sampler_pre(np.random.default_rng(seed), size)
        want = np.random.default_rng(seed).normal(0.0, 1.0, size)
        assert type(got) is type(want)
        assert np.array_equal(got, want)


#: a sampler's wrong answer to a block of ``take`` draws: too few (the
#: min(size, 3) of a sampler with a cap), one too many, and one value
WRONG_SIZES = {
    "short": lambda rng, take: rng.normal(0.0, 1.0, min(take, 3)),
    "long": lambda rng, take: rng.normal(0.0, 1.0, take + 1),
    "one-value": lambda rng, take: rng.normal(0.0, 1.0),
}


#: the entries that draw through block_sampler, the last two from f only
WRONG_SIZE_CASES = [
    (stage, wrong, entry)
    for stage in ("pre", "post")
    for wrong in WRONG_SIZES
    for entry in ("generate_path", "simulate_trials")
    + (("slln_empirical", "sum_dominance_check") if stage == "post" else ())
]


@pytest.mark.parametrize("stage, wrong, entry", WRONG_SIZE_CASES, ids=["-".join(c) for c in WRONG_SIZE_CASES])
def test_a_sampler_of_the_wrong_size_is_refused(stage, wrong, entry):
    # nu = 5, horizon 10: a pre-change block of 4 draws, then a post-change
    # one of 6; a wrong size must not shift the change point or broadcast.
    # The condition checks draw 6 ages in one block too: an SLLN row of
    # n = 6, a dominance block of 2 trials x (n + 1 = 3) ages
    base = plain(gaussian_model(MeanSchedule.arctangent()))
    bad = WRONG_SIZES[wrong]
    if stage == "pre":
        model = dataclasses.replace(base, sampler_pre=lambda rng, size=None: bad(rng, size))
        message = r"sampler_pre returned draws of shape \(\d*,?\) for a block of 4 steps"
    else:
        model = dataclasses.replace(base, sampler_post=lambda n, rng, size=None: bad(rng, np.size(n)))
        message = r"sampler_post returned draws of shape \(\d*,?\) for a block of 6 steps"
    with pytest.raises(ValueError, match=message):
        if entry == "generate_path":
            generate_path(model, ChangeSpec(nu=5, horizon=10, seed=1))
        elif entry == "simulate_trials":
            simulate_trials(model, "ex-cusum", 3.0, 5, 10, 3, 1)
        elif entry == "slln_empirical":
            slln_empirical(model, 6, trials=4, seed=1)
        else:
            sum_dominance_check(model, 1, 5, 2, trials=2, seed=1)


@pytest.mark.parametrize("block", [None, 7], ids=["one-block", "blocks-of-7"])
@pytest.mark.parametrize("nu", [1, 7, 8, 25, 400, NO_CHANGE])
@pytest.mark.parametrize(
    "schedule, means",
    [
        (MeanSchedule.arctangent(), lambda ages: np.arctan(ages)),
        (MeanSchedule.linear_saturating(0.1, 1.0), lambda ages: np.minimum(0.1 * ages, 1.0)),
    ],
    ids=["arctangent", "linear-saturating"],
)
def test_gaussian_paths_are_standard_normals_plus_the_means(schedule, means, nu, block, monkeypatch):
    # the in-place draws of GaussianModel.block_sampler, and the default's
    # sampler calls per row, give rng.standard_normal with mu_{t - nu} added
    # from t = nu on, whatever the blocks
    if block:
        monkeypatch.setattr(process, "_CHUNK", block)
    horizon = 300
    n_pre = horizon if nu == NO_CHANGE else min(nu - 1, horizon)
    for seed in (0, 11, 2**63 + 5):
        want = np.random.default_rng(seed).standard_normal(horizon)
        want[n_pre:] += means(np.arange(horizon - n_pre, dtype=np.float64))
        spec = ChangeSpec(nu=nu, horizon=horizon, seed=seed)
        assert np.array_equal(generate_path(gaussian_model(schedule), spec).samples, want)
        assert np.array_equal(generate_path(plain(gaussian_model(schedule)), spec).samples, want)


def test_gaussian_paths_call_neither_sampler(arctan_model):
    # GaussianModel draws its blocks in place, so replaced samplers are not
    # called, as with llr_sampler; the default hook calls them
    def refuse(*args, **kwargs):
        raise AssertionError("sampler called")

    model = dataclasses.replace(arctan_model, sampler_pre=refuse, sampler_post=refuse)
    spec = ChangeSpec(nu=40, horizon=300, seed=3)
    assert np.array_equal(generate_path(model, spec).samples, generate_path(arctan_model, spec).samples)
    want = simulate_trials(arctan_model, "ex-cusum", 3.0, 40, 300, 9, 3)
    assert np.array_equal(simulate_trials(model, "ex-cusum", 3.0, 40, 300, 9, 3), want)
    with pytest.raises(AssertionError, match="sampler called"):
        generate_path(plain(model), spec)
