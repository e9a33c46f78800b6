"""Property-based tests on the workload generators."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.synth.arrivals import bmodel_arrivals, poisson_arrivals
from repro.synth.mix import BernoulliMix, MarkovMix
from repro.synth.sizes import LognormalSizes, MixtureSizes
from repro.synth.spatial import SequentialRuns, UniformSpatial, ZipfHotspots

seeds = st.integers(min_value=0, max_value=2**31 - 1)


@settings(deadline=None, max_examples=40)
@given(seeds, st.floats(min_value=1.0, max_value=200.0), st.floats(min_value=1.0, max_value=30.0))
def test_poisson_sorted_in_span(seed, rate, span):
    rng = np.random.default_rng(seed)
    times = poisson_arrivals(rng, rate, span)
    assert np.all(np.diff(times) >= 0)
    assert times.size == 0 or (times[0] >= 0 and times[-1] < span)


@settings(deadline=None, max_examples=40)
@given(seeds, st.integers(0, 5000), st.floats(min_value=0.5, max_value=0.95))
def test_bmodel_conserves_events(seed, n, bias):
    rng = np.random.default_rng(seed)
    times = bmodel_arrivals(rng, n, span=20.0, bias=min(bias, 0.99), min_bin=0.05)
    assert times.size == n
    assert times.size == 0 or (times[0] >= 0 and times[-1] < 20.0)


@settings(deadline=None, max_examples=30)
@given(
    seeds,
    st.integers(1, 500),
    st.sampled_from(["uniform", "sequential", "zipf"]),
    st.integers(10_000, 10_000_000),
)
def test_spatial_models_respect_capacity(seed, n, kind, capacity):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 128, size=n).astype(np.int64)
    if kind == "uniform":
        model = UniformSpatial(capacity)
    elif kind == "sequential":
        model = SequentialRuns(capacity, mean_run_length=4.0)
    else:
        model = ZipfHotspots(capacity, n_zones=min(16, capacity))
    starts = model.generate(rng, sizes)
    assert starts.size == n
    assert starts.min() >= 0
    assert np.all(starts + sizes <= capacity)


@settings(deadline=None, max_examples=30)
@given(seeds, st.integers(1, 2000))
def test_size_models_positive(seed, n):
    rng = np.random.default_rng(seed)
    for model in (MixtureSizes.typical_enterprise(), LognormalSizes(16, 1.0)):
        sizes = model.generate(rng, n)
        assert sizes.size == n
        assert sizes.min() >= 1


@settings(deadline=None, max_examples=30)
@given(seeds, st.integers(1, 3000), st.floats(0.05, 0.95))
def test_mix_models_shape(seed, n, wf):
    rng = np.random.default_rng(seed)
    for model in (BernoulliMix(wf), MarkovMix(wf, mean_run_length=4.0)):
        flags = model.generate(rng, n)
        assert flags.size == n
        assert flags.dtype == bool


def _sequential_runs_loop(model, rng, sizes):
    """The request-by-request walk SequentialRuns.generate replaced: the
    oracle its run-at-a-time placement must match bit for bit."""
    sizes = np.asarray(sizes, dtype=np.int64)
    n = sizes.size
    starts = np.zeros(n, dtype=np.int64)
    if n == 0:
        return starts
    continue_p = 1.0 - 1.0 / model.mean_run_length
    jumps = rng.uniform(size=n) >= continue_p
    jumps[0] = True
    position = 0
    for i in range(n):
        if jumps[i]:
            position = int(rng.integers(0, model.capacity_sectors))
        if position + sizes[i] > model.capacity_sectors:
            position = 0
        starts[i] = position
        position += int(sizes[i])
    return starts


def _markov_mix_loop(model, rng, n):
    """The request-by-request state walk MarkovMix.generate replaced."""
    flags = np.zeros(n, dtype=bool)
    if n == 0:
        return flags
    in_major = bool(
        rng.uniform() < max(model.write_fraction, 1.0 - model.write_fraction)
    )
    uniforms = rng.uniform(size=n)
    for i in range(n):
        flags[i] = in_major == model._major_is_write
        leave = model._leave_major if in_major else model._leave_minor
        if uniforms[i] < leave:
            in_major = not in_major
    return flags


@settings(deadline=None, max_examples=60)
@given(
    seeds,
    st.integers(0, 600),
    st.floats(min_value=1.0, max_value=40.0),
    st.sampled_from([5_000, 20_000, 1_000_000, 2**40]),
    st.integers(1, 512),
)
def test_sequential_runs_match_the_request_loop(seed, n, run_length, capacity, max_size):
    # 5,000-sector disks make runs reach the end and wrap, some twice.
    sizes = np.random.default_rng(seed + 1).integers(1, max_size + 1, size=n)
    model = SequentialRuns(capacity, mean_run_length=run_length)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    starts = model.generate(rng, sizes)
    expected = _sequential_runs_loop(model, oracle_rng, sizes)
    assert starts.dtype == expected.dtype
    assert np.array_equal(starts, expected)
    # Same draws in the same order: the generator is left where it was.
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@settings(deadline=None, max_examples=60)
@given(
    seeds,
    st.integers(0, 3000),
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=1.0, max_value=50.0),
)
def test_markov_mix_matches_the_request_loop(seed, n, wf, run_length):
    model = MarkovMix(wf, mean_run_length=run_length)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    flags = model.generate(rng, n)
    expected = _markov_mix_loop(model, oracle_rng, n)
    assert flags.dtype == expected.dtype
    assert np.array_equal(flags, expected)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
