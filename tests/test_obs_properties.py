"""Property-based tests for the observability layer (hypothesis).

Four laws are pinned:

* ``MetricsRegistry.merge`` is associative and commutative (the Chan
  combine), up to the documented NaN for a merged gauge's ``last``;
* histogram observations are conserved — every finite value lands in
  exactly one of underflow / a bucket / overflow, and merging preserves
  the total;
* within a traced run, each emitting source's event stream is
  time-ordered;
* attaching an observer never changes a run: results are bit-identical
  to ``obs=None`` on every replay engine, for any seed.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.disk.simulator import DiskSimulator
from repro.obs import FixedHistogram, MetricsRegistry, Observer
from repro.synth.profiles import get_profile

EDGES = [0.0, 0.5, 1.0, 2.0, 4.0]
NAMES = ("alpha", "beta", "gamma")

_counter_op = st.tuples(
    st.just("counter"), st.sampled_from(NAMES), st.integers(0, 10)
)
_gauge_op = st.tuples(
    st.just("gauge"), st.sampled_from(NAMES),
    st.floats(-100, 100, allow_nan=False),
)
_hist_op = st.tuples(
    st.just("histogram"), st.sampled_from(NAMES),
    st.floats(-10, 10, allow_nan=False, allow_infinity=False),
)


def _registry(ops) -> MetricsRegistry:
    """Build a registry from an op list; a name is used for one kind
    only (suffix disambiguates) so cross-kind collisions can't arise."""
    registry = MetricsRegistry()
    for kind, name, value in ops:
        if kind == "counter":
            registry.counter(f"c.{name}").inc(value)
        elif kind == "gauge":
            registry.gauge(f"g.{name}").set(value)
        else:
            registry.histogram(f"h.{name}", edges=EDGES).observe_many([value])
    return registry


ops_lists = st.lists(st.one_of(_counter_op, _gauge_op, _hist_op), max_size=20)


def _canon(payload, places=9):
    """Round floats (NaN-aware) so comparisons tolerate the last-ulp
    differences reassociating the Chan moment formulas can introduce;
    counts and counters stay exact integers."""
    if isinstance(payload, float):
        return "nan" if math.isnan(payload) else round(payload, places)
    if isinstance(payload, dict):
        return {k: _canon(v, places) for k, v in payload.items()}
    if isinstance(payload, list):
        return [_canon(v, places) for v in payload]
    return payload


@given(ops_lists, ops_lists)
def test_merge_is_commutative(ops_a, ops_b):
    a, b = _registry(ops_a), _registry(ops_b)
    assert _canon(a.merge(b).as_dict()) == _canon(b.merge(a).as_dict())


@given(ops_lists, ops_lists, ops_lists)
def test_merge_is_associative(ops_a, ops_b, ops_c):
    a, b, c = _registry(ops_a), _registry(ops_b), _registry(ops_c)
    left = a.merge(b).merge(c).as_dict()
    right = a.merge(b.merge(c)).as_dict()
    assert _canon(left) == _canon(right)


@given(
    st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        max_size=200,
    )
)
def test_histogram_conserves_observations(values):
    hist = FixedHistogram(EDGES)
    hist.observe_many(values)
    assert hist.n == len(values)
    assert hist.n == int(hist.counts.sum()) + hist.underflow + hist.overflow
    assert hist.moments.n == len(values)


@given(
    st.lists(st.floats(1e-12, 1e12), min_size=2, max_size=30, unique=True).map(sorted),
    st.lists(
        st.floats(-1e13, 1e13, allow_nan=False, allow_infinity=False),
        max_size=200,
    ),
)
def test_bucket_model_matches_searchsorted(edges, values):
    """Any positive edges: the float-bits bucket model (or its
    ``searchsorted`` fallback) is exact on and one ulp around every edge,
    at zero, at negative zero and anywhere else."""
    hist = FixedHistogram(edges)
    probe = np.concatenate([
        values, edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [0.0, -0.0],
    ])
    np.testing.assert_array_equal(
        hist._bucket_indices(probe),
        np.searchsorted(hist.edges, probe, side="right"),
    )


@given(
    st.lists(st.floats(-50, 50, allow_nan=False), max_size=50),
    st.lists(st.floats(-50, 50, allow_nan=False), max_size=50),
)
def test_histogram_merge_conserves_totals(values_a, values_b):
    a, b = FixedHistogram(EDGES), FixedHistogram(EDGES)
    a.observe_many(values_a)
    b.observe_many(values_b)
    merged = a.merge(b)
    assert merged.n == len(values_a) + len(values_b)
    assert merged.underflow == a.underflow + b.underflow
    assert merged.overflow == a.overflow + b.overflow


@settings(max_examples=8, deadline=None)
@given(
    scheduler=st.sampled_from(["fcfs", "sstf", "scan"]),
    seed=st.integers(0, 2**16),
)
def test_per_source_event_streams_time_ordered(
    tiny_spec, scheduler, seed
):
    trace = get_profile("web").synthesize(
        span=4.0, capacity_sectors=tiny_spec.capacity_sectors, seed=seed
    )
    obs = Observer("trace")
    DiskSimulator(tiny_spec, scheduler=scheduler, seed=seed, obs=obs).run(trace)
    by_source = {}
    for event in obs.events:
        by_source.setdefault(event.source, []).append(event.time)
    for source, times in by_source.items():
        assert all(
            earlier <= later for earlier, later in zip(times, times[1:])
        ), (scheduler, seed, source)


@settings(max_examples=8, deadline=None)
@given(
    scheduler=st.sampled_from(["fcfs", "sstf", "scan"]),
    cached=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_observed_run_bit_identical_to_unobserved(
    tiny_spec, tiny_spec_nocache, scheduler, cached, seed
):
    spec = tiny_spec if cached else tiny_spec_nocache
    trace = get_profile("database").synthesize(
        span=4.0, capacity_sectors=spec.capacity_sectors, seed=seed
    )
    baseline = DiskSimulator(spec, scheduler=scheduler, seed=seed).run(trace)
    for level in ("off", "metrics", "trace"):
        observed = DiskSimulator(
            spec, scheduler=scheduler, seed=seed, obs=Observer(level)
        ).run(trace)
        assert np.array_equal(baseline.start_times, observed.start_times)
        assert np.array_equal(baseline.service_times, observed.service_times)
