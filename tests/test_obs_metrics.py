"""Unit tests for the metrics registry (counters, gauges, histograms)."""

import math

import numpy as np
import pytest

from repro.errors import ObservabilityError
from repro.obs import DEFAULT_TIME_EDGES, FixedHistogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("sim.requests")
        assert counter.value == 0
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_rejects_negative_increment(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ObservabilityError):
            counter.inc(-1)

    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")


class TestGauge:
    def test_tracks_last_min_max_mean(self):
        gauge = MetricsRegistry().gauge("g")
        for value in (3.0, 1.0, 2.0):
            gauge.set(value)
        assert gauge.last == 2.0
        assert gauge.minimum == 1.0
        assert gauge.maximum == 3.0
        assert gauge.mean == pytest.approx(2.0)
        assert gauge.updates == 3

    def test_merge_of_two_updated_shards_blurs_last(self):
        """'last' across two concurrent shards is undefined, so the
        merge reports NaN for it — which keeps merge commutative."""
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.gauge("g").set(1.0)
        b.gauge("g").set(5.0)
        merged = a.merge(b).gauges["g"]
        assert math.isnan(merged.last)
        assert merged.minimum == 1.0
        assert merged.maximum == 5.0
        assert merged.updates == 2

    def test_merge_with_untouched_shard_keeps_last(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.gauge("g").set(7.0)
        b.gauge("g")
        assert a.merge(b).gauges["g"].last == 7.0


class TestFixedHistogram:
    def test_rejects_bad_edges(self):
        for edges in ([1.0], [1.0, 1.0], [2.0, 1.0], [0.0, float("inf")]):
            with pytest.raises(ObservabilityError):
                FixedHistogram(edges)

    def test_observation_conservation(self):
        hist = FixedHistogram([0.0, 1.0, 2.0, 4.0])
        hist.observe_many([-1.0, 0.0, 0.5, 1.5, 3.9, 4.0, 100.0])
        assert hist.underflow == 1  # -1.0
        assert hist.overflow == 2  # 4.0 and 100.0
        assert list(hist.counts) == [2, 1, 1]
        assert hist.n == 7
        assert hist.n == int(hist.counts.sum()) + hist.underflow + hist.overflow

    def test_rejects_non_finite_observations(self):
        hist = FixedHistogram(DEFAULT_TIME_EDGES)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ObservabilityError):
                hist.observe_many([1e-3, bad])
        assert hist.n == 0  # the failed batch left no partial state

    def test_approx_quantile_brackets_the_sample(self):
        hist = FixedHistogram(DEFAULT_TIME_EDGES)
        rng = np.random.default_rng(5)
        sample = rng.uniform(1e-4, 1e-1, size=2000)
        hist.observe_many(sample)
        p50 = hist.approx_quantile(0.5)
        p95 = hist.approx_quantile(0.95)
        assert 1e-4 <= p50 <= p95 <= 1e-1 * 1.2
        assert abs(p50 - np.quantile(sample, 0.5)) / np.quantile(sample, 0.5) < 0.35

    def test_quantile_nan_when_empty_or_all_outside(self):
        hist = FixedHistogram([0.0, 1.0])
        assert math.isnan(hist.approx_quantile(0.5))
        hist.observe_many([5.0])  # overflow only
        assert math.isnan(hist.approx_quantile(0.5))

    def test_merge_requires_identical_edges(self):
        a = FixedHistogram([0.0, 1.0, 2.0])
        b = FixedHistogram([0.0, 1.0, 3.0])
        with pytest.raises(ObservabilityError):
            a.merge(b)

    def test_merge_adds_counts_and_moments(self):
        a = FixedHistogram([0.0, 1.0, 2.0])
        b = FixedHistogram([0.0, 1.0, 2.0])
        a.observe_many([0.5, 1.5])
        b.observe_many([0.25, -1.0, 9.0])
        merged = a.merge(b)
        assert merged.n == 5
        assert merged.underflow == 1 and merged.overflow == 1
        assert merged.moments.n == 5

    def test_dict_round_trip(self):
        hist = FixedHistogram([0.0, 0.5, 1.0])
        hist.observe_many([0.1, 0.6, 2.0, -3.0])
        rebuilt = FixedHistogram.from_dict(hist.as_dict())
        assert rebuilt.as_dict() == hist.as_dict()

    def test_log_bucketing_matches_searchsorted_exactly(self):
        """The float-bits bucket model (a table over exponent and top
        mantissa bits, i.e. a piecewise log2) must reproduce
        ``searchsorted`` bit-for-bit, including at the edges themselves,
        one ulp either side of them, zero, and negative values."""
        edges = np.asarray(DEFAULT_TIME_EDGES)
        hist = FixedHistogram(edges)
        assert hist._model is not None  # the model applies to defaults
        rng = np.random.default_rng(17)
        values = np.concatenate([
            10.0 ** rng.uniform(-8, 3, 5000),
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            [0.0, 5e-324, -1.0, -1e-6, 1e300],
        ])
        np.testing.assert_array_equal(
            hist._bucket_indices(values),
            np.searchsorted(edges, values, side="right"),
        )

    def test_irregular_edges_fall_back_to_searchsorted(self):
        hist = FixedHistogram([0.0, 1.0, 5.0, 100.0])
        assert hist._model is None  # a non-positive edge
        hist.observe_many([-1.0, 0.5, 3.0, 50.0, 1e6])
        assert hist.underflow == 1 and hist.overflow == 1
        assert list(hist.counts) == [1, 1, 1]


class TestMetricsRegistry:
    def test_rejects_cross_kind_name_reuse(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ObservabilityError):
            registry.gauge("x")
        with pytest.raises(ObservabilityError):
            registry.histogram("x")

    def test_merge_unions_names(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.counter("only_a").inc(1)
        b.counter("only_b").inc(2)
        a.counter("both").inc(3)
        b.counter("both").inc(4)
        merged = a.merge(b)
        assert merged.counters["only_a"].value == 1
        assert merged.counters["only_b"].value == 2
        assert merged.counters["both"].value == 7

    def test_dict_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(9)
        registry.gauge("g").set(0.5)
        registry.histogram("h").observe_many([1e-3, 1e-2])
        rebuilt = MetricsRegistry.from_dict(registry.as_dict())
        assert rebuilt.as_dict() == registry.as_dict()
        assert len(rebuilt) == 3
