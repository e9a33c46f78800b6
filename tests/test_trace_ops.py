"""Trace transformations."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.traces.millisecond import RequestTrace
from repro.traces.ops import jitter, thin


@pytest.fixture
def trace():
    rng = np.random.default_rng(120)
    n = 2000
    return RequestTrace(
        times=np.sort(rng.uniform(0, 100, n)),
        lbas=rng.integers(0, 10**6, n),
        nsectors=rng.integers(1, 64, n),
        is_write=rng.uniform(size=n) < 0.6,
        span=100.0,
        label="base",
    )


class TestThin:
    def test_rate_scales(self, trace):
        thinned = thin(trace, 0.5, seed=1)
        assert len(thinned) == pytest.approx(0.5 * len(trace), rel=0.1)
        assert thinned.span == trace.span

    def test_keep_all(self, trace):
        assert len(thin(trace, 1.0)) == len(trace)

    def test_deterministic(self, trace):
        a, b = thin(trace, 0.3, seed=9), thin(trace, 0.3, seed=9)
        np.testing.assert_array_equal(a.times, b.times)

    def test_subset_of_original(self, trace):
        thinned = thin(trace, 0.4, seed=2)
        assert set(thinned.times.tolist()) <= set(trace.times.tolist())

    def test_bounds_checked(self, trace):
        with pytest.raises(TraceError):
            thin(trace, 0.0)
        with pytest.raises(TraceError):
            thin(trace, 1.5)

    def test_label_annotated(self, trace):
        assert "thin" in thin(trace, 0.5).label


class TestJitter:
    def test_preserves_count_and_span(self, trace):
        noisy = jitter(trace, 0.05, seed=3)
        assert len(noisy) == len(trace)
        assert noisy.span == trace.span
        assert noisy.times.min() >= 0
        assert noisy.times.max() <= trace.span

    def test_zero_amount_is_identity(self, trace):
        same = jitter(trace, 0.0)
        np.testing.assert_array_equal(same.times, trace.times)

    def test_coarse_structure_survives(self, trace):
        noisy = jitter(trace, 0.01, seed=4)
        coarse_before = trace.counts(10.0)
        coarse_after = noisy.counts(10.0)
        assert np.abs(coarse_before - coarse_after).max() <= 5

    def test_negative_rejected(self, trace):
        with pytest.raises(TraceError):
            jitter(trace, -0.1)
