"""Batch description and streaming moments."""

import numpy as np
import pytest

from repro.errors import StatsError
from repro.stats.moments import (
    StreamingMoments,
    describe,
)


class TestDescribe:
    def test_matches_numpy(self):
        rng = np.random.default_rng(1)
        sample = rng.lognormal(0, 1, 1000)
        d = describe(sample)
        assert d.n == 1000
        assert d.mean == pytest.approx(sample.mean())
        assert d.std == pytest.approx(sample.std(ddof=1))
        assert d.median == pytest.approx(np.median(sample))
        assert d.p95 == pytest.approx(np.quantile(sample, 0.95))
        assert d.minimum == sample.min()
        assert d.maximum == sample.max()

    def test_single_value(self):
        d = describe([5.0])
        assert d.std == 0.0
        assert d.mean == 5.0

    def test_nans_dropped(self):
        d = describe([1.0, float("nan"), 3.0])
        assert d.n == 2
        assert d.mean == 2.0

    def test_empty_rejected(self):
        with pytest.raises(StatsError):
            describe([])

    def test_cv_nan_for_zero_mean(self):
        d = describe([-1.0, 1.0])
        assert np.isnan(d.cv)


class TestStreamingMoments:
    def test_matches_batch(self):
        rng = np.random.default_rng(3)
        sample = rng.normal(5, 2, 500)
        s = StreamingMoments()
        s.add_many(sample)
        assert s.n == 500
        assert s.mean == pytest.approx(sample.mean())
        assert s.variance == pytest.approx(sample.var(ddof=1))
        assert s.std == pytest.approx(sample.std(ddof=1))
        assert s.minimum == sample.min()
        assert s.maximum == sample.max()

    def test_empty_state_nan(self):
        s = StreamingMoments()
        assert s.n == 0
        assert np.isnan(s.mean)
        assert np.isnan(s.variance)
        assert np.isnan(s.minimum)

    def test_single_value_variance_nan(self):
        s = StreamingMoments()
        s.add(1.0)
        assert np.isnan(s.variance)

    def test_merge_equivalent_to_combined_stream(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=300), rng.normal(loc=3, size=200)
        sa, sb = StreamingMoments(), StreamingMoments()
        sa.add_many(a)
        sb.add_many(b)
        merged = sa.merge(sb)
        combined = np.concatenate([a, b])
        assert merged.n == 500
        assert merged.mean == pytest.approx(combined.mean())
        assert merged.variance == pytest.approx(combined.var(ddof=1))
        assert merged.minimum == combined.min()

    def test_merge_with_empty(self):
        s = StreamingMoments()
        s.add_many([1.0, 2.0])
        merged = s.merge(StreamingMoments())
        assert merged.n == 2
        assert merged.mean == 1.5

    def test_merge_two_empties(self):
        assert StreamingMoments().merge(StreamingMoments()).n == 0

    def test_cv(self):
        s = StreamingMoments()
        s.add_many([1.0, 3.0])
        assert s.cv == pytest.approx(np.sqrt(2.0) / 2.0)
