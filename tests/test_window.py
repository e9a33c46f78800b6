"""Time-window aggregation primitives."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.traces.window import aggregate, bin_counts, bin_sums


class TestBinCounts:
    def test_counts_sum_to_events(self):
        times = np.array([0.1, 0.2, 1.5, 2.9])
        counts = bin_counts(times, 1.0, 3.0)
        assert counts.tolist() == [2, 1, 1]

    def test_event_at_span_folds_into_last_bin(self):
        counts = bin_counts(np.array([3.0]), 1.0, 3.0)
        assert counts.tolist() == [0, 0, 1]

    def test_partial_final_bin_is_kept(self):
        counts = bin_counts(np.array([2.4]), 1.0, 2.5)
        assert counts.size == 3
        assert counts[2] == 1

    def test_zero_span_gives_empty(self):
        assert bin_counts(np.zeros(0), 1.0, 0.0).size == 0

    def test_bad_scale_rejected(self):
        with pytest.raises(TraceError):
            bin_counts(np.zeros(1), 0.0, 1.0)

    def test_negative_span_rejected(self):
        with pytest.raises(TraceError):
            bin_counts(np.zeros(0), 1.0, -1.0)


class TestBinSums:
    def test_sums_conserved(self):
        times = np.array([0.5, 1.5, 1.7])
        weights = np.array([10.0, 20.0, 30.0])
        sums = bin_sums(times, weights, 1.0, 2.0)
        assert sums.tolist() == [10.0, 50.0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(TraceError):
            bin_sums(np.zeros(2), np.zeros(3), 1.0, 2.0)


class TestAggregate:
    def test_block_sums(self):
        assert aggregate(np.array([1, 2, 3, 4]), 2).tolist() == [3, 7]

    def test_trailing_partial_block_dropped(self):
        assert aggregate(np.array([1, 2, 3, 4, 5]), 2).tolist() == [3, 7]

    def test_factor_one_is_identity(self):
        data = np.array([5, 1, 2])
        assert aggregate(data, 1).tolist() == data.tolist()

    def test_factor_larger_than_series(self):
        assert aggregate(np.array([1, 2]), 5).size == 0

    def test_bad_factor_rejected(self):
        with pytest.raises(TraceError):
            aggregate(np.array([1.0]), 0)

    def test_conserves_total_when_divisible(self):
        data = np.arange(12)
        assert aggregate(data, 3).sum() == data.sum()
