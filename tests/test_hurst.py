"""Hurst estimators: white noise vs. long-range-dependent inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StatsError
from repro.stats.hurst import (
    _rescaled_ranges,
    hurst_aggregate_variance,
    hurst_rescaled_range,
    variance_time_curve,
)
from repro.synth.selfsimilar import fractional_gaussian_noise


@pytest.fixture(scope="module")
def white_counts():
    rng = np.random.default_rng(20)
    return rng.poisson(10.0, 32768)


@pytest.fixture(scope="module")
def lrd_counts():
    rng = np.random.default_rng(21)
    noise = fractional_gaussian_noise(rng, 32768, hurst=0.85)
    return np.maximum(0.0, 10.0 + 4.0 * noise)


class TestVarianceTimeCurve:
    def test_white_noise_slope_near_minus_one(self, white_counts):
        factors, variances = variance_time_curve(white_counts, [1, 2, 4, 8, 16, 32, 64])
        slope = np.polyfit(np.log(factors), np.log(variances), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.12)

    def test_skips_short_factors(self):
        rng = np.random.default_rng(22)
        counts = rng.poisson(5.0, 64)
        factors, _ = variance_time_curve(counts, [1, 2, 4, 1000])
        assert 1000 not in factors

    def test_too_short_rejected(self):
        with pytest.raises(StatsError):
            variance_time_curve([1.0, 2.0], [1, 2])

    def test_bad_factor_rejected(self):
        with pytest.raises(StatsError):
            variance_time_curve(np.ones(100), [0, 1])

    def test_single_usable_factor_rejected(self):
        rng = np.random.default_rng(23)
        with pytest.raises(StatsError):
            variance_time_curve(rng.poisson(5, 16), [1, 500, 1000])


class TestAggregateVariance:
    def test_white_noise_near_half(self, white_counts):
        h = hurst_aggregate_variance(white_counts)
        assert h == pytest.approx(0.5, abs=0.07)

    def test_lrd_input_detected(self, lrd_counts):
        h = hurst_aggregate_variance(lrd_counts)
        assert h == pytest.approx(0.85, abs=0.1)

    def test_result_clipped_to_unit_interval(self, white_counts):
        h = hurst_aggregate_variance(white_counts, factors=(1, 2, 4, 8))
        assert 0.0 <= h <= 1.0

    def test_constant_series_nan(self):
        assert np.isnan(hurst_aggregate_variance(np.ones(1024)))


class TestRescaledRange:
    def test_white_noise_near_half(self, white_counts):
        h = hurst_rescaled_range(white_counts)
        # R/S is biased upward on short/medium series; allow slack.
        assert 0.4 <= h <= 0.65

    def test_lrd_input_higher_than_white(self, white_counts, lrd_counts):
        h_white = hurst_rescaled_range(white_counts)
        h_lrd = hurst_rescaled_range(lrd_counts)
        assert h_lrd > h_white + 0.1
        assert h_lrd > 0.7

    def test_too_short_rejected(self):
        with pytest.raises(StatsError):
            hurst_rescaled_range(np.ones(10), min_chunk=8)

    def test_result_in_unit_interval(self, lrd_counts):
        assert 0.0 <= hurst_rescaled_range(lrd_counts) <= 1.0


def _rescaled_range_loop(segment):
    """R/S of one chunk, one chunk per call: the oracle of the
    one-array-pass ``_rescaled_ranges``."""
    centered = segment - segment.mean()
    cumulative = np.cumsum(centered)
    spread = cumulative.max() - cumulative.min()
    scale = segment.std(ddof=0)
    if scale == 0:
        return float("nan")
    return float(spread / scale)


def _chunk_sizes(n, min_chunk, n_sizes):
    ints = np.geomspace(min_chunk, n // 2, n_sizes).astype(int)
    return ints[np.r_[True, ints[1:] != ints[:-1]]]


def _hurst_loop(counts, min_chunk=8, n_sizes=8):
    """``hurst_rescaled_range`` with one ``_rescaled_range_loop`` call per
    chunk, as the estimator was computed before the array pass."""
    values = np.asarray(counts, dtype=np.float64)
    if values.size < 2 * min_chunk:
        raise StatsError(
            f"count series too short ({values.size} bins) for R/S analysis"
        )
    log_sizes, log_rs = [], []
    for size in _chunk_sizes(values.size, min_chunk, n_sizes):
        chunks = values[: (values.size // size) * size].reshape(-1, size)
        rs = [_rescaled_range_loop(chunk) for chunk in chunks]
        rs = [v for v in rs if np.isfinite(v) and v > 0]
        if not rs:
            continue
        log_sizes.append(np.log(size))
        log_rs.append(np.log(np.mean(rs)))
    if len(log_sizes) < 2:
        return float("nan")
    slope = np.polyfit(log_sizes, log_rs, 1)[0]
    return float(np.clip(slope, 0.0, 1.0))


def _counts(seed, n, rate, idle_fraction):
    """Poisson counts with whole idle stretches, so some chunks at every
    size have zero variance."""
    rng = np.random.default_rng(seed)
    counts = rng.poisson(rate, n).astype(np.float64)
    counts[rng.uniform(size=n // 16 + 1).repeat(16)[:n] < idle_fraction] = 0.0
    return counts


class TestRescaledRangeArrayPass:
    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(16, 4000),
        st.sampled_from([0.05, 1.0, 10.0, 1000.0]),
        st.floats(0.0, 0.9),
        st.integers(2, 16),
    )
    def test_matches_the_per_chunk_loop(self, seed, n, rate, idle_fraction, min_chunk):
        counts = _counts(seed, n, rate, idle_fraction)
        if n < 2 * min_chunk:
            with pytest.raises(StatsError) as got:
                hurst_rescaled_range(counts, min_chunk=min_chunk)
            with pytest.raises(StatsError) as want:
                _hurst_loop(counts, min_chunk=min_chunk)
            assert str(got.value) == str(want.value)
            return
        for size in _chunk_sizes(n, min_chunk, 8):
            chunks = counts[: (n // size) * size].reshape(-1, size)
            rs = _rescaled_ranges(chunks)
            expected = np.array([_rescaled_range_loop(c) for c in chunks])
            assert np.array_equal(rs, expected, equal_nan=True)
            flat = chunks.max(axis=1) == chunks.min(axis=1)
            assert np.isnan(rs[flat]).all()
            assert not np.isnan(rs[~flat]).any()
        h = hurst_rescaled_range(counts, min_chunk=min_chunk)
        h_loop = _hurst_loop(counts, min_chunk=min_chunk)
        assert h == h_loop or (np.isnan(h) and np.isnan(h_loop))

    def test_constant_series_nan(self):
        assert np.isnan(hurst_rescaled_range(np.full(256, 3.0)))
