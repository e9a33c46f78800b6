"""Time-window aggregation primitives.

Every multi-time-scale analysis in the library reduces to viewing a point
process (request arrivals) or a marked point process (arrivals weighted by
bytes) through bins of a chosen width. These helpers implement that
re-binning once, carefully, for everyone.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError


def _num_bins(scale: float, span: float) -> int:
    if scale <= 0:
        raise TraceError(f"bin scale must be > 0, got {scale!r}")
    if span < 0:
        raise TraceError(f"span must be >= 0, got {span!r}")
    if span == 0:
        return 0
    # Cover the whole span; a partial final bin still counts as a bin so
    # events arriving after the last full bin boundary are not dropped.
    return int(np.ceil(span / scale))


def bin_counts(times: np.ndarray, scale: float, span: float) -> np.ndarray:
    """Event counts per ``scale``-second bin over ``[0, span)``.

    Events at ``t == span`` (possible when the span equals the last
    arrival time) are folded into the final bin rather than dropped.
    """
    nbins = _num_bins(scale, span)
    if nbins == 0:
        return np.zeros(0, dtype=np.int64)
    idx = np.minimum((np.asarray(times) / scale).astype(np.int64), nbins - 1)
    return np.bincount(idx, minlength=nbins).astype(np.int64)


def bin_sums(
    times: np.ndarray, weights: np.ndarray, scale: float, span: float
) -> np.ndarray:
    """Sum of ``weights`` per ``scale``-second bin over ``[0, span)``."""
    times = np.asarray(times)
    weights = np.asarray(weights, dtype=np.float64)
    if times.shape != weights.shape:
        raise TraceError(
            f"times ({times.shape}) and weights ({weights.shape}) differ in shape"
        )
    nbins = _num_bins(scale, span)
    if nbins == 0:
        return np.zeros(0, dtype=np.float64)
    idx = np.minimum((times / scale).astype(np.int64), nbins - 1)
    return np.bincount(idx, weights=weights, minlength=nbins)


def aggregate(series: np.ndarray, factor: int) -> np.ndarray:
    """Aggregate a count series by summing blocks of ``factor`` bins.

    A trailing partial block is discarded so every output bin summarizes
    exactly ``factor`` inputs — required for unbiased variance-vs-scale
    comparisons (the Hurst aggregate-variance method).
    """
    if factor <= 0:
        raise TraceError(f"aggregation factor must be > 0, got {factor!r}")
    series = np.asarray(series)
    usable = (series.size // factor) * factor
    if usable == 0:
        return np.zeros(0, dtype=series.dtype)
    return series[:usable].reshape(-1, factor).sum(axis=1)
