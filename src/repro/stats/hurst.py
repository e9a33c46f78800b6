"""Hurst-parameter estimators for long-range dependence.

Self-similar traffic aggregated by a factor ``m`` keeps a variance that
decays like ``m^(2H - 2)`` instead of the ``m^-1`` of independent counts.
``H > 0.5`` therefore quantifies the "bursty across all time scales"
finding. Two classical estimators are provided — the aggregate-variance
method and rescaled-range (R/S) analysis — because agreement between two
independent estimators is the standard evidence the literature expects.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.errors import StatsError
from repro.traces.window import aggregate


def variance_time_curve(
    counts: Sequence[float], factors: Sequence[int], min_bins: int = 8
) -> Tuple[np.ndarray, np.ndarray]:
    """Variance of the *normalized* aggregated series per factor.

    For each ``m`` in ``factors`` the count series is block-summed and
    divided by ``m``; the variance of that series versus ``m`` on a
    log-log plot has slope ``2H - 2``. Factors leaving fewer than
    ``min_bins`` blocks are skipped.

    Returns ``(usable_factors, variances)``.
    """
    base = np.asarray(counts, dtype=np.float64)
    if base.size < min_bins:
        raise StatsError(
            f"count series too short ({base.size} bins) for a variance-time curve"
        )
    used = []
    variances = []
    for factor in factors:
        if factor <= 0:
            raise StatsError(f"factors must be > 0, got {factor!r}")
        series = aggregate(base, int(factor)) / float(factor)
        if series.size < min_bins:
            continue
        used.append(int(factor))
        variances.append(float(series.var(ddof=1)))
    if len(used) < 2:
        raise StatsError("fewer than two usable aggregation factors")
    return np.asarray(used, dtype=np.float64), np.asarray(variances)


def hurst_aggregate_variance(
    counts: Sequence[float], factors: Sequence[int] = (1, 2, 4, 8, 16, 32, 64)
) -> float:
    """Hurst estimate from the slope of the variance-time curve.

    Fits ``log(var)`` against ``log(m)`` by least squares; the estimate is
    ``1 + slope / 2``, clipped to ``[0, 1]``. Degenerate (zero-variance)
    curves yield NaN.
    """
    factors_used, variances = variance_time_curve(counts, factors)
    positive = variances > 0
    if positive.sum() < 2:
        return float("nan")
    slope = np.polyfit(np.log(factors_used[positive]), np.log(variances[positive]), 1)[0]
    return float(np.clip(1.0 + slope / 2.0, 0.0, 1.0))


def _rescaled_ranges(chunks: np.ndarray) -> np.ndarray:
    """R/S of every row of ``chunks`` (one chunk per row) in one array
    pass; a zero-variance row gives NaN."""
    centered = chunks - chunks.mean(axis=1, keepdims=True)
    cumulative = np.cumsum(centered, axis=1)
    spread = cumulative.max(axis=1) - cumulative.min(axis=1)
    scale = chunks.std(axis=1, ddof=0)
    return np.divide(
        spread, scale, out=np.full(spread.shape, np.nan), where=scale != 0
    )


def hurst_rescaled_range(
    counts: Sequence[float], min_chunk: int = 8, n_sizes: int = 8
) -> float:
    """Hurst estimate by classical R/S analysis.

    The series is cut into non-overlapping chunks at ``n_sizes``
    geometrically spaced chunk lengths between ``min_chunk`` and half the
    series; mean R/S per length is regressed on length in log-log space
    and the slope is the estimate, clipped to ``[0, 1]``.
    """
    values = np.asarray(counts, dtype=np.float64)
    if values.size < 2 * min_chunk:
        raise StatsError(
            f"count series too short ({values.size} bins) for R/S analysis"
        )
    max_chunk = values.size // 2
    # geomspace is non-decreasing, so dropping repeats of the previous
    # size dedupes without np.unique (whose first call imports numpy.ma).
    ints = np.geomspace(min_chunk, max_chunk, n_sizes).astype(int)
    sizes = ints[np.r_[True, ints[1:] != ints[:-1]]]
    log_sizes = []
    log_rs = []
    for size in sizes:
        chunks = values[: (values.size // size) * size].reshape(-1, size)
        rs = _rescaled_ranges(chunks)
        rs = rs[np.isfinite(rs) & (rs > 0)]
        if not rs.size:
            continue
        log_sizes.append(np.log(size))
        log_rs.append(np.log(rs.mean()))
    if len(log_sizes) < 2:
        return float("nan")
    slope = np.polyfit(log_sizes, log_rs, 1)[0]
    return float(np.clip(slope, 0.0, 1.0))
