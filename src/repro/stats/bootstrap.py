"""Bootstrap confidence intervals for workload statistics.

Point estimates of heavy-tailed quantities (Hurst, Gini, tail shares)
deserve error bars. Two resamplers are provided: the classic i.i.d.
bootstrap for cross-sectional samples (per-drive statistics), and the
moving-block bootstrap for time series (count sequences), which
preserves short-range dependence the i.i.d. scheme would destroy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import StatsError
from repro.stats.moments import sorted_quantiles


@dataclass(frozen=True)
class BootstrapInterval:
    """A percentile bootstrap confidence interval.

    Attributes
    ----------
    estimate:
        The statistic evaluated on the original sample.
    low, high:
        The interval endpoints.
    confidence:
        Nominal coverage (e.g. 0.95).
    replicates:
        Number of bootstrap replicates used.
    """

    estimate: float
    low: float
    high: float
    confidence: float
    replicates: int

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.low <= value <= self.high

    @property
    def width(self) -> float:
        """Interval width."""
        return self.high - self.low


def _interval(
    estimate: float,
    replicate_values: np.ndarray,
    confidence: float,
) -> BootstrapInterval:
    finite = replicate_values[np.isfinite(replicate_values)]
    if finite.size == 0:
        raise StatsError("every bootstrap replicate produced a non-finite value")
    alpha = (1.0 - confidence) / 2.0
    low, high = sorted_quantiles(np.sort(finite), (alpha, 1.0 - alpha))
    return BootstrapInterval(
        estimate=float(estimate),
        low=float(low),
        high=float(high),
        confidence=float(confidence),
        replicates=int(finite.size),
    )


def bootstrap_ci(
    sample: Sequence[float],
    statistic: Callable[[np.ndarray], float],
    replicates: int = 500,
    confidence: float = 0.95,
    seed: int = 0,
) -> BootstrapInterval:
    """Percentile bootstrap CI for ``statistic`` on an i.i.d. sample."""
    values = np.asarray(sample, dtype=np.float64)
    values = values[~np.isnan(values)]
    if values.size < 2:
        raise StatsError("bootstrap needs at least 2 observations")
    if replicates < 10:
        raise StatsError(f"replicates must be >= 10, got {replicates!r}")
    if not 0.5 < confidence < 1.0:
        raise StatsError(f"confidence must be in (0.5, 1), got {confidence!r}")
    rng = np.random.default_rng(seed)
    estimate = float(statistic(values))
    outcomes = np.empty(replicates)
    for i in range(replicates):
        resample = values[rng.integers(0, values.size, size=values.size)]
        try:
            outcomes[i] = float(statistic(resample))
        except Exception:
            outcomes[i] = np.nan
    return _interval(estimate, outcomes, confidence)


def block_bootstrap_ci(
    series: Sequence[float],
    statistic: Callable[[np.ndarray], float],
    block_length: int,
    replicates: int = 200,
    confidence: float = 0.95,
    seed: int = 0,
) -> BootstrapInterval:
    """Moving-block bootstrap CI for a statistic of a dependent series.

    Resamples overlapping blocks of ``block_length`` consecutive values
    and concatenates them to the original length, preserving dependence
    up to the block scale. Choose a block several times the series'
    correlation time.
    """
    values = np.asarray(series, dtype=np.float64)
    if np.any(np.isnan(values)):
        raise StatsError("block bootstrap requires a NaN-free series")
    n = values.size
    if block_length < 1:
        raise StatsError(f"block_length must be >= 1, got {block_length!r}")
    if n < 2 * block_length:
        raise StatsError(
            f"series of {n} too short for blocks of {block_length}"
        )
    if replicates < 10:
        raise StatsError(f"replicates must be >= 10, got {replicates!r}")
    if not 0.5 < confidence < 1.0:
        raise StatsError(f"confidence must be in (0.5, 1), got {confidence!r}")
    rng = np.random.default_rng(seed)
    estimate = float(statistic(values))
    n_blocks = int(np.ceil(n / block_length))
    max_start = n - block_length
    outcomes = np.empty(replicates)
    for i in range(replicates):
        starts = rng.integers(0, max_start + 1, size=n_blocks)
        pieces = [values[s:s + block_length] for s in starts]
        resample = np.concatenate(pieces)[:n]
        try:
            outcomes[i] = float(statistic(resample))
        except Exception:
            outcomes[i] = np.nan
    return _interval(estimate, outcomes, confidence)
