"""Burstiness across time scales: the paper's central analysis.

"The workload arriving at the disk is bursty across all time scales
evaluated." Three complementary measurements make that claim testable:

* the **IDC curve** — index of dispersion for counts versus aggregation
  scale: flat at 1 for Poisson, growing for scale-spanning burstiness;
* **Hurst estimates** — aggregate-variance and R/S, both ≈ 0.5 for
  memoryless traffic and 0.7-0.9 for long-range-dependent disk traffic;
* **interarrival CV** and the count autocorrelation's integrated time as
  short-scale corroboration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError, StatsError
from repro.stats.autocorr import integrated_autocorrelation_time
from repro.stats.dispersion import idc_curve
from repro.stats.hurst import hurst_aggregate_variance, hurst_rescaled_range
from repro.traces.millisecond import RequestTrace

#: Default dyadic ladder of aggregation factors, base scale -> ~1000x.
DEFAULT_FACTORS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


@dataclass(frozen=True)
class BurstinessAnalysis:
    """Multi-scale burstiness characterization of one trace.

    Attributes
    ----------
    scales:
        Aggregation scales in seconds at which the IDC was measured.
    idc:
        Index of dispersion for counts at each scale.
    idc_growth:
        ``idc[-1] / idc[0]`` — how much burstiness compounds from the
        finest to the coarsest usable scale (≈ 1 for Poisson).
    hurst_variance, hurst_rs:
        Hurst estimates by aggregate-variance and R/S.
    interarrival_cv:
        Coefficient of variation of the interarrival times (1 for
        Poisson).
    autocorrelation_time:
        Integrated autocorrelation time of the base-scale counts, in
        bins (≈ 1 for uncorrelated counts).
    """

    scales: np.ndarray
    idc: np.ndarray
    idc_growth: float
    hurst_variance: float
    hurst_rs: float
    interarrival_cv: float
    autocorrelation_time: float

    @property
    def is_bursty_across_scales(self) -> bool:
        """The paper's headline property, as a predicate: the IDC at the
        coarsest scale is at least 5x its finest-scale value *and* at
        least 5 in absolute terms."""
        return bool(self.idc_growth >= 5.0 and self.idc[-1] >= 5.0)


def analyze_burstiness(
    trace: RequestTrace,
    base_scale: float = 0.01,
    factors: Sequence[int] = DEFAULT_FACTORS,
    max_acf_lag: int = 200,
) -> BurstinessAnalysis:
    """Measure burstiness of a trace's arrival process across scales.

    ``base_scale`` is the finest bin width in seconds; ``factors`` the
    dyadic ladder above it. Traces too short or too sparse for a scale
    simply skip it (at least two usable scales are required).
    """
    if len(trace) < 16:
        raise AnalysisError(
            f"trace {trace.label!r} has {len(trace)} requests; "
            "burstiness analysis needs at least 16"
        )
    try:
        scales, idc = idc_curve(trace.times, trace.span, base_scale, list(factors))
    except StatsError as exc:
        raise AnalysisError(str(exc)) from exc
    if scales.size < 2:
        raise AnalysisError("fewer than two usable aggregation scales")

    counts = trace.counts(base_scale)
    usable_factors = [int(round(s / base_scale)) for s in scales]
    hurst_var = hurst_aggregate_variance(counts, usable_factors)
    try:
        hurst_rs = hurst_rescaled_range(counts)
    except Exception:
        hurst_rs = float("nan")

    gaps = trace.interarrival_times()
    cv = float(gaps.std(ddof=1) / gaps.mean()) if gaps.mean() > 0 else float("nan")

    act = integrated_autocorrelation_time(counts, max_lag=min(max_acf_lag, counts.size - 1))

    finite = np.isfinite(idc)
    growth = (
        float(idc[finite][-1] / idc[finite][0]) if finite.sum() >= 2 and idc[finite][0] > 0 else float("nan")
    )
    return BurstinessAnalysis(
        scales=scales,
        idc=idc,
        idc_growth=growth,
        hurst_variance=hurst_var,
        hurst_rs=hurst_rs,
        interarrival_cv=cv,
        autocorrelation_time=act,
    )
