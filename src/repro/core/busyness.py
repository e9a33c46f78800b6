"""Busy-period analysis: the complement of idleness.

Disk-level busy periods are typically *short* (one request or a small
queued batch) with a tail of long saturated episodes; their distribution
tells a scheduler how long "busy" lasts once it starts, and the long-run
tail is where the paper's hours-long full-bandwidth stretches live at
the millisecond scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.disk.timeline import BusyIdleTimeline
from repro.errors import AnalysisError
from repro.stats.ecdf import Ecdf
from repro.stats.tail import tail_heaviness_ratio


@dataclass(frozen=True)
class BusynessAnalysis:
    """Busy-period characterization of one timeline.

    Attributes
    ----------
    busy_fraction:
        Busy share of the observation window (the utilization).
    n_periods:
        Number of maximal busy periods.
    periods_per_hour:
        Busy-period arrival rate.
    mean_period, median_period, p99_period, longest_period:
        Busy-period length statistics, seconds.
    top_decile_time_share:
        Share of total busy time in the longest 10 % of periods.
    """

    busy_fraction: float
    n_periods: int
    periods_per_hour: float
    mean_period: float
    median_period: float
    p99_period: float
    longest_period: float
    top_decile_time_share: float


def analyze_busyness(timeline: BusyIdleTimeline) -> BusynessAnalysis:
    """Characterize the busy periods of a timeline.

    Raises :class:`AnalysisError` for an all-idle timeline (no busy
    period to describe).
    """
    periods = timeline.busy_periods()
    if periods.size == 0:
        raise AnalysisError("timeline has no busy periods (all-idle window)")
    ecdf = Ecdf(periods)
    per_hour = (
        timeline.n_busy_periods / (timeline.span / 3600.0) if timeline.span else float("nan")
    )
    return BusynessAnalysis(
        busy_fraction=timeline.utilization,
        n_periods=int(periods.size),
        periods_per_hour=per_hour,
        mean_period=float(periods.mean()),
        median_period=ecdf.median,
        p99_period=ecdf.quantile(0.99),
        longest_period=float(periods.max()),
        top_decile_time_share=tail_heaviness_ratio(periods, top_fraction=0.1),
    )


def busy_period_ecdf(timeline: BusyIdleTimeline) -> Ecdf:
    """ECDF of busy-period lengths — the paper's busy-period CDF figure."""
    periods = timeline.busy_periods()
    if periods.size == 0:
        raise AnalysisError("timeline has no busy periods (all-idle window)")
    return Ecdf(periods)
