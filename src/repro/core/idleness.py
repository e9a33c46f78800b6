"""Idleness analysis: the availability and shape of idle time.

The paper's second finding is that drives "experience long stretches of
idleness". Two quantities make that precise:

* the distribution of idle-interval *lengths* (its heavy upper tail is
  the "long stretches"), and
* the *usability* of idle time: how much of the total idle time sits in
  intervals long enough for a background task that needs ``d`` seconds —
  the quantity that matters for background media scans, scrubbing and
  power management (the motivation the authors pursued in follow-on
  work).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.disk.timeline import BusyIdleTimeline
from repro.errors import AnalysisError
from repro.stats.ecdf import Ecdf
from repro.stats.fitting import best_fit
from repro.stats.tail import tail_heaviness_ratio


@dataclass(frozen=True)
class IdlenessAnalysis:
    """Idleness characterization of one timeline.

    Attributes
    ----------
    idle_fraction:
        Idle share of the observation window.
    n_intervals:
        Number of idle intervals.
    mean_interval, median_interval, p99_interval:
        Idle-interval length statistics, seconds.
    top_decile_time_share:
        Share of total idle *time* carried by the longest 10 % of
        intervals — the quantitative "long stretches" statement.
    best_fit_family:
        Which distribution family (exponential / lognormal / pareto)
        explains the interval lengths best by KS distance.
    """

    idle_fraction: float
    n_intervals: int
    mean_interval: float
    median_interval: float
    p99_interval: float
    top_decile_time_share: float
    best_fit_family: str


def analyze_idleness(timeline: BusyIdleTimeline) -> IdlenessAnalysis:
    """Characterize the idle intervals of a timeline.

    Raises :class:`AnalysisError` when the timeline has no idle interval
    (a saturated window genuinely has none — callers should treat that
    case explicitly, not receive fabricated zeros).
    """
    intervals = timeline.idle_periods()
    if intervals.size == 0:
        raise AnalysisError("timeline has no idle intervals (saturated window)")
    ecdf = Ecdf(intervals)
    try:
        family = best_fit(intervals).name
    except Exception:  # degenerate samples (all-equal) have no meaningful fit
        family = "degenerate"
    return IdlenessAnalysis(
        idle_fraction=timeline.total_idle / timeline.span if timeline.span else float("nan"),
        n_intervals=int(intervals.size),
        mean_interval=float(intervals.mean()),
        median_interval=ecdf.median,
        p99_interval=ecdf.quantile(0.99),
        top_decile_time_share=tail_heaviness_ratio(intervals, top_fraction=0.1),
        best_fit_family=family,
    )


def idle_interval_ecdf(timeline: BusyIdleTimeline) -> Ecdf:
    """ECDF of idle-interval lengths — the paper's idle-time CDF figure."""
    intervals = timeline.idle_periods()
    if intervals.size == 0:
        raise AnalysisError("timeline has no idle intervals (saturated window)")
    return Ecdf(intervals)


def idle_time_usability(
    timeline: BusyIdleTimeline, durations: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Fraction of total idle *time* in intervals of at least each duration.

    Returns ``(durations, fractions)``. ``fractions[i]`` answers: "if a
    background task needs an uninterrupted ``durations[i]`` seconds, what
    share of the idle time lives in intervals that long or longer?" A
    heavy-tailed idle distribution keeps this near 1 far beyond the mean
    interval — the actionable form of "long stretches of idleness".
    """
    durations = np.asarray(sorted(durations), dtype=np.float64)
    if durations.size == 0:
        raise AnalysisError("need at least one duration")
    if np.any(durations < 0):
        raise AnalysisError("durations must be >= 0")
    intervals = timeline.idle_periods()
    total = intervals.sum() if intervals.size else 0.0
    if total == 0:
        return durations, np.zeros_like(durations)
    fractions = np.array(
        [intervals[intervals >= d].sum() / total for d in durations]
    )
    return durations, fractions


def idle_sequence_autocorrelation(
    timeline: BusyIdleTimeline, max_lag: int = 20
) -> np.ndarray:
    """Autocorrelation of *successive* idle-interval lengths.

    The authors' related work (long-range dependence at the disk level)
    shows idle periods are not independent: a long lull tends to follow
    a long lull. Positive low-lag values here are that dependence; a
    memoryless (Poisson) workload gives values near 0.
    """
    from repro.stats.autocorr import autocorrelation

    intervals = timeline.idle_periods()
    if intervals.size < max(8, max_lag + 1):
        raise AnalysisError(
            f"only {intervals.size} idle intervals; sequence analysis needs more"
        )
    return autocorrelation(intervals, max_lag=max_lag)


def usable_idle_time(
    timeline: BusyIdleTimeline, setup_cost: float
) -> float:
    """Total background-work seconds extractable from the idle intervals
    when starting work in an interval costs ``setup_cost`` seconds
    (spin-up, head reposition, context restore).

    Each interval contributes ``max(0, length - setup_cost)``.
    """
    if setup_cost < 0:
        raise AnalysisError(f"setup_cost must be >= 0, got {setup_cost!r}")
    intervals = timeline.idle_periods()
    if intervals.size == 0:
        return 0.0
    return float(np.maximum(intervals - setup_cost, 0.0).sum())
