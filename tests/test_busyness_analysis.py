"""Busy-period analysis."""

import pytest

from repro.core.busyness import (
    analyze_busyness,
    busy_period_ecdf,
)
from repro.disk.timeline import BusyIdleTimeline
from repro.errors import AnalysisError


@pytest.fixture
def timeline():
    # Busy periods: 1, 2, 3 seconds within a 60 s window.
    return BusyIdleTimeline([(0.0, 1.0), (10.0, 12.0), (30.0, 33.0)], span=60.0)


def test_analysis_values(timeline):
    a = analyze_busyness(timeline)
    assert a.n_periods == 3
    assert a.busy_fraction == pytest.approx(6.0 / 60.0)
    assert a.mean_period == pytest.approx(2.0)
    assert a.median_period == pytest.approx(2.0)
    assert a.longest_period == pytest.approx(3.0)
    assert a.periods_per_hour == pytest.approx(3 / (60.0 / 3600.0))


def test_top_decile_share(timeline):
    a = analyze_busyness(timeline)
    assert a.top_decile_time_share == pytest.approx(3.0 / 6.0)


def test_all_idle_rejected():
    t = BusyIdleTimeline([], span=10.0)
    with pytest.raises(AnalysisError):
        analyze_busyness(t)
    with pytest.raises(AnalysisError):
        busy_period_ecdf(t)


def test_ecdf(timeline):
    e = busy_period_ecdf(timeline)
    assert e.n == 3
    assert e(2.5) == pytest.approx(2 / 3)


def test_short_busy_periods_on_web_profile(web_result):
    a = analyze_busyness(web_result.timeline)
    # Disk-level busy periods are short: medians in the tens of ms.
    assert a.median_period < 0.5
    assert a.n_periods > 10
