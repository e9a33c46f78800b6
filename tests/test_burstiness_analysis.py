"""Burstiness across time scales."""

import numpy as np
import pytest

from repro.core.burstiness import analyze_burstiness
from repro.errors import AnalysisError
from repro.synth.arrivals import bmodel_arrivals, poisson_arrivals
from repro.traces.millisecond import RequestTrace


def trace_from_times(times, span, label):
    n = times.size
    return RequestTrace(
        times=times,
        lbas=np.zeros(n, dtype=np.int64),
        nsectors=np.full(n, 8, dtype=np.int64),
        is_write=np.zeros(n, dtype=bool),
        span=span,
        label=label,
    )


@pytest.fixture(scope="module")
def poisson_trace():
    rng = np.random.default_rng(110)
    return trace_from_times(poisson_arrivals(rng, 100.0, 600.0), 600.0, "poisson")


@pytest.fixture(scope="module")
def bursty_trace():
    rng = np.random.default_rng(111)
    times = bmodel_arrivals(rng, 60_000, span=600.0, bias=0.75, min_bin=1e-2)
    return trace_from_times(times, 600.0, "bmodel")


def test_poisson_baseline(poisson_trace):
    a = analyze_burstiness(poisson_trace)
    assert abs(a.hurst_variance - 0.5) < 0.12
    assert a.interarrival_cv == pytest.approx(1.0, abs=0.1)
    assert a.idc_growth < 2.5
    assert not a.is_bursty_across_scales


def test_bursty_traffic_detected(bursty_trace):
    a = analyze_burstiness(bursty_trace)
    assert a.hurst_variance > 0.65
    assert a.idc_growth > 5.0
    assert a.idc[-1] > 10.0
    assert a.is_bursty_across_scales
    assert a.autocorrelation_time > 2.0


def test_scales_ascending(bursty_trace):
    a = analyze_burstiness(bursty_trace)
    assert np.all(np.diff(a.scales) > 0)
    assert a.scales.size == a.idc.size


def test_too_few_requests_rejected():
    t = trace_from_times(np.linspace(0, 1, 10), 1.0, "tiny")
    with pytest.raises(AnalysisError):
        analyze_burstiness(t)


def test_trace_too_short_for_scales_rejected():
    t = trace_from_times(np.linspace(0, 0.9, 100), 1.0, "short")
    with pytest.raises(AnalysisError):
        analyze_burstiness(t, base_scale=1.0, factors=(1, 2))
