"""Workload summaries."""

import numpy as np
import pytest

from repro.core.summary import summarize_trace
from repro.errors import AnalysisError
from repro.traces.millisecond import RequestTrace


def make_trace():
    return RequestTrace(
        times=[0.0, 1.0, 2.0, 3.0],
        lbas=[0, 100, 108, 50],
        nsectors=[8, 8, 8, 16],   # 4,4,4,8 KiB
        is_write=[False, True, True, False],
        span=10.0,
        label="sum",
    )


def test_summary_fields():
    s = summarize_trace(make_trace())
    assert s.name == "sum"
    assert s.n_requests == 4
    assert s.span_seconds == 10.0
    assert s.request_rate == pytest.approx(0.4)
    assert s.byte_rate == pytest.approx(40 * 512 / 10.0)
    assert s.write_request_fraction == pytest.approx(0.5)
    assert s.write_byte_fraction == pytest.approx(16 / 40)
    assert s.mean_request_kib == pytest.approx(5.0)
    assert s.median_request_kib == pytest.approx(4.0)
    assert s.sequentiality == pytest.approx(1 / 3)


def test_interarrival_cv_constant_gaps_zero():
    s = summarize_trace(make_trace())
    assert s.interarrival_cv == pytest.approx(0.0)


def test_cv_nan_for_two_requests():
    t = RequestTrace([0.0, 1.0], [0, 0], [1, 1], [0, 0], span=2.0)
    assert np.isnan(summarize_trace(t).interarrival_cv)


def test_empty_trace_rejected():
    with pytest.raises(AnalysisError):
        summarize_trace(RequestTrace.empty(span=1.0))
