"""Latency characterization of simulation runs."""

import numpy as np
import pytest

from repro.core.latency import (
    DegradedTailAnalysis,
    analyze_latency,
    tail_inflation,
)
from repro.disk.simulator import DiskSimulator
from repro.errors import AnalysisError
from repro.synth.profiles import get_profile
from repro.traces.millisecond import RequestTrace


class TestAnalyzeLatency:
    def test_descriptions_consistent(self, web_result):
        a = analyze_latency(web_result)
        assert a.response.mean == pytest.approx(
            a.wait.mean + a.service.mean, rel=1e-9
        )
        assert a.response.n == len(web_result.trace)

    def test_per_class_split(self, web_result):
        a = analyze_latency(web_result)
        assert a.read_response is not None
        assert a.write_response is not None
        n_reads = int((~web_result.trace.is_write).sum())
        assert a.read_response.n == n_reads

    def test_writes_faster_with_write_back_cache(self, web_result):
        # The tiny drive has write-back on: absorbed writes are far
        # cheaper than media reads.
        a = analyze_latency(web_result)
        assert a.write_response.median < a.read_response.median

    def test_single_class_trace(self, tiny_spec):
        trace = RequestTrace([0.0, 0.1], [100, 5000], [8, 8], [False, False], span=1.0)
        result = DiskSimulator(tiny_spec).run(trace)
        a = analyze_latency(result)
        assert a.write_response is None
        assert a.read_response.n == 2

    def test_littles_law_mean_depth(self, web_result):
        a = analyze_latency(web_result)
        lam = web_result.trace.request_rate
        w = a.response.mean
        assert a.mean_queue_depth == pytest.approx(lam * w, rel=0.05)

    def test_max_depth_at_least_one(self, web_result):
        a = analyze_latency(web_result)
        assert a.max_queue_depth >= 1

    def test_empty_run_rejected(self, tiny_spec):
        result = DiskSimulator(tiny_spec).run(RequestTrace.empty(span=1.0))
        with pytest.raises(AnalysisError):
            analyze_latency(result)


class TestQueueDepthSeries:
    def test_depth_grows_with_load(self, tiny_spec):
        low = get_profile("database").with_rate(20.0).synthesize(
            30.0, tiny_spec.capacity_sectors, seed=3
        )
        high = get_profile("database").with_rate(300.0).synthesize(
            30.0, tiny_spec.capacity_sectors, seed=3
        )
        d_low = analyze_latency(DiskSimulator(tiny_spec, seed=1).run(low))
        d_high = analyze_latency(DiskSimulator(tiny_spec, seed=1).run(high))
        assert d_high.mean_queue_depth > d_low.mean_queue_depth
        assert d_high.max_queue_depth >= d_low.max_queue_depth


class TestTailInflationGuards:
    """Degenerate inputs to tail_inflation get sentinels, not crashes."""

    def _analysis(self, **stats):
        defaults = dict(
            n_requests=1, n_faulted=0, n_failed=0, completed_requests=1,
            fault_penalty_seconds=0.0, mean_response=1.0, p99_response=1.0,
            p999_response=1.0, max_response=1.0,
        )
        defaults.update(stats)
        return DegradedTailAnalysis(**defaults)

    def test_identical_tails_are_unity(self):
        a = self._analysis()
        inflation = tail_inflation(a, a)
        assert all(v == pytest.approx(1.0) for v in inflation.values())

    def test_zero_over_zero_is_unity(self):
        zero = self._analysis(
            mean_response=0.0, p99_response=0.0,
            p999_response=0.0, max_response=0.0,
        )
        inflation = tail_inflation(zero, zero)
        assert all(v == 1.0 for v in inflation.values())

    def test_zero_baseline_is_nan_sentinel(self):
        zero = self._analysis(
            mean_response=0.0, p99_response=0.0,
            p999_response=0.0, max_response=0.0,
        )
        degraded = self._analysis(mean_response=2.0)
        inflation = tail_inflation(zero, degraded)
        assert all(np.isnan(v) for v in inflation.values())

    def test_nan_input_is_nan_sentinel(self):
        nan = self._analysis(mean_response=float("nan"))
        healthy = self._analysis()
        assert np.isnan(tail_inflation(healthy, nan)["mean"])
        assert np.isnan(tail_inflation(nan, healthy)["mean"])
        # The untouched statistics still divide through.
        assert tail_inflation(healthy, nan)["p99"] == pytest.approx(1.0)

    def test_infinite_input_is_nan_sentinel(self):
        inf = self._analysis(max_response=float("inf"))
        healthy = self._analysis()
        assert np.isnan(tail_inflation(healthy, inf)["max"])

    def test_negative_baseline_is_nan_sentinel(self):
        negative = self._analysis(mean_response=-1.0)
        healthy = self._analysis()
        assert np.isnan(tail_inflation(negative, healthy)["mean"])
