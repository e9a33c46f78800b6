"""BusyIdleTimeline: merging, utilization and period extraction."""

import numpy as np
import pytest

from repro.disk.timeline import BusyIdleTimeline
from repro.errors import SimulationError
from repro.obs import load_events_jsonl, timeline_from_events


class TestConstruction:
    def test_overlapping_intervals_merged(self):
        t = BusyIdleTimeline([(0.0, 2.0), (1.0, 3.0)], span=10.0)
        assert t.n_busy_periods == 1
        assert t.busy_periods().tolist() == [3.0]

    def test_abutting_intervals_merged(self):
        t = BusyIdleTimeline([(0.0, 1.0), (1.0, 2.0)], span=10.0)
        assert t.n_busy_periods == 1

    def test_disjoint_intervals_kept(self):
        t = BusyIdleTimeline([(0.0, 1.0), (2.0, 3.0)], span=10.0)
        assert t.n_busy_periods == 2

    def test_unsorted_input_accepted(self):
        t = BusyIdleTimeline([(5.0, 6.0), (0.0, 1.0)], span=10.0)
        assert t.starts.tolist() == [0.0, 5.0]

    def test_zero_length_intervals_dropped(self):
        t = BusyIdleTimeline([(1.0, 1.0)], span=10.0)
        assert t.n_busy_periods == 0

    def test_interval_outside_span_rejected(self):
        with pytest.raises(SimulationError):
            BusyIdleTimeline([(0.0, 11.0)], span=10.0)
        with pytest.raises(SimulationError):
            BusyIdleTimeline([(-1.0, 1.0)], span=10.0)

    def test_reversed_interval_rejected(self):
        with pytest.raises(SimulationError):
            BusyIdleTimeline([(2.0, 1.0)], span=10.0)

    def test_negative_span_rejected(self):
        with pytest.raises(SimulationError):
            BusyIdleTimeline([], span=-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_interval_rejected(self, bad):
        with pytest.raises(SimulationError, match=r"interval \[.*\] is not finite"):
            BusyIdleTimeline([(bad, 1.0), (2.0, 3.0)], span=10.0)
        with pytest.raises(SimulationError, match="is not finite"):
            BusyIdleTimeline([(0.0, 1.0), (2.0, bad)], span=10.0)

    def test_nan_service_event_rejected(self, tmp_path):
        """JSON allows NaN, so a dumped event stream can carry one."""
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"time": 1.0, "kind": "serve", "source": "sim",'
            ' "data": {"index": 0, "service": NaN}}\n'
            '{"time": 2.0, "kind": "serve", "source": "sim",'
            ' "data": {"index": 1, "service": 0.5}}\n'
            '{"time": 10.0, "kind": "run_end", "source": "sim", "data": {}}\n'
        )
        with pytest.raises(SimulationError, match=r"interval \[1\.0, nan\] is not finite"):
            timeline_from_events(load_events_jsonl(str(path)))

    def test_malformed_row_names_shape_contract(self):
        with pytest.raises(SimulationError, match=r"\(n, 2\) array.*shape \(1, 3\)"):
            BusyIdleTimeline([(0, 1, 2)], span=10.0)
        with pytest.raises(SimulationError, match=r"\(n, 2\) array"):
            BusyIdleTimeline([(0.0, 1.0), (2.0,)], span=10.0)

    def test_column_array_accepted(self):
        columns = np.column_stack(([2.0, 0.0, 1.0], [3.0, 1.0, 1.5]))
        t = BusyIdleTimeline(columns, span=5.0)
        assert t.starts.tolist() == [0.0, 2.0]
        assert t.ends.tolist() == [1.5, 3.0]


class TestAccounting:
    def test_busy_idle_partition_span(self):
        t = BusyIdleTimeline([(1.0, 2.0), (4.0, 7.0)], span=10.0)
        assert t.total_busy == pytest.approx(4.0)
        assert t.total_idle == pytest.approx(6.0)
        assert t.utilization == pytest.approx(0.4)

    def test_idle_periods_include_boundaries(self):
        t = BusyIdleTimeline([(1.0, 2.0), (4.0, 7.0)], span=10.0)
        assert sorted(t.idle_periods().tolist()) == [1.0, 2.0, 3.0]

    def test_no_leading_idle_when_busy_at_zero(self):
        t = BusyIdleTimeline([(0.0, 2.0)], span=4.0)
        assert t.idle_periods().tolist() == [2.0]

    def test_no_trailing_idle_when_busy_at_span(self):
        t = BusyIdleTimeline([(2.0, 4.0)], span=4.0)
        assert t.idle_periods().tolist() == [2.0]

    def test_all_idle_window(self):
        t = BusyIdleTimeline([], span=5.0)
        assert t.utilization == 0.0
        assert t.idle_periods().tolist() == [5.0]
        assert t.busy_periods().size == 0

    def test_fully_busy_window(self):
        t = BusyIdleTimeline([(0.0, 5.0)], span=5.0)
        assert t.utilization == 1.0
        assert t.idle_periods().size == 0

    def test_zero_span_utilization_nan(self):
        assert np.isnan(BusyIdleTimeline([], span=0.0).utilization)


class TestBusyTimeBefore:
    def test_matches_manual_integration(self):
        t = BusyIdleTimeline([(1.0, 2.0), (4.0, 7.0)], span=10.0)
        queries = np.array([0.0, 1.0, 1.5, 2.0, 3.0, 4.5, 7.0, 10.0])
        expected = np.array([0.0, 0.0, 0.5, 1.0, 1.0, 1.5, 4.0, 4.0])
        np.testing.assert_allclose(t.busy_time_before(queries), expected)

    def test_monotone(self):
        t = BusyIdleTimeline([(0.5, 1.5), (2.0, 2.2), (5.0, 9.0)], span=10.0)
        values = t.busy_time_before(np.linspace(0, 10, 101))
        assert np.all(np.diff(values) >= -1e-12)

    def test_empty_timeline_zero(self):
        t = BusyIdleTimeline([], span=10.0)
        assert t.busy_time_before(np.array([5.0]))[0] == 0.0


class TestUtilizationSeries:
    def test_per_window_values(self):
        t = BusyIdleTimeline([(0.0, 1.0), (2.0, 4.0)], span=4.0)
        series = t.utilization_series(1.0)
        np.testing.assert_allclose(series, [1.0, 0.0, 1.0, 1.0])

    def test_partial_window_normalized_by_true_length(self):
        t = BusyIdleTimeline([(2.0, 2.5)], span=2.5)
        series = t.utilization_series(1.0)
        # Final half-window is fully busy.
        np.testing.assert_allclose(series, [0.0, 0.0, 1.0])

    def test_mean_consistent_with_overall(self):
        t = BusyIdleTimeline([(0.3, 1.7), (3.1, 7.9)], span=10.0)
        series = t.utilization_series(1.0)
        assert series.mean() == pytest.approx(t.utilization)

    def test_bad_scale_rejected(self):
        with pytest.raises(SimulationError):
            BusyIdleTimeline([], span=1.0).utilization_series(0.0)

    def test_values_clipped_to_unit_interval(self):
        t = BusyIdleTimeline([(0.0, 10.0)], span=10.0)
        series = t.utilization_series(3.0)
        assert np.all(series <= 1.0)
        assert np.all(series >= 0.0)


class TestIdleIntervalFilter:
    def test_min_length_drops_short_intervals(self):
        t = BusyIdleTimeline([(1.0, 2.0), (4.0, 7.0)], span=10.0)
        # Idle intervals: [0,1], [2,4], [7,10].
        intervals = t.idle_intervals(min_length=2.0)
        assert intervals.tolist() == [[2.0, 4.0], [7.0, 10.0]]

    def test_zero_min_length_keeps_everything(self):
        t = BusyIdleTimeline([(1.0, 2.0)], span=3.0)
        assert t.idle_intervals(min_length=0.0).tolist() == t.idle_intervals().tolist()

    def test_empty_timeline_respects_min_length(self):
        t = BusyIdleTimeline([], span=5.0)
        assert t.idle_intervals(min_length=4.0).tolist() == [[0.0, 5.0]]
        assert t.idle_intervals(min_length=6.0).size == 0

    def test_negative_min_length_rejected(self):
        with pytest.raises(SimulationError):
            BusyIdleTimeline([], span=5.0).idle_intervals(min_length=-1.0)
