"""HourlyTrace and HourlyDataset: the Hour-trace containers."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.traces.hourly import HourlyDataset, HourlyTrace
from repro.units import SECONDS_PER_HOUR


def make_trace(drive_id="d0", hours=48, level=1e9, start_hour=0):
    reads = np.full(hours, level * 0.4)
    writes = np.full(hours, level * 0.6)
    return HourlyTrace(drive_id, reads, writes, start_hour=start_hour)


class TestHourlyTrace:
    def test_shape_and_totals(self):
        t = make_trace(hours=24)
        assert t.hours == 24
        assert len(t) == 24
        assert t.total_bytes.tolist() == [1e9] * 24

    def test_mismatched_series_rejected(self):
        with pytest.raises(TraceError):
            HourlyTrace("d", [1.0, 2.0], [1.0])

    def test_negative_counter_rejected(self):
        with pytest.raises(TraceError):
            HourlyTrace("d", [-1.0], [0.0])

    def test_negative_start_hour_rejected(self):
        with pytest.raises(TraceError):
            HourlyTrace("d", [1.0], [1.0], start_hour=-1)

    def test_series_readonly(self):
        t = make_trace()
        with pytest.raises(ValueError):
            t.read_bytes[0] = 0.0

    def test_mean_and_peak_throughput(self):
        t = make_trace(hours=10, level=SECONDS_PER_HOUR)  # 1 B/s per hour
        assert t.mean_throughput == pytest.approx(1.0)
        assert t.peak_throughput == pytest.approx(1.0)
        assert t.peak_to_mean == pytest.approx(1.0)

    def test_peak_to_mean_with_burst(self):
        reads = np.zeros(10)
        writes = np.ones(10)
        writes[3] = 11.0
        t = HourlyTrace("d", reads, writes)
        assert t.peak_to_mean == pytest.approx(11.0 / 2.0)

    def test_write_byte_fraction(self):
        assert make_trace().write_byte_fraction == pytest.approx(0.6)

    def test_write_fraction_nan_for_silent_drive(self):
        t = HourlyTrace("d", np.zeros(5), np.zeros(5))
        assert np.isnan(t.write_byte_fraction)

    def test_utilization_series_clipped(self):
        bw = 100.0  # bytes/s
        t = HourlyTrace("d", [bw * SECONDS_PER_HOUR * 2], [0.0])
        assert t.utilization_series(bw).tolist() == [1.0]

    def test_utilization_requires_positive_bandwidth(self):
        with pytest.raises(TraceError):
            make_trace().utilization_series(0.0)

    def test_saturated_hours_and_stretch(self):
        bw = 1.0
        cap = bw * SECONDS_PER_HOUR
        util = [0.95, 0.99, 0.91, 0.2, 0.95, 0.1]
        t = HourlyTrace("d", [u * cap for u in util], np.zeros(6))
        assert t.saturated_hours(bw).tolist() == [True, True, True, False, True, False]
        assert t.longest_saturated_stretch(bw) == 3

    def test_fold_weekly_alignment(self):
        # one week of data starting at hour-of-week 5
        t = make_trace(hours=168, start_hour=5)
        weekly = t.fold_weekly()
        assert weekly.shape == (168,)
        assert np.all(np.isfinite(weekly))

    def test_fold_weekly_unobserved_hours_nan(self):
        t = make_trace(hours=24, start_hour=0)
        weekly = t.fold_weekly()
        assert np.isfinite(weekly[:24]).all()
        assert np.isnan(weekly[24:]).all()


class TestHourlyDataset:
    def make_dataset(self, n=3, hours=24):
        return HourlyDataset([make_trace(f"d{i}", hours=hours, level=(i + 1) * 1e9) for i in range(n)])

    def test_len_and_iteration(self):
        ds = self.make_dataset(3)
        assert len(ds) == 3
        assert [t.drive_id for t in ds] == ["d0", "d1", "d2"]
        assert ds[1].drive_id == "d1"

    def test_duplicate_ids_rejected(self):
        with pytest.raises(TraceError):
            HourlyDataset([make_trace("same"), make_trace("same")])

    def test_by_id(self):
        ds = self.make_dataset()
        assert ds.by_id("d2").drive_id == "d2"
        with pytest.raises(KeyError):
            ds.by_id("nope")

    def test_hours_is_common_minimum(self):
        ds = HourlyDataset([make_trace("a", hours=24), make_trace("b", hours=48)])
        assert ds.hours == 24

    def test_throughput_vectors(self):
        ds = self.make_dataset(2)
        means = ds.mean_throughputs()
        assert means[1] == pytest.approx(2 * means[0])
        assert (ds.peak_throughputs() >= means).all()

    def test_saturated_hour_fraction(self):
        bw = 1e9 / SECONDS_PER_HOUR  # drive d0 runs exactly at bandwidth
        ds = self.make_dataset(1)
        assert ds.saturated_hour_fraction(bw) == pytest.approx(1.0)

    def test_saturated_fraction_empty_nan(self):
        assert np.isnan(HourlyDataset([]).saturated_hour_fraction(1.0))

    def test_longest_saturated_stretches_keys(self):
        ds = self.make_dataset(3)
        stretches = ds.longest_saturated_stretches(1e18)
        assert set(stretches) == {"d0", "d1", "d2"}
        assert all(v == 0 for v in stretches.values())

    def test_aggregate_series(self):
        ds = self.make_dataset(2, hours=24)
        agg = ds.aggregate_series()
        assert agg.shape == (24,)
        assert agg[0] == pytest.approx(3e9)

    def test_aggregate_series_empty(self):
        assert HourlyDataset([]).aggregate_series() is None
