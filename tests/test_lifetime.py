"""LifetimeRecord and DriveFamilyDataset: the Lifetime-trace containers."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.traces.lifetime import DriveFamilyDataset, LifetimeRecord
from repro.units import SECONDS_PER_HOUR


def make_record(drive_id="x0", poh=1000.0, read=1e12, written=2e12, model="m"):
    return LifetimeRecord(drive_id, poh, read, written, model)


class TestLifetimeRecord:
    def test_totals(self):
        r = make_record()
        assert r.total_bytes == pytest.approx(3e12)
        assert r.write_byte_fraction == pytest.approx(2 / 3)

    def test_mean_throughput(self):
        r = make_record(poh=1.0, read=SECONDS_PER_HOUR, written=0.0)
        assert r.mean_throughput == pytest.approx(1.0)

    def test_mean_utilization_clipped(self):
        r = make_record(poh=1.0, read=SECONDS_PER_HOUR * 100, written=0.0)
        assert r.mean_utilization(bandwidth=10.0) == 1.0
        assert r.mean_utilization(bandwidth=200.0) == pytest.approx(0.5)

    def test_utilization_requires_positive_bandwidth(self):
        with pytest.raises(TraceError):
            make_record().mean_utilization(0.0)

    def test_untouched_drive_write_fraction_nan(self):
        r = make_record(read=0.0, written=0.0)
        assert np.isnan(r.write_byte_fraction)

    def test_zero_power_on_rejected(self):
        with pytest.raises(TraceError):
            make_record(poh=0.0)

    def test_negative_counter_rejected(self):
        with pytest.raises(TraceError):
            make_record(read=-1.0)


class TestDriveFamilyDataset:
    def make_family(self, n=4):
        return DriveFamilyDataset(
            [make_record(f"x{i}", poh=100.0 * (i + 1), read=1e10 * (i + 1), written=1e10) for i in range(n)],
            family="fam",
        )

    def test_len_iteration_indexing(self):
        ds = self.make_family(3)
        assert len(ds) == 3
        assert ds[0].drive_id == "x0"
        assert [r.drive_id for r in ds] == ["x0", "x1", "x2"]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(TraceError):
            DriveFamilyDataset([make_record("a"), make_record("a")])

    def test_by_id(self):
        ds = self.make_family()
        assert ds.by_id("x1").power_on_hours == 200.0
        with pytest.raises(KeyError):
            ds.by_id("missing")

    def test_column_views(self):
        ds = self.make_family(2)
        assert ds.power_on_hours().tolist() == [100.0, 200.0]
        assert ds.total_bytes()[0] == pytest.approx(2e10)
        assert ds.mean_throughputs()[0] == pytest.approx(2e10 / (100 * 3600))

    def test_write_byte_fractions(self):
        ds = self.make_family(2)
        assert ds.write_byte_fractions()[0] == pytest.approx(0.5)

    def test_mean_utilizations(self):
        ds = self.make_family(1)
        bw = ds[0].mean_throughput * 2
        assert ds.mean_utilizations(bw)[0] == pytest.approx(0.5)

    def test_repr_mentions_family(self):
        assert "fam" in repr(self.make_family())
