"""Disk arrays: striping, mirroring and imbalance."""

import numpy as np
import pytest

from repro.disk.array import StripedArray, member_imbalance
from repro.errors import DiskModelError
from repro.traces.millisecond import RequestTrace


def make_array(n=4, chunk=64, member_capacity=64 * 1000):
    return StripedArray(n, chunk, member_capacity)


class TestStripedMapping:
    def test_round_robin_chunks(self):
        a = make_array(n=3, chunk=10)
        assert [a.member_of(i * 10) for i in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_member_lba_progression(self):
        a = make_array(n=2, chunk=10)
        # Logical chunk 0 -> member 0 local chunk 0; chunk 2 -> member 0 local chunk 1.
        assert a.member_lba(0) == 0
        assert a.member_lba(20) == 10
        assert a.member_lba(25) == 15  # offset 5 inside the chunk

    def test_logical_capacity(self):
        a = make_array(n=4, chunk=64, member_capacity=6400)
        assert a.logical_capacity_sectors == 4 * 6400

    def test_out_of_range_rejected(self):
        a = make_array()
        with pytest.raises(DiskModelError):
            a.member_of(-1)
        with pytest.raises(DiskModelError):
            a.member_of(a.logical_capacity_sectors)

    def test_invalid_construction_rejected(self):
        with pytest.raises(DiskModelError):
            StripedArray(1, 64, 6400)
        with pytest.raises(DiskModelError):
            StripedArray(2, 0, 6400)
        with pytest.raises(DiskModelError):
            StripedArray(2, 64, 0)
        with pytest.raises(DiskModelError):
            StripedArray(2, 64, 100)  # capacity not whole chunks


class TestStripedSplit:
    def test_small_request_single_member(self):
        a = make_array(n=2, chunk=64)
        trace = RequestTrace([1.0], [10], [8], [True], span=2.0)
        parts = a.split_trace(trace)
        assert len(parts) == 2
        assert len(parts[0]) == 1
        assert len(parts[1]) == 0
        assert parts[0][0].lba == 10
        assert parts[0][0].is_write

    def test_chunk_spanning_request_splits(self):
        a = make_array(n=2, chunk=64)
        trace = RequestTrace([0.5], [60], [8], [False], span=1.0)
        parts = a.split_trace(trace)
        assert len(parts[0]) == 1 and len(parts[1]) == 1
        assert parts[0][0].nsectors == 4   # sectors 60..63 on member 0
        assert parts[1][0].nsectors == 4   # sectors 64..67 -> member 1 local 0..3
        assert parts[1][0].lba == 0
        assert parts[0][0].time == parts[1][0].time == 0.5

    def test_full_stripe_write_merges_wraparound(self):
        # A request covering 2 full stripes on a 2-member array: each
        # member gets ONE merged sub-request of 2 chunks.
        a = make_array(n=2, chunk=10)
        trace = RequestTrace([0.0], [0], [40], [True], span=1.0)
        parts = a.split_trace(trace)
        for part in parts:
            assert len(part) == 1
            assert part[0].nsectors == 20

    def test_bytes_conserved(self):
        rng = np.random.default_rng(170)
        a = make_array(n=4, chunk=64)
        n = 500
        sizes = rng.integers(1, 300, n)
        lbas = rng.integers(0, a.logical_capacity_sectors - 300, n)
        trace = RequestTrace(
            np.sort(rng.uniform(0, 10, n)), lbas, sizes,
            rng.uniform(size=n) < 0.5, span=10.0,
        )
        parts = a.split_trace(trace)
        assert sum(p.total_bytes for p in parts) == trace.total_bytes

    def test_member_requests_within_member_capacity(self):
        rng = np.random.default_rng(171)
        a = make_array(n=3, chunk=32, member_capacity=32 * 100)
        n = 300
        sizes = rng.integers(1, 100, n)
        lbas = rng.integers(0, a.logical_capacity_sectors - 100, n)
        trace = RequestTrace(
            np.sort(rng.uniform(0, 5, n)), lbas, sizes,
            rng.uniform(size=n) < 0.5, span=5.0,
        )
        for part in a.split_trace(trace):
            if len(part):
                assert int((part.lbas + part.nsectors).max()) <= a.member_capacity_sectors

    def test_overflow_rejected(self):
        a = make_array(n=2, chunk=64, member_capacity=640)
        trace = RequestTrace([0.0], [a.logical_capacity_sectors - 4], [8], [False], span=1.0)
        with pytest.raises(DiskModelError):
            a.split_trace(trace)

    def test_uniform_traffic_balances(self):
        rng = np.random.default_rng(172)
        a = make_array(n=4, chunk=64)
        n = 4000
        trace = RequestTrace(
            np.sort(rng.uniform(0, 60, n)),
            rng.integers(0, a.logical_capacity_sectors - 64, n),
            np.full(n, 8), rng.uniform(size=n) < 0.5, span=60.0,
        )
        imbalance = member_imbalance(a.split_trace(trace))
        assert imbalance < 1.15


class TestImbalance:
    def test_even_is_one(self):
        t = RequestTrace([0.0], [0], [8], [False], span=1.0)
        assert member_imbalance([t, t]) == pytest.approx(1.0)

    def test_skewed(self):
        big = RequestTrace([0.0], [0], [80], [False], span=1.0)
        small = RequestTrace([0.0], [0], [8], [False], span=1.0)
        assert member_imbalance([big, small]) == pytest.approx(160 / 88 , rel=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(DiskModelError):
            member_imbalance([])

    def test_all_zero_nan(self):
        t = RequestTrace.empty(span=1.0)
        assert np.isnan(member_imbalance([t, t]))
