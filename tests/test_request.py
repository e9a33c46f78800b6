"""DiskRequest: the single-record type of the Millisecond traces."""

import pytest

from repro.errors import TraceError
from repro.traces.request import DiskRequest


def test_basic_fields():
    r = DiskRequest(time=1.5, lba=100, nsectors=8, is_write=True)
    assert r.time == 1.5
    assert r.lba == 100
    assert r.nsectors == 8
    assert r.is_write


def test_nbytes_uses_sector_size():
    assert DiskRequest(0.0, 0, 8, False).nbytes == 4096


def test_op_string():
    assert DiskRequest(0.0, 0, 1, True).op == "W"
    assert DiskRequest(0.0, 0, 1, False).op == "R"


def test_str_mentions_direction_and_lba():
    text = str(DiskRequest(0.5, 42, 8, True))
    assert "W" in text and "42" in text


def test_negative_time_rejected():
    with pytest.raises(TraceError):
        DiskRequest(-0.1, 0, 1, False)


def test_negative_lba_rejected():
    with pytest.raises(TraceError):
        DiskRequest(0.0, -1, 1, False)


@pytest.mark.parametrize("n", [0, -5])
def test_nonpositive_length_rejected(n):
    with pytest.raises(TraceError):
        DiskRequest(0.0, 0, n, False)


def test_ordering_is_by_time_first():
    early = DiskRequest(1.0, 999, 8, True)
    late = DiskRequest(2.0, 0, 1, False)
    assert early < late
    assert sorted([late, early])[0] is early


def test_frozen():
    r = DiskRequest(0.0, 0, 1, False)
    with pytest.raises(AttributeError):
        r.time = 5.0
