"""RequestTrace: the millisecond-trace column store."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.traces.millisecond import RequestTrace


def make_trace(**kwargs):
    defaults = dict(
        times=[0.0, 1.0, 2.0, 3.0],
        lbas=[0, 100, 108, 50],
        nsectors=[8, 8, 8, 16],
        is_write=[False, True, True, False],
        span=10.0,
        label="t",
    )
    defaults.update(kwargs)
    return RequestTrace(**defaults)


def test_len_and_columns():
    t = make_trace()
    assert len(t) == 4
    assert t.times.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert t.lbas.tolist() == [0, 100, 108, 50]
    assert t.nsectors.tolist() == [8, 8, 8, 16]
    assert t.is_write.tolist() == [False, True, True, False]


def test_columns_are_readonly():
    t = make_trace()
    with pytest.raises(ValueError):
        t.times[0] = 5.0


def test_unsorted_input_is_sorted_stably():
    t = RequestTrace(
        times=[2.0, 0.0, 1.0],
        lbas=[3, 1, 2],
        nsectors=[1, 1, 1],
        is_write=[True, False, False],
    )
    assert t.times.tolist() == [0.0, 1.0, 2.0]
    assert t.lbas.tolist() == [1, 2, 3]


def test_mismatched_columns_rejected():
    with pytest.raises(TraceError):
        RequestTrace(times=[0.0], lbas=[0, 1], nsectors=[1], is_write=[False])


def test_negative_time_rejected():
    with pytest.raises(TraceError):
        RequestTrace(times=[-1.0], lbas=[0], nsectors=[1], is_write=[False])


def test_negative_lba_rejected():
    with pytest.raises(TraceError):
        RequestTrace(times=[0.0], lbas=[-1], nsectors=[1], is_write=[False])


def test_zero_length_request_rejected():
    with pytest.raises(TraceError):
        RequestTrace(times=[0.0], lbas=[0], nsectors=[0], is_write=[False])


def test_span_defaults_to_last_arrival():
    t = RequestTrace(times=[0.0, 5.0], lbas=[0, 0], nsectors=[1, 1], is_write=[0, 0])
    assert t.span == 5.0


def test_span_cannot_truncate_trace():
    with pytest.raises(TraceError):
        make_trace(span=2.0)


def test_rates():
    t = make_trace()
    assert t.request_rate == pytest.approx(0.4)
    assert t.byte_rate == pytest.approx((8 + 8 + 8 + 16) * 512 / 10.0)
    assert t.total_bytes == (8 + 8 + 8 + 16) * 512


def test_write_fractions():
    t = make_trace()
    assert t.write_fraction == pytest.approx(0.5)
    assert t.write_byte_fraction == pytest.approx(16 / 40)


def test_empty_trace():
    t = RequestTrace.empty(span=5.0, label="nothing")
    assert len(t) == 0
    assert t.span == 5.0
    assert t.request_rate == 0.0
    assert np.isnan(t.write_fraction)


def test_iteration_yields_requests_in_order():
    t = make_trace()
    times = [r.time for r in t]
    assert times == sorted(times)


def test_interarrival_times():
    assert make_trace().interarrival_times().tolist() == [1.0, 1.0, 1.0]


def test_reads_writes_partition():
    t = make_trace()
    r, w = t.reads(), t.writes()
    assert len(r) + len(w) == len(t)
    assert not r.is_write.any()
    assert w.is_write.all()
    assert r.span == t.span and w.span == t.span


def test_slice_time_rebased():
    t = make_trace()
    s = t.slice_time(1.0, 3.0)
    assert len(s) == 2
    assert s.times.tolist() == [0.0, 1.0]
    assert s.span == 2.0


def test_slice_time_not_rebased():
    t = make_trace()
    s = t.slice_time(1.0, 3.0, rebase=False)
    assert s.times.tolist() == [1.0, 2.0]


def test_slice_time_bad_bounds():
    with pytest.raises(TraceError):
        make_trace().slice_time(3.0, 1.0)


def test_concat_shifts_second_trace():
    a = make_trace()
    b = make_trace()
    c = a.concat(b, gap=5.0)
    assert len(c) == 8
    assert c.span == pytest.approx(25.0)
    assert c.times[4] == pytest.approx(15.0)


def test_concat_negative_gap_rejected():
    with pytest.raises(TraceError):
        make_trace().concat(make_trace(), gap=-1.0)


def test_merge_interleaves_on_shared_clock():
    a = RequestTrace([0.0, 2.0], [0, 0], [1, 1], [0, 0], span=4.0)
    b = RequestTrace([1.0, 3.0], [5, 5], [1, 1], [1, 1], span=6.0)
    m = RequestTrace.merge([a, b])
    assert m.times.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert m.span == 6.0


def test_merge_empty_list():
    assert len(RequestTrace.merge([])) == 0


def test_counts_cover_span():
    t = make_trace()
    counts = t.counts(1.0)
    assert counts.sum() == len(t)
    assert counts.size == 10


def test_byte_series_conserves_bytes():
    t = make_trace()
    assert t.byte_series(2.0).sum() == pytest.approx(t.total_bytes)


def test_sequentiality_detects_contiguous():
    # request 2 (lba 108) starts exactly where request 1 (100 + 8) ended
    assert make_trace().sequentiality() == pytest.approx(1 / 3)


def test_sequentiality_nan_for_tiny_trace():
    t = RequestTrace([0.0], [0], [1], [False])
    assert np.isnan(t.sequentiality())


def test_repr_contains_label():
    assert "t" in repr(make_trace())


def test_nan_time_rejected_explicitly():
    with pytest.raises(TraceError, match="finite"):
        RequestTrace(times=[float("nan")], lbas=[0], nsectors=[1], is_write=[False])


def test_inf_time_rejected_explicitly():
    with pytest.raises(TraceError, match="finite"):
        RequestTrace(times=[float("inf")], lbas=[0], nsectors=[1], is_write=[False])


def test_inf_span_rejected():
    with pytest.raises(TraceError, match="finite"):
        make_trace(span=float("inf"))


class TestCapacityBound:
    def test_requests_within_capacity_accepted(self):
        t = make_trace(capacity_sectors=200)
        assert t.capacity_sectors == 200

    def test_request_past_capacity_rejected(self):
        # Request [108, 116) needs at least 116 sectors.
        with pytest.raises(TraceError):
            make_trace(capacity_sectors=110)

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(TraceError):
            make_trace(capacity_sectors=0)

    def test_capacity_survives_selection_and_slicing(self):
        t = make_trace(capacity_sectors=200)
        assert t.reads().capacity_sectors == 200
        assert t.writes().capacity_sectors == 200
        assert t.slice_time(1.0, 3.0).capacity_sectors == 200

    def test_concat_keeps_larger_capacity(self):
        a = make_trace(capacity_sectors=200)
        b = make_trace(capacity_sectors=300)
        assert a.concat(b, gap=1.0).capacity_sectors == 300

    def test_concat_with_unknown_capacity_drops_it(self):
        a = make_trace(capacity_sectors=200)
        b = make_trace()
        assert a.concat(b, gap=1.0).capacity_sectors is None

    def test_merge_keeps_larger_capacity(self):
        a = make_trace(capacity_sectors=200)
        b = make_trace(capacity_sectors=500)
        assert RequestTrace.merge([a, b]).capacity_sectors == 500
