"""Property-based tests for the extension modules (hypothesis)."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.disk.array import StripedArray, MirroredPair
from repro.disk.power import PowerProfile, evaluate_spin_down
from repro.disk.timeline import BusyIdleTimeline
from repro.core.background import BackgroundTask, run_in_idle
from repro.traces.millisecond import RequestTrace
from repro.traces.ops import jitter, thin, time_scale

SPAN = 50.0


@st.composite
def traces(draw, capacity=100_000):
    n = draw(st.integers(1, 60))
    times = sorted(draw(st.lists(
        st.floats(0.0, SPAN - 0.01, allow_nan=False), min_size=n, max_size=n)))
    sizes = draw(st.lists(st.integers(1, 64), min_size=n, max_size=n))
    lbas = [
        draw(st.integers(0, capacity - s)) for s in sizes
    ]
    writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return RequestTrace(times, lbas, sizes, writes, span=SPAN)


@st.composite
def interval_sets(draw):
    n = draw(st.integers(0, 25))
    pairs = []
    for _ in range(n):
        a = draw(st.floats(0.0, SPAN - 0.01))
        length = draw(st.floats(0.0, SPAN - a))
        pairs.append((a, a + length))
    return pairs


@settings(deadline=None, max_examples=40)
@given(traces(), st.integers(2, 6), st.sampled_from([8, 64, 256]))
def test_striping_conserves_everything(trace, n_members, chunk):
    member_capacity = ((100_000 // chunk) + 1) * chunk
    array = StripedArray(n_members, chunk, member_capacity)
    parts = array.split_trace(trace)
    assert len(parts) == n_members
    assert sum(p.total_bytes for p in parts) == trace.total_bytes
    # Sub-request counts >= logical (splitting never merges across requests
    # at different times) and every sub-request fits its member.
    assert sum(len(p) for p in parts) >= len(trace)
    for p in parts:
        if len(p):
            assert int((p.lbas + p.nsectors).max()) <= member_capacity
            assert p.span == trace.span


@settings(deadline=None, max_examples=40)
@given(traces())
def test_mirroring_conserves_writes_and_balances_reads(trace):
    mirror = MirroredPair(100_000)
    a, b = mirror.split_trace(trace)
    n_writes = int(trace.is_write.sum())
    n_reads = len(trace) - n_writes
    assert len(a) + len(b) == 2 * n_writes + n_reads
    # Read counts differ by at most one (round-robin).
    reads_a = len(a) - int(a.is_write.sum())
    reads_b = len(b) - int(b.is_write.sum())
    assert abs(reads_a - reads_b) <= 1


@settings(deadline=None, max_examples=50)
@given(interval_sets(), st.floats(0.0, 30.0))
def test_spin_down_energy_bounded(intervals, timeout):
    timeline = BusyIdleTimeline(intervals, span=SPAN)
    power = PowerProfile()
    report = evaluate_spin_down(timeline, power, timeout)
    # Energy is bounded below by the all-standby floor and above by
    # baseline plus the spin-up overheads actually incurred.
    floor = power.active_watts * timeline.total_busy + (
        power.standby_watts * timeline.total_idle
    )
    ceiling = report.baseline_joules + report.spin_downs * power.spinup_energy
    assert floor - 1e-6 <= report.total_joules <= ceiling + 1e-6
    assert report.spin_downs == report.delayed_busy_periods


@settings(deadline=None, max_examples=50)
@given(
    interval_sets(),
    st.floats(0.5, 100.0),
    st.floats(0.01, 5.0),
    st.floats(0.0, 0.5),
)
# Six equal idle gaps: summing 0.01 six times drifts to 0.060000000000000005.
@example([(8.0 * i, 8.0 * i + 1.0) for i in range(6)], 100.0, 1.0, 0.01)
def test_background_work_never_exceeds_idle_or_total(intervals, work, chunk, setup):
    timeline = BusyIdleTimeline(intervals, span=SPAN)
    task = BackgroundTask("t", total_work=work, chunk_seconds=chunk, setup_seconds=setup)
    report = run_in_idle(timeline, task)
    assert 0.0 <= report.completed_work <= min(work, timeline.total_idle) + 1e-9
    assert 0.0 <= report.completion_fraction <= 1.0
    assert report.setup_overhead == report.resumptions * setup
    if report.completion_time is not None:
        assert report.completion_time <= SPAN + 1e-9


@settings(deadline=None, max_examples=40)
@given(traces(), st.floats(0.05, 1.0))
def test_thin_is_subset(trace, p):
    thinned = thin(trace, p, seed=1)
    assert len(thinned) <= len(trace)
    assert thinned.span == trace.span


@settings(deadline=None, max_examples=40)
@given(traces(), st.floats(0.1, 10.0))
def test_time_scale_preserves_counts_and_bytes(trace, factor):
    scaled = time_scale(trace, factor)
    assert len(scaled) == len(trace)
    assert scaled.total_bytes == trace.total_bytes
    assert np.isclose(scaled.span, trace.span * factor)


@settings(deadline=None, max_examples=40)
@given(traces(), st.floats(0.0, 2.0))
def test_jitter_stays_in_window(trace, amount):
    noisy = jitter(trace, amount, seed=2)
    assert len(noisy) == len(trace)
    if len(noisy):
        assert noisy.times.min() >= 0.0
        assert noisy.times.max() <= trace.span
