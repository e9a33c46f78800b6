"""Property-based tests on the busy/idle timeline and the simulator."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.disk.simulator import DiskSimulator
from repro.disk.timeline import BusyIdleTimeline
from repro.errors import SimulationError
from repro.traces.millisecond import RequestTrace

SPAN = 100.0


@st.composite
def interval_sets(draw):
    n = draw(st.integers(0, 40))
    pairs = []
    for _ in range(n):
        a = draw(st.floats(min_value=0.0, max_value=SPAN - 0.01))
        length = draw(st.floats(min_value=0.0, max_value=SPAN - a))
        pairs.append((a, a + length))
    return pairs


@given(interval_sets())
def test_busy_plus_idle_equals_span(intervals):
    t = BusyIdleTimeline(intervals, span=SPAN)
    assert np.isclose(t.total_busy + t.total_idle, SPAN)
    assert np.isclose(t.busy_periods().sum(), t.total_busy)
    assert np.isclose(t.idle_periods().sum(), t.total_idle)


@given(interval_sets())
def test_merged_intervals_disjoint_and_sorted(intervals):
    t = BusyIdleTimeline(intervals, span=SPAN)
    assert np.all(np.diff(t.starts) > 0) if t.n_busy_periods > 1 else True
    assert np.all(t.ends[:-1] < t.starts[1:]) if t.n_busy_periods > 1 else True
    assert np.all(t.ends > t.starts) if t.n_busy_periods else True


@given(interval_sets())
def test_busy_time_before_monotone_bounded(intervals):
    t = BusyIdleTimeline(intervals, span=SPAN)
    queries = np.linspace(0, SPAN, 41)
    values = t.busy_time_before(queries)
    assert np.all(np.diff(values) >= -1e-9)
    assert values[0] == 0.0
    assert np.isclose(values[-1], t.total_busy)


@given(interval_sets(), st.floats(min_value=0.5, max_value=50.0))
def test_utilization_series_mean_matches_overall(intervals, scale):
    t = BusyIdleTimeline(intervals, span=SPAN)
    series = t.utilization_series(scale)
    # Weight by true window lengths (last window may be short).
    edges = np.minimum(np.arange(series.size + 1) * scale, SPAN)
    widths = np.diff(edges)
    weighted = (series * widths).sum() / SPAN
    assert np.isclose(weighted, t.utilization, atol=1e-9)


def _reference_merge(intervals, span):
    """The tuple-sorting merge loop the timeline once ran, kept verbatim
    as the oracle for the vectorized constructor."""
    pairs = sorted((float(s), float(e)) for s, e in intervals)
    merged_starts = []
    merged_ends = []
    for start, end in pairs:
        if end < start:
            raise SimulationError(f"interval end {end!r} precedes start {start!r}")
        if start < 0 or end > span + 1e-9:
            raise SimulationError(
                f"interval [{start}, {end}] outside window [0, {span}]"
            )
        if start == end:
            continue  # zero-length intervals carry no busy time
        if merged_ends and start <= merged_ends[-1]:
            merged_ends[-1] = max(merged_ends[-1], end)
        else:
            merged_starts.append(start)
            merged_ends.append(end)
    starts = np.asarray(merged_starts, dtype=np.float64)
    ends = np.minimum(np.asarray(merged_ends, dtype=np.float64), span)
    return starts, ends


def _reference_idle_periods(starts, ends, span):
    """The gap loop the timeline once ran for ``idle_periods``."""
    if starts.size == 0:
        return np.array([span]) if span > 0 else np.zeros(0)
    gaps = starts[1:] - ends[:-1]
    pieces = [gaps]
    if starts[0] > 0:
        pieces.insert(0, np.array([starts[0]]))
    if ends[-1] < span:
        pieces.append(np.array([span - ends[-1]]))
    idle = np.concatenate(pieces) if pieces else np.zeros(0)
    return idle[idle > 0]


def _reference_idle_intervals(starts, ends, span, min_length):
    """The second gap loop the timeline once ran, for ``idle_intervals``."""
    if starts.size == 0:
        if span > 0 and span >= min_length:
            return np.array([[0.0, span]])
        return np.zeros((0, 2))
    pairs = []
    if starts[0] > 0:
        pairs.append((0.0, float(starts[0])))
    for i in range(starts.size - 1):
        gap_start = float(ends[i])
        gap_end = float(starts[i + 1])
        if gap_end > gap_start:
            pairs.append((gap_start, gap_end))
    if ends[-1] < span:
        pairs.append((float(ends[-1]), span))
    if min_length > 0:
        pairs = [(s, e) for s, e in pairs if e - s >= min_length]
    return np.array(pairs) if pairs else np.zeros((0, 2))


@st.composite
def messy_interval_sets(draw):
    """Unsorted, overlapping, abutting, duplicated and zero-length
    intervals on a coarse grid (so ties are common), sometimes with one
    invalid interval mixed in."""
    grid = st.integers(0, int(SPAN * 4)).map(lambda k: k * 0.25)
    lengths = st.integers(0, 40).map(lambda k: k * 0.25)
    pairs = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["any", "zero", "dup", "abut"]))
        if kind == "dup" and pairs:
            pairs.append(draw(st.sampled_from(pairs)))
        elif kind == "abut" and pairs:
            start = draw(st.sampled_from(pairs))[1]
            pairs.append((start, min(start + draw(lengths), SPAN)))
        else:
            start = draw(grid)
            length = 0.0 if kind == "zero" else draw(lengths)
            pairs.append((start, min(start + length, SPAN)))
    bad = draw(st.sampled_from([None, "reversed", "negative", "past_span"]))
    if bad is not None:
        a, b = draw(lengths), draw(lengths)
        pairs.insert(
            draw(st.integers(0, len(pairs))),
            {
                "reversed": (a + b + 0.5, a),
                "negative": (-0.5 - a, b),
                "past_span": (a, SPAN + 0.5 + b),
            }[bad],
        )
    return pairs


@settings(max_examples=300, deadline=None)
@given(messy_interval_sets())
@example([])
@example([(3.0, 3.0), (0.0, 0.0), (SPAN, SPAN)])
@example([(2.0, 2.0 + 0.25 * k) for k in range(25)])
@example([(SPAN - 5.0, SPAN), (0.0, 1.0), (SPAN, SPAN + 5e-10)])
def test_vectorized_merge_matches_reference_loop(intervals):
    try:
        want_starts, want_ends = _reference_merge(intervals, SPAN)
    except SimulationError as exc:
        with pytest.raises(SimulationError) as got:
            BusyIdleTimeline(intervals, span=SPAN)
        assert str(got.value) == str(exc)
        return
    t = BusyIdleTimeline(intervals, span=SPAN)
    assert np.array_equal(t.starts, want_starts)
    assert np.array_equal(t.ends, want_ends)
    assert np.array_equal(
        t.idle_periods(), _reference_idle_periods(want_starts, want_ends, SPAN)
    )
    for min_length in (0.0, 0.5, 3.0):
        assert np.array_equal(
            t.idle_intervals(min_length),
            _reference_idle_intervals(want_starts, want_ends, SPAN, min_length),
        )


@st.composite
def small_traces(draw):
    n = draw(st.integers(1, 25))
    times = sorted(
        draw(st.lists(st.floats(0.0, 5.0, allow_nan=False), min_size=n, max_size=n))
    )
    lbas = draw(st.lists(st.integers(0, 900_000), min_size=n, max_size=n))
    sizes = draw(st.lists(st.integers(1, 64), min_size=n, max_size=n))
    writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return RequestTrace(times, lbas, sizes, writes, span=6.0)


@settings(deadline=None, max_examples=30)
@given(small_traces(), st.sampled_from(["fcfs", "sstf", "scan"]))
def test_simulation_invariants_for_any_trace(tiny_spec, trace, scheduler):
    result = DiskSimulator(tiny_spec, scheduler=scheduler, seed=1).run(trace)
    # Work conservation: every request serviced, after its arrival.
    assert np.all(result.start_times >= trace.times - 1e-12)
    assert np.all(result.service_times > 0)
    # No overlap: sort by start, finishes precede next starts.
    order = np.argsort(result.start_times, kind="stable")
    starts, finishes = result.start_times[order], result.finish_times[order]
    assert np.all(starts[1:] >= finishes[:-1] - 1e-9)
    # Busy time equals summed service time.
    assert np.isclose(result.timeline.total_busy, result.service_times.sum())
