"""The busy/idle timeline: the ground truth behind utilization and
idleness analyses.

A single-server disk alternates between busy intervals (servicing one
request after another) and idle intervals. :class:`BusyIdleTimeline`
stores the merged busy intervals over an observation window and derives
everything the paper reports about them: overall and windowed
utilization, busy-period lengths, and idle-interval lengths.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError

_SHAPE_CONTRACT = "intervals must be an (n, 2) array of (start, end) pairs"


class BusyIdleTimeline:
    """Merged busy intervals over ``[0, span]``.

    Parameters
    ----------
    intervals:
        An ``(n, 2)`` array-like of finite ``(start, end)`` pairs with
        ``0 <= start <= end``; they may abut or overlap (they are merged)
        but are typically the back-to-back service intervals a
        single-server simulation produces. Zero-length intervals are
        dropped.
    span:
        Observation window length; must cover every interval.
    """

    def __init__(self, intervals: np.typing.ArrayLike, span: float) -> None:
        if span < 0:
            raise SimulationError(f"span must be >= 0, got {span!r}")
        self.span = float(span)
        try:
            pairs = np.asarray(intervals, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise SimulationError(f"{_SHAPE_CONTRACT}: {exc}") from None
        if pairs.shape == (0,):
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise SimulationError(f"{_SHAPE_CONTRACT}, got shape {pairs.shape}")
        finite = np.isfinite(pairs).all(axis=1)
        if not finite.all():
            start, end = pairs[finite.argmin()].tolist()
            raise SimulationError(f"interval [{start}, {end}] is not finite")
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        starts, ends = pairs[order, 0], pairs[order, 1]
        bad = (ends < starts) | (starts < 0) | (ends > self.span + 1e-9)
        if bad.any():
            i = bad.argmax()
            start, end = float(starts[i]), float(ends[i])
            if end < start:
                raise SimulationError(f"interval end {end!r} precedes start {start!r}")
            raise SimulationError(
                f"interval [{start}, {end}] outside window [0, {self.span}]"
            )
        # Zero-length intervals carry no busy time. A busy period starts
        # wherever an interval begins after every earlier one has ended.
        busy = ends > starts
        starts, ends = starts[busy], ends[busy]
        new_period = starts[1:] > np.maximum.accumulate(ends)[:-1]
        first = np.flatnonzero(np.concatenate(([starts.size > 0], new_period)))
        self._starts = starts[first]
        self._ends = np.minimum(np.maximum.reduceat(ends, first), self.span)
        self._starts.setflags(write=False)
        self._ends.setflags(write=False)

    # ------------------------------------------------------------------

    @property
    def starts(self) -> np.ndarray:
        """Merged busy-interval start times (read-only, sorted)."""
        return self._starts

    @property
    def ends(self) -> np.ndarray:
        """Merged busy-interval end times (read-only, sorted)."""
        return self._ends

    @property
    def n_busy_periods(self) -> int:
        """Number of maximal busy periods."""
        return int(self._starts.size)

    def busy_periods(self) -> np.ndarray:
        """Lengths of the maximal busy periods, seconds."""
        return self._ends - self._starts

    def idle_periods(self) -> np.ndarray:
        """Lengths of the idle intervals, seconds, including the leading
        interval before the first busy period and the trailing interval
        after the last one (when non-empty)."""
        gaps = self.idle_intervals()
        return gaps[:, 1] - gaps[:, 0]

    def idle_intervals(self, min_length: float = 0.0) -> np.ndarray:
        """The idle intervals as an ``(n, 2)`` array of ``(start, end)``
        pairs in time order, including the leading and trailing intervals
        (positions, where :meth:`idle_periods` gives only lengths).

        ``min_length`` drops intervals shorter than the given number of
        seconds — background-work planners only care about intervals a
        chunk (plus setup) can fit into.
        """
        if min_length < 0:
            raise SimulationError(f"min_length must be >= 0, got {min_length!r}")
        gap_starts = np.concatenate(([0.0], self._ends))
        gap_ends = np.concatenate((self._starts, [self.span]))
        keep = (gap_ends > gap_starts) & (gap_ends - gap_starts >= min_length)
        return np.column_stack((gap_starts[keep], gap_ends[keep]))

    @property
    def total_busy(self) -> float:
        """Total busy time, seconds."""
        return float(np.sum(self._ends - self._starts))

    @property
    def total_idle(self) -> float:
        """Total idle time, seconds."""
        return self.span - self.total_busy

    @property
    def utilization(self) -> float:
        """Busy fraction of the window (NaN for a zero-length window)."""
        if self.span == 0:
            return float("nan")
        return self.total_busy / self.span

    # ------------------------------------------------------------------

    def busy_time_before(self, t: np.ndarray) -> np.ndarray:
        """Cumulative busy time in ``[0, t]`` for each ``t`` (vectorized).

        This is the integral of the busy indicator, computed in
        O((n + m) log n) from the merged intervals.
        """
        t = np.asarray(t, dtype=np.float64)
        if self.n_busy_periods == 0:
            return np.zeros_like(t)
        lengths = self._ends - self._starts
        cumulative = np.concatenate([[0.0], np.cumsum(lengths)])
        complete = np.searchsorted(self._ends, t, side="right")
        result = cumulative[complete]
        partial_index = np.minimum(complete, self.n_busy_periods - 1)
        in_partial = (complete < self.n_busy_periods) & (
            t > self._starts[partial_index]
        )
        return result + np.where(in_partial, t - self._starts[partial_index], 0.0)

    def utilization_series(self, scale: float) -> np.ndarray:
        """Busy fraction per ``scale``-second window across the span.

        The final window may be truncated by the span's end; its
        utilization is normalized by its true (shorter) length.
        """
        if scale <= 0:
            raise SimulationError(f"scale must be > 0, got {scale!r}")
        if self.span == 0:
            return np.zeros(0)
        nbins = int(np.ceil(self.span / scale))
        edges = np.minimum(np.arange(nbins + 1) * scale, self.span)
        busy_at_edges = self.busy_time_before(edges)
        widths = np.diff(edges)
        with np.errstate(invalid="ignore", divide="ignore"):
            series = np.diff(busy_at_edges) / widths
        return np.clip(np.nan_to_num(series, nan=0.0), 0.0, 1.0)

    def __repr__(self) -> str:
        return (
            f"BusyIdleTimeline(span={self.span:.3f}s, "
            f"busy_periods={self.n_busy_periods}, "
            f"utilization={self.utilization:.4f})"
        )
