"""The Millisecond trace container: a column-store of disk requests.

:class:`RequestTrace` is the workhorse input type of the library. It holds
the four per-request columns of the paper's finest-granularity traces in
parallel numpy arrays, keeps them sorted by arrival time, and offers the
slicing/aggregation operations every analysis in :mod:`repro.core` builds
on.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from repro.errors import TraceError
from repro.traces.request import DiskRequest
from repro.units import SECTOR_BYTES

#: The columnar request layout: one structured row per request, built once
#: per replay and consumed by the simulator's columnar loop. ``flags`` is
#: a reserved per-request byte, zero for now.
REQUEST_DTYPE = np.dtype(
    [
        ("time", np.float64),
        ("lba", np.int64),
        ("size", np.int64),
        ("is_write", np.bool_),
        ("flags", np.uint8),
    ]
)


def build_request_columns(
    times: np.ndarray,
    lbas: np.ndarray,
    nsectors: np.ndarray,
    is_write: np.ndarray,
) -> np.ndarray:
    """Pack parallel request arrays into one read-only structured array
    with :data:`REQUEST_DTYPE` — the columnar representation the replay
    engines consume without materializing per-request Python objects."""
    n = len(times)
    columns = np.empty(n, dtype=REQUEST_DTYPE)
    columns["time"] = times
    columns["lba"] = lbas
    columns["size"] = nsectors
    columns["is_write"] = is_write
    columns["flags"] = 0
    columns.setflags(write=False)
    return columns


class RequestTrace:
    """An immutable, time-sorted sequence of disk requests.

    Parameters
    ----------
    times:
        Arrival times in seconds, non-decreasing, all ``>= 0``.
    lbas:
        Starting LBAs in sectors, all ``>= 0``.
    nsectors:
        Transfer lengths in sectors, all ``> 0``.
    is_write:
        Boolean direction flags (``True`` = write).
    span:
        Observation window length in seconds. Defaults to the last arrival
        time; pass it explicitly when the capture window extends past the
        final request (it usually does), because utilization and idleness
        depend on the true window, not on when the last request happened
        to arrive.
    label:
        Free-form workload name carried through analyses and reports.
    capacity_sectors:
        Capacity of the drive the trace addresses, in sectors, when
        known (synthesized traces and trace files with a ``capacity``
        header carry it). When given, every request must fit within it;
        ``None`` means unknown, and no addressing check is applied.

    The constructor copies and validates its inputs — non-finite times
    and spans (NaN/inf) are rejected outright rather than silently
    corrupting downstream windowing; instances never mutate, so views
    returned by the filtering methods are safe to share.
    """

    def __init__(
        self,
        times: Sequence[float],
        lbas: Sequence[int],
        nsectors: Sequence[int],
        is_write: Sequence[bool],
        span: Optional[float] = None,
        label: str = "trace",
        capacity_sectors: Optional[int] = None,
    ) -> None:
        self._times = np.asarray(times, dtype=np.float64).copy()
        self._lbas = np.asarray(lbas, dtype=np.int64).copy()
        self._nsectors = np.asarray(nsectors, dtype=np.int64).copy()
        self._is_write = np.asarray(is_write, dtype=bool).copy()
        self.label = str(label)

        n = self._times.size
        if not (self._lbas.size == self._nsectors.size == self._is_write.size == n):
            raise TraceError(
                "column lengths differ: "
                f"times={n}, lbas={self._lbas.size}, "
                f"nsectors={self._nsectors.size}, is_write={self._is_write.size}"
            )
        if n and not np.all(np.isfinite(self._times)):
            bad = int(np.flatnonzero(~np.isfinite(self._times))[0])
            raise TraceError(
                f"non-finite arrival time {self._times[bad]!r} at index {bad}"
            )
        if n and np.any(np.diff(self._times) < 0):
            order = np.argsort(self._times, kind="stable")
            self._times = self._times[order]
            self._lbas = self._lbas[order]
            self._nsectors = self._nsectors[order]
            self._is_write = self._is_write[order]
        if n and self._times[0] < 0:
            raise TraceError(f"negative arrival time {self._times[0]!r}")
        if np.any(self._lbas < 0):
            raise TraceError("negative LBA in trace")
        if np.any(self._nsectors <= 0):
            raise TraceError("non-positive request length in trace")

        last = float(self._times[-1]) if n else 0.0
        self._span = last if span is None else float(span)
        if not np.isfinite(self._span):
            raise TraceError(f"span must be finite, got {self._span!r}")
        if self._span < last:
            raise TraceError(
                f"span {self._span!r} ends before the last arrival at {last!r}"
            )

        self.capacity_sectors: Optional[int] = (
            None if capacity_sectors is None else int(capacity_sectors)
        )
        if self.capacity_sectors is not None:
            if self.capacity_sectors <= 0:
                raise TraceError(
                    f"capacity_sectors must be > 0, got {capacity_sectors!r}"
                )
            if n:
                ends = self._lbas + self._nsectors
                worst = int(np.argmax(ends))
                if int(ends[worst]) > self.capacity_sectors:
                    raise TraceError(
                        f"request [{int(self._lbas[worst])}, {int(ends[worst])}) "
                        f"exceeds capacity {self.capacity_sectors} sectors"
                    )
        for column in (self._times, self._lbas, self._nsectors, self._is_write):
            column.setflags(write=False)
        self._columns: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls, span: float = 0.0, label: str = "trace") -> "RequestTrace":
        """An empty trace covering ``span`` seconds (all idle)."""
        return cls([], [], [], [], span=span, label=label)

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------

    @property
    def times(self) -> np.ndarray:
        """Arrival times in seconds (read-only, non-decreasing)."""
        return self._times

    @property
    def lbas(self) -> np.ndarray:
        """Starting LBAs in sectors (read-only)."""
        return self._lbas

    @property
    def nsectors(self) -> np.ndarray:
        """Transfer lengths in sectors (read-only)."""
        return self._nsectors

    @property
    def is_write(self) -> np.ndarray:
        """Direction flags, ``True`` = write (read-only)."""
        return self._is_write

    @property
    def nbytes(self) -> np.ndarray:
        """Per-request transfer sizes in bytes."""
        return self._nsectors * SECTOR_BYTES

    def columns(self) -> np.ndarray:
        """The trace as one read-only :data:`REQUEST_DTYPE` structured
        array, built on first use and memoized (the trace is immutable,
        so every replay of the same trace shares one build)."""
        if self._columns is None:
            self._columns = build_request_columns(
                self._times, self._lbas, self._nsectors, self._is_write
            )
        return self._columns

    # ------------------------------------------------------------------
    # Basic shape
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return int(self._times.size)

    def __iter__(self) -> Iterator[DiskRequest]:
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, index: int) -> DiskRequest:
        i = int(index)
        return DiskRequest(
            time=float(self._times[i]),
            lba=int(self._lbas[i]),
            nsectors=int(self._nsectors[i]),
            is_write=bool(self._is_write[i]),
        )

    def __repr__(self) -> str:
        return (
            f"RequestTrace(label={self.label!r}, n={len(self)}, "
            f"span={self._span:.3f}s)"
        )

    @property
    def span(self) -> float:
        """Observation window length in seconds."""
        return self._span

    @property
    def request_rate(self) -> float:
        """Mean arrival rate in requests/second (0 for an empty window)."""
        return len(self) / self._span if self._span > 0 else 0.0

    @property
    def byte_rate(self) -> float:
        """Mean transferred bytes/second over the window."""
        if self._span <= 0:
            return 0.0
        return float(self.nbytes.sum()) / self._span

    @property
    def total_bytes(self) -> int:
        """Total bytes transferred (reads + writes)."""
        return int(self.nbytes.sum())

    @property
    def write_fraction(self) -> float:
        """Fraction of *requests* that are writes (NaN for an empty trace)."""
        if not len(self):
            return float("nan")
        return float(self._is_write.mean())

    @property
    def write_byte_fraction(self) -> float:
        """Fraction of transferred *bytes* that are writes."""
        total = self.nbytes.sum()
        if total == 0:
            return float("nan")
        return float(self.nbytes[self._is_write].sum() / total)

    def interarrival_times(self) -> np.ndarray:
        """Gaps between consecutive arrivals in seconds (length ``n - 1``)."""
        return np.diff(self._times)

    # ------------------------------------------------------------------
    # Filtering and slicing
    # ------------------------------------------------------------------

    @staticmethod
    def _merged_capacity(traces: Sequence["RequestTrace"]) -> Optional[int]:
        """Combined capacity metadata: the maximum when every trace knows
        its capacity, ``None`` (unknown) as soon as one does not."""
        capacities = [t.capacity_sectors for t in traces]
        if any(c is None for c in capacities):
            return None
        return max(capacities) if capacities else None

    def _select(self, mask: np.ndarray, label: str, span: float) -> "RequestTrace":
        return RequestTrace(
            times=self._times[mask],
            lbas=self._lbas[mask],
            nsectors=self._nsectors[mask],
            is_write=self._is_write[mask],
            span=span,
            label=label,
            capacity_sectors=self.capacity_sectors,
        )

    def reads(self) -> "RequestTrace":
        """The read-only sub-trace, preserving the full observation span."""
        return self._select(~self._is_write, f"{self.label}:reads", self._span)

    def writes(self) -> "RequestTrace":
        """The write-only sub-trace, preserving the full observation span."""
        return self._select(self._is_write, f"{self.label}:writes", self._span)

    def slice_time(self, start: float, end: float, rebase: bool = True) -> "RequestTrace":
        """Requests arriving in ``[start, end)``.

        With ``rebase`` (the default) arrival times are shifted so the
        slice starts at 0 and its span is ``end - start``, making the
        result a self-contained trace; without it the original timestamps
        and span endpoint are preserved.
        """
        if end < start:
            raise TraceError(f"slice end {end!r} precedes start {start!r}")
        mask = (self._times >= start) & (self._times < end)
        times = self._times[mask]
        if rebase:
            times = times - start
            span = end - start
        else:
            span = min(end, self._span)
        return RequestTrace(
            times=times,
            lbas=self._lbas[mask],
            nsectors=self._nsectors[mask],
            is_write=self._is_write[mask],
            span=span,
            label=f"{self.label}[{start:g},{end:g})",
            capacity_sectors=self.capacity_sectors,
        )

    def concat(self, other: "RequestTrace", gap: float = 0.0) -> "RequestTrace":
        """Append ``other`` after this trace, separated by ``gap`` seconds.

        The second trace's clock is rebased to start at ``self.span + gap``.
        """
        if gap < 0:
            raise TraceError(f"gap must be >= 0, got {gap!r}")
        offset = self._span + gap
        return RequestTrace(
            times=np.concatenate([self._times, other._times + offset]),
            lbas=np.concatenate([self._lbas, other._lbas]),
            nsectors=np.concatenate([self._nsectors, other._nsectors]),
            is_write=np.concatenate([self._is_write, other._is_write]),
            span=offset + other._span,
            label=self.label,
            capacity_sectors=self._merged_capacity([self, other]),
        )

    @staticmethod
    def merge(traces: Sequence["RequestTrace"], label: str = "merged") -> "RequestTrace":
        """Interleave several traces that share one clock (e.g. per-source
        streams aimed at the same drive). The span is the maximum span."""
        if not traces:
            return RequestTrace.empty(label=label)
        return RequestTrace(
            times=np.concatenate([t._times for t in traces]),
            lbas=np.concatenate([t._lbas for t in traces]),
            nsectors=np.concatenate([t._nsectors for t in traces]),
            is_write=np.concatenate([t._is_write for t in traces]),
            span=max(t._span for t in traces),
            label=label,
            capacity_sectors=RequestTrace._merged_capacity(traces),
        )

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def counts(self, scale: float) -> np.ndarray:
        """Arrival counts per ``scale``-second bin across the whole span.

        This is the basic operation behind the paper's "burstiness across
        time scales" analysis: the same trace viewed at coarser and
        coarser ``scale`` values.
        """
        from repro.traces.window import bin_counts

        return bin_counts(self._times, scale, self._span)

    def byte_series(self, scale: float) -> np.ndarray:
        """Bytes transferred per ``scale``-second bin across the span."""
        from repro.traces.window import bin_sums

        return bin_sums(self._times, self.nbytes.astype(np.float64), scale, self._span)

    def sequentiality(self) -> float:
        """Fraction of requests that start exactly where the previous
        request (in arrival order) ended — the standard disk-level
        sequentiality measure. NaN for traces with < 2 requests."""
        if len(self) < 2:
            return float("nan")
        prev_end = self._lbas[:-1] + self._nsectors[:-1]
        return float(np.mean(self._lbas[1:] == prev_end))
