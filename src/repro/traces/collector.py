"""Online trace collection: the loggers that produce the three data sets.

The paper's three trace granularities exist because drives and hosts log
at different costs. This module implements the logging side:

* :class:`RequestCollector` — the millisecond-granularity tracer:
  buffers request records and can flush to CSV shards so memory stays
  bounded over long captures.
* :class:`CounterLogger` — the in-drive counter logger behind the Hour
  and Lifetime traces: folds each observed request into per-period
  read/write byte counters and cumulative totals, online, in O(1)
  memory per period.

Feeding a :class:`CounterLogger` the same requests as a
:class:`RequestCollector` yields, by construction, consistent
Millisecond / Hour / Lifetime views of one device — the property
experiment T4 checks for the synthetic generators.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.errors import TraceError
from repro.traces.hourly import HourlyTrace
from repro.traces.lifetime import LifetimeRecord
from repro.traces.millisecond import RequestTrace
from repro.traces.request import DiskRequest
from repro.units import SECONDS_PER_HOUR

PathLike = Union[str, Path]


class RequestCollector:
    """Accumulate request records, optionally sharding to disk.

    Parameters
    ----------
    label:
        Label given to produced traces.
    shard_dir:
        When set, :meth:`flush` writes the buffered records to a CSV
        shard in this directory and clears the buffer; :meth:`trace`
        then reloads and merges all shards.
    shard_limit:
        Auto-flush threshold: :meth:`record` flushes once the buffer
        holds this many records (requires ``shard_dir``).
    """

    def __init__(
        self,
        label: str = "collected",
        shard_dir: Optional[PathLike] = None,
        shard_limit: int = 1_000_000,
    ) -> None:
        if shard_limit <= 0:
            raise TraceError(f"shard_limit must be > 0, got {shard_limit!r}")
        self.label = str(label)
        self.shard_dir = Path(shard_dir) if shard_dir is not None else None
        self.shard_limit = int(shard_limit)
        self._buffer: List[DiskRequest] = []
        self._shards: List[Path] = []
        self._last_time = 0.0
        self._count = 0

    def record(self, request: DiskRequest) -> None:
        """Log one request (must not move backwards in time)."""
        if request.time < self._last_time:
            raise TraceError(
                f"request at {request.time} precedes the previous at {self._last_time}"
            )
        self._last_time = request.time
        self._buffer.append(request)
        self._count += 1
        if self.shard_dir is not None and len(self._buffer) >= self.shard_limit:
            self.flush()

    def record_trace(self, trace: RequestTrace) -> None:
        """Log every request of an existing trace (in order)."""
        for request in trace:
            self.record(request)

    @property
    def count(self) -> int:
        """Total requests recorded so far."""
        return self._count

    def flush(self) -> Optional[Path]:
        """Write the buffer to a new shard and clear it; returns the shard
        path (``None`` if nothing was buffered). Requires ``shard_dir``."""
        if self.shard_dir is None:
            raise TraceError("flush requires a shard_dir")
        if not self._buffer:
            return None
        from repro.traces.io import write_request_trace

        self.shard_dir.mkdir(parents=True, exist_ok=True)
        shard = self.shard_dir / f"{self.label}.{len(self._shards):05d}.csv"
        write_request_trace(
            RequestTrace.from_requests(self._buffer, label=self.label), shard
        )
        self._shards.append(shard)
        self._buffer.clear()
        return shard

    def trace(self, span: Optional[float] = None) -> RequestTrace:
        """Everything recorded so far, as one trace (buffer + shards)."""
        from repro.traces.ingest import get_parser

        parser = get_parser("native")
        pieces = [parser.parse(shard) for shard in self._shards]
        if self._buffer:
            pieces.append(RequestTrace.from_requests(self._buffer, label=self.label))
        if not pieces:
            return RequestTrace.empty(span=span or 0.0, label=self.label)
        merged = RequestTrace.merge(pieces, label=self.label)
        if span is not None and span > merged.span:
            merged = RequestTrace(
                merged.times, merged.lbas, merged.nsectors, merged.is_write,
                span=span, label=self.label,
            )
        return merged


class CounterLogger:
    """Per-period and cumulative counters, updated online per request.

    Parameters
    ----------
    drive_id:
        Identifier carried into the produced records.
    period:
        Counter period in seconds (3600 reproduces the Hour traces).
    """

    def __init__(self, drive_id: str = "d0", period: float = SECONDS_PER_HOUR) -> None:
        if period <= 0:
            raise TraceError(f"period must be > 0, got {period!r}")
        self.drive_id = str(drive_id)
        self.period = float(period)
        self._read_bytes: List[float] = []
        self._write_bytes: List[float] = []
        self._total_read = 0.0
        self._total_written = 0.0
        self._last_time = 0.0

    def observe(self, request: DiskRequest) -> None:
        """Fold one request into the counters (time-ordered)."""
        if request.time < self._last_time:
            raise TraceError(
                f"request at {request.time} precedes the previous at {self._last_time}"
            )
        self._last_time = request.time
        index = int(request.time // self.period)
        while len(self._read_bytes) <= index:
            self._read_bytes.append(0.0)
            self._write_bytes.append(0.0)
        if request.is_write:
            self._write_bytes[index] += request.nbytes
            self._total_written += request.nbytes
        else:
            self._read_bytes[index] += request.nbytes
            self._total_read += request.nbytes

    def observe_trace(self, trace: RequestTrace) -> None:
        """Fold a whole trace, then extend the period axis to its span
        so trailing silence is recorded as zero-traffic periods."""
        for request in trace:
            self.observe(request)
        final_index = max(0, int(np.ceil(trace.span / self.period)) - 1)
        while len(self._read_bytes) <= final_index:
            self._read_bytes.append(0.0)
            self._write_bytes.append(0.0)

    @property
    def periods(self) -> int:
        """Number of counter periods opened so far."""
        return len(self._read_bytes)

    def hourly_trace(self) -> HourlyTrace:
        """The per-period counters as an :class:`HourlyTrace`."""
        if not self._read_bytes:
            raise TraceError("no periods observed yet")
        return HourlyTrace(
            drive_id=self.drive_id,
            read_bytes=self._read_bytes,
            write_bytes=self._write_bytes,
        )

    def lifetime_record(self, model: str = "collected") -> LifetimeRecord:
        """The cumulative counters as a :class:`LifetimeRecord` (power-on
        hours = observed periods scaled to hours)."""
        if not self._read_bytes:
            raise TraceError("no periods observed yet")
        hours = self.periods * self.period / SECONDS_PER_HOUR
        return LifetimeRecord(
            drive_id=self.drive_id,
            power_on_hours=max(hours, 1e-9),
            bytes_read=self._total_read,
            bytes_written=self._total_written,
            model=model,
        )
