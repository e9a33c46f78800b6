"""Typed event traces: what happened inside a run, and when.

:class:`EventTrace` is a bounded ring-buffer recorder the instrumented
subsystems emit into: the replay engines record every served request and
every queue-depth change, the drive records seeks, the fault model
records retries and reassignments, and the scrub planner records each
verified region. Events are plain ``(time, kind, source, data)`` rows,
dumpable to JSONL and loadable back, so a *simulated* run becomes a
trace in its own right — :func:`request_trace_from_events` and
:func:`timeline_from_events` rebuild the
:class:`~repro.traces.millisecond.RequestTrace` /
:class:`~repro.disk.timeline.BusyIdleTimeline` views that
:mod:`repro.core.timescales` analyzes, closing the loop the paper drew
between observation and analysis.

Within one run, each emitting source appends in its own clock order, so
per-source event streams are time-ordered (a property test asserts
this); the global buffer interleaves sources in emission order.

Storage is columnar: the ring keeps events as a sequence of *blocks* —
either a list of already-built :class:`TraceEvent` objects (scalar
:meth:`EventTrace.emit`) or a batch of parallel numpy arrays
(:meth:`EventTrace.emit_columns`, the replay engines' bulk path).
:class:`TraceEvent` objects for a column block are rendered only when the
trace is read (``events()``, iteration, ``dump_jsonl``), so recording a
million-request run costs a few array appends instead of a million
object constructions. Capacity accounting is exact: blocks are trimmed
event by event from the oldest end, so ``n_emitted`` / ``n_dropped`` and
the retained window match the old per-object ring exactly.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.errors import ObservabilityError

#: Default ring capacity: enough for every event of a mid-size run.
DEFAULT_EVENT_CAPACITY = 1 << 16


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event.

    Attributes
    ----------
    time:
        Simulation-clock seconds at which the event happened.
    kind:
        The event type (``'serve'``, ``'queue_depth'``, ``'seek_start'``,
        ``'seek_end'``, ``'retry'``, ``'reassignment'``, ``'slow_region'``,
        ``'scrub_chunk'``, ``'write_absorbed'``, ``'cache_hit'``,
        ``'run_end'``, ...).
    source:
        The emitting subsystem (``'sim'``, ``'queue'``, ``'drive'``,
        ``'faults'``, ``'cache'``, ``'scrub'``).
    data:
        Kind-specific payload fields.
    """

    time: float
    kind: str
    source: str
    data: Mapping[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "time": self.time,
            "kind": self.kind,
            "source": self.source,
            "data": dict(self.data),
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "TraceEvent":
        try:
            return cls(
                time=float(record["time"]),
                kind=str(record["kind"]),
                source=str(record["source"]),
                data=dict(record.get("data", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ObservabilityError(f"malformed event record: {exc}") from exc


class _ScalarBlock:
    """A run of individually emitted events; ``start`` marks the dropped
    prefix (compacted away once it dominates the list)."""

    __slots__ = ("items", "start")

    def __init__(self) -> None:
        self.items: List[TraceEvent] = []
        self.start = 0

    def __len__(self) -> int:
        return len(self.items) - self.start

    def drop(self, count: int) -> None:
        self.start += count
        if self.start > 1024 and self.start * 2 >= len(self.items):
            del self.items[: self.start]
            self.start = 0

    def render(self) -> List[TraceEvent]:
        return self.items[self.start:] if self.start else self.items


class _ColumnBlock:
    """One ``emit_columns`` batch: a shared kind/source, a time array and
    parallel payload arrays. :class:`TraceEvent` objects are built only
    in :meth:`render` — ``tolist()`` yields plain Python scalars, so the
    rendered events equal (and JSON-serialize identically to) the ones
    the scalar path would have built."""

    __slots__ = ("kind", "source", "times", "columns", "start")

    def __init__(
        self,
        kind: str,
        source: str,
        times: np.ndarray,
        columns: Dict[str, np.ndarray],
    ) -> None:
        self.kind = kind
        self.source = source
        self.times = times
        self.columns = columns
        self.start = 0

    def __len__(self) -> int:
        return self.times.size - self.start

    def drop(self, count: int) -> None:
        self.start += count

    def render(self) -> List[TraceEvent]:
        start = self.start
        times = (self.times[start:] if start else self.times).tolist()
        payload = [
            (key, (values[start:] if start else values).tolist())
            for key, values in self.columns.items()
        ]
        kind = self.kind
        source = self.source
        return [
            TraceEvent(
                time, kind, source, {key: values[i] for key, values in payload}
            )
            for i, time in enumerate(times)
        ]


class EventTrace:
    """A bounded recorder: keeps the newest ``capacity`` events.

    The ring never blocks an emitting hot path — when full, the oldest
    events are dropped and counted in :attr:`n_dropped`, so the recorder
    degrades by forgetting history rather than by slowing the run.
    """

    def __init__(self, capacity: int = DEFAULT_EVENT_CAPACITY) -> None:
        if capacity < 1:
            raise ObservabilityError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = int(capacity)
        self._blocks: deque = deque()
        self._retained = 0
        self._emitted = 0

    def emit(self, kind: str, time: float, source: str, **data: Any) -> None:
        """Record one event (oldest events fall off a full ring)."""
        blocks = self._blocks
        if blocks and type(blocks[-1]) is _ScalarBlock:
            tail = blocks[-1]
        else:
            tail = _ScalarBlock()
            blocks.append(tail)
        tail.items.append(TraceEvent(float(time), kind, source, data))
        self._emitted += 1
        self._retained += 1
        if self._retained > self.capacity:
            self._trim()

    def emit_columns(
        self, kind: str, source: str, times: Any, **columns: Any
    ) -> None:
        """Record a batch of same-kind events from parallel arrays.

        ``times`` gives each event's clock; every keyword argument is a
        same-length array whose element ``i`` becomes payload field
        ``key`` of event ``i`` (keyword order is preserved in the
        payload). Equivalent to ``emit`` in a loop, at array cost.
        """
        times = np.asarray(times, dtype=np.float64)
        n = times.size
        arrays: Dict[str, np.ndarray] = {}
        for key, values in columns.items():
            arr = np.asarray(values)
            if arr.size != n:
                raise ObservabilityError(
                    f"column {key!r} has {arr.size} values for {n} times"
                )
            arrays[key] = arr
        if n == 0:
            return
        self._blocks.append(_ColumnBlock(kind, source, times, arrays))
        self._emitted += n
        self._retained += n
        if self._retained > self.capacity:
            self._trim()

    def _trim(self) -> None:
        excess = self._retained - self.capacity
        blocks = self._blocks
        while excess > 0:
            block = blocks[0]
            available = len(block)
            if available <= excess:
                blocks.popleft()
                excess -= available
                self._retained -= available
            else:
                block.drop(excess)
                self._retained -= excess
                excess = 0

    @property
    def n_emitted(self) -> int:
        """Events ever emitted, including any since dropped."""
        return self._emitted

    @property
    def n_dropped(self) -> int:
        """Events the ring has forgotten (emitted minus retained)."""
        return self._emitted - self._retained

    def events(self) -> Tuple[TraceEvent, ...]:
        """The retained events in emission order (column blocks are
        rendered to :class:`TraceEvent` objects here, on read)."""
        return tuple(self)

    def clear(self) -> None:
        """Drop every retained event and reset the counters."""
        self._blocks.clear()
        self._retained = 0
        self._emitted = 0

    def __len__(self) -> int:
        return self._retained

    def __iter__(self) -> Iterator[TraceEvent]:
        for block in self._blocks:
            yield from block.render()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def dump_jsonl(self, path: str) -> int:
        """Write the retained events as one JSON object per line.

        Returns the number of events written.
        """
        with open(path, "w") as fh:
            for event in self:
                fh.write(json.dumps(event.as_dict()) + "\n")
        return self._retained

    def __repr__(self) -> str:
        return (
            f"EventTrace(retained={self._retained}, emitted={self._emitted}, "
            f"capacity={self.capacity})"
        )


def load_events_jsonl(path: str) -> List[TraceEvent]:
    """Read an event trace dumped by :meth:`EventTrace.dump_jsonl`.

    Malformed lines raise :class:`~repro.errors.ObservabilityError` with
    the offending ``path:lineno`` rather than silently skipping.
    """
    events: List[TraceEvent] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ObservabilityError(
                    f"{path}:{lineno}: invalid JSON: {exc}"
                ) from exc
            events.append(TraceEvent.from_dict(record))
    return events


EventLike = Union[TraceEvent, Mapping[str, Any]]


def _as_event(event: EventLike) -> TraceEvent:
    if isinstance(event, TraceEvent):
        return event
    return TraceEvent.from_dict(event)


def serve_events(events: Iterable[EventLike]) -> List[TraceEvent]:
    """The ``serve`` events of a stream, in original request order.

    Serve events carry the request's trace index, so re-sorting by it
    recovers arrival order regardless of the discipline that reordered
    service.
    """
    picked = [e for e in map(_as_event, events) if e.kind == "serve"]
    picked.sort(key=lambda e: e.data.get("index", 0))
    return picked


def _served_and_span(
    events: Iterable[EventLike], span: Optional[float]
) -> Tuple[List[TraceEvent], Optional[float]]:
    """The serve events of a stream, plus ``span`` defaulted to the
    ``run_end`` event's time when the stream has one."""
    materialized = [_as_event(e) for e in events]
    served = serve_events(materialized)
    if span is None:
        for event in materialized:
            if event.kind == "run_end":
                span = float(event.time)
                break
    if not served:
        raise ObservabilityError("event stream holds no 'serve' events")
    return served, span


def request_trace_from_events(
    events: Iterable[EventLike],
    label: str = "events",
    span: Optional[float] = None,
):
    """Rebuild the replayed :class:`~repro.traces.millisecond.RequestTrace`
    from a run's ``serve`` events.

    ``span`` defaults to the ``run_end`` event's time when the stream
    has one (the simulator emits it at the observation-window end), else
    to the last arrival. The result feeds directly into
    :func:`repro.core.timescales.run_millisecond_study` — a simulated
    run re-analyzed at every time scale.
    """
    from repro.traces.millisecond import RequestTrace

    served, span = _served_and_span(events, span)
    return RequestTrace(
        times=[e.data["arrival"] for e in served],
        lbas=[e.data["lba"] for e in served],
        nsectors=[e.data["nsectors"] for e in served],
        is_write=[e.data["write"] for e in served],
        span=span,
        label=label,
    )


def timeline_from_events(events: Iterable[EventLike], span: Optional[float] = None):
    """Rebuild the busy/idle timeline from a run's ``serve`` events.

    Each serve event contributes the busy interval
    ``[time, time + service)``; ``span`` defaults to the ``run_end``
    event's time, else the last completion.
    """
    from repro.disk.timeline import BusyIdleTimeline

    served, span = _served_and_span(events, span)
    starts = np.array([e.time for e in served], dtype=np.float64)
    ends = starts + np.array([e.data["service"] for e in served], dtype=np.float64)
    last_finish = float(ends.max())
    return BusyIdleTimeline(
        np.column_stack((starts, ends)),
        span=last_finish if span is None else max(span, last_finish),
    )
