"""The :class:`Observer` handle and the observability levels.

Importing this module loads the metrics registry and the phase
profiler, which every observed run uses; the event ring
(:mod:`repro.obs.events`) is imported only when an observer is built at
the ``"trace"`` level, the one level that records events.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import ProfileScope

if TYPE_CHECKING:
    from repro.obs.events import EventTrace

OBS_LEVELS = ("off", "metrics", "trace")


class Observer:
    """One handle bundling a run's metrics, events and profiling.

    Instrumented code checks :attr:`enabled` / :attr:`tracing` before
    doing any recording work, so an ``"off"`` observer (or no observer
    at all) costs nothing on the hot paths. ``event_capacity`` sizes the
    ``"trace"`` level's ring; ``None`` keeps :class:`EventTrace`'s
    default (:data:`~repro.obs.events.DEFAULT_EVENT_CAPACITY`).
    """

    def __init__(
        self,
        level: str = "metrics",
        event_capacity: Optional[int] = None,
    ) -> None:
        if level not in OBS_LEVELS:
            raise ObservabilityError(
                f"unknown observability level {level!r}; expected one of {OBS_LEVELS}"
            )
        self.level = level
        self.metrics = MetricsRegistry()
        self.events: Optional[EventTrace] = None
        if level == "trace":
            from repro.obs.events import EventTrace

            self.events = (
                EventTrace() if event_capacity is None
                else EventTrace(capacity=event_capacity)
            )
        self.profile = ProfileScope()

    @property
    def enabled(self) -> bool:
        """True when metrics (and possibly events) are being recorded."""
        return self.level != "off"

    @property
    def tracing(self) -> bool:
        """True when per-event recording is on."""
        return self.level == "trace" and self.events is not None

    def emit(self, kind: str, time: float, source: str, **data: Any) -> None:
        """Record an event when tracing; a no-op otherwise."""
        if self.events is not None and self.level == "trace":
            self.events.emit(kind, time, source, **data)

    def emit_columns(self, kind: str, source: str, times: Any, **columns: Any) -> None:
        """Record a batch of events from parallel arrays when tracing; a
        no-op otherwise (see :meth:`EventTrace.emit_columns`)."""
        if self.events is not None and self.level == "trace":
            self.events.emit_columns(kind, source, times, **columns)

    def __repr__(self) -> str:
        return f"Observer(level={self.level!r}, metrics={len(self.metrics)})"
