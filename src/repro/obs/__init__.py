"""Observability for the repro simulator: metrics, events, profiling.

The paper's method — study the *same* run at multiple time-scales —
needs the run itself to be observable. This package provides the three
views, all optional and all off by default:

- :class:`MetricsRegistry` (:mod:`repro.obs.metrics`): counters, gauges
  and fixed-bucket histograms, mergeable across runner workers with the
  same Chan-style combine :class:`~repro.stats.moments.StreamingMoments`
  uses.
- :class:`EventTrace` (:mod:`repro.obs.events`): a ring-buffer of typed
  events (serve, seek, queue-depth change, retry, reassignment, scrub
  chunk, ...) dumpable to JSONL and re-analyzable by
  :mod:`repro.core.timescales`.
- :class:`ProfileScope` (:mod:`repro.obs.profiling`): per-phase wall/CPU
  breakdowns the :class:`~repro.core.runner.ExperimentRunner` attaches
  to :class:`~repro.core.runner.SuiteReport`.

:class:`Observer` bundles them behind one handle with three levels:

- ``"off"`` — nothing recorded; the instrumented code must behave
  bit-identically to ``obs=None`` (asserted by tests).
- ``"metrics"`` — registry only; designed for ≤8% overhead on the
  vectorized engines (metrics are filled post-hoc from result arrays).
- ``"trace"`` — registry plus event recording.
"""

from repro._lazy import lazy_exports

#: Public names by defining module, imported on first access (PEP 562):
#: a run at ``obs="off"`` loads none of this package's modules, and one
#: at ``"metrics"`` never loads the event ring.
_EXPORTS = {
    ".events": (
        "DEFAULT_EVENT_CAPACITY",
        "EventTrace",
        "TraceEvent",
        "load_events_jsonl",
        "request_trace_from_events",
        "serve_events",
        "timeline_from_events",
    ),
    ".metrics": ("DEFAULT_TIME_EDGES", "Counter", "FixedHistogram", "Gauge", "MetricsRegistry"),
    ".observer": ("OBS_LEVELS", "Observer"),
    ".profiling": ("PhaseTiming", "ProfileScope"),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
