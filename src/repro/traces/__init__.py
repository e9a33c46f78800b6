"""Trace containers for the three granularities studied by the paper.

The paper characterizes three data sets that differ in the granularity of
the recorded information:

* **Millisecond traces** — per-request records (arrival time, LBA, length,
  read/write flag) captured at the disk interface. Modeled by
  :class:`~repro.traces.millisecond.RequestTrace`.
* **Hour traces** — per-hour read/write counters logged by each drive over
  weeks. Modeled by :class:`~repro.traces.hourly.HourlyTrace` and grouped
  into :class:`~repro.traces.hourly.HourlyDataset`.
* **Lifetime traces** — cumulative counters over each drive's deployment
  across an entire drive family. Modeled by
  :class:`~repro.traces.lifetime.LifetimeRecord` and
  :class:`~repro.traces.lifetime.DriveFamilyDataset`.

All containers are numpy-backed column stores with value semantics:
construction validates, and analysis code can rely on the documented
invariants (sorted times, non-negative counters, ...).
"""

from repro._lazy import lazy_exports

#: Public names by defining module, imported on first access (PEP 562).
_EXPORTS = {
    ".request": ("DiskRequest",),
    ".millisecond": ("RequestTrace",),
    ".hourly": ("HourlyTrace", "HourlyDataset"),
    ".lifetime": ("LifetimeRecord", "DriveFamilyDataset"),
    ".window": ("bin_counts", "bin_sums"),
    ".io": (
        "QuarantinedRow", "read_hourly_dataset", "read_lifetime_dataset",
        "write_hourly_dataset", "write_lifetime_dataset", "write_request_trace",
    ),
    ".ops": ("jitter", "thin"),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
