"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch everything the library signals
with a single ``except ReproError`` clause while still letting genuine
programming errors (``TypeError`` from misuse of numpy, etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class TraceError(ReproError):
    """A trace container was constructed from, or asked to hold, invalid data."""


class TraceFormatError(TraceError):
    """A trace file on disk does not conform to the expected serialization format."""


class DiskModelError(ReproError):
    """The disk model was configured inconsistently or asked to service an
    impossible request (e.g. an LBA beyond the end of the drive)."""


class FaultInjectionError(DiskModelError):
    """The fault-injection subsystem was configured inconsistently
    (impossible fault layout, repairs scheduled for healthy regions)."""


class TierError(DiskModelError):
    """The SSD cache tier was configured inconsistently (unknown
    admission mode or heat policy, capacity smaller than one chunk)."""


class SimulationError(ReproError):
    """The event-driven simulator reached an inconsistent state."""


class SuiteError(SimulationError):
    """One or more jobs in an experiment suite failed.

    Raised by :class:`repro.core.runner.ExperimentRunner` under the
    default ``on_error="raise"`` policy once in-flight work has drained.
    The partial :class:`~repro.core.runner.SuiteReport` (every job that
    completed or failed before the stop) is attached as ``report``.
    """

    def __init__(self, message: str, report: object = None) -> None:
        super().__init__(message)
        self.report = report


class FleetError(SimulationError):
    """The fleet-simulation layer was configured inconsistently
    (unknown placement policy, duplicate or empty tenant set, a shared
    drive too small to give every tenant a volume, or an invalid shard
    size)."""


class JournalError(SimulationError):
    """The durable suite journal was misused or found corrupt: schema
    version mismatch, a fingerprint that does not belong to the suite
    being resumed, or a malformed record before the final line (a torn
    *final* record is tolerated and truncated, not an error)."""


class ChaosError(SimulationError):
    """The chaos-injection policy was configured inconsistently
    (probability outside [0, 1], negative delay or stall duration)."""


class ResourceGuardError(SimulationError):
    """A resource guard of the suite runner was configured
    inconsistently (non-positive RSS limit or suite deadline)."""


class SynthesisError(ReproError):
    """A synthetic workload generator received unusable parameters."""


class AnalysisError(ReproError):
    """A characterization routine received data it cannot analyze
    (e.g. an empty trace where at least one request is required)."""


class StatsError(ReproError):
    """A statistical estimator received a sample it cannot operate on."""


class ProfileError(SynthesisError):
    """An unknown or malformed workload profile was requested."""


class ObservabilityError(ReproError):
    """The observability layer was misused (unknown metric kind, merging
    incompatible registries, malformed event-trace files)."""


class CliError(ReproError):
    """Invalid command-line usage detected after argument parsing."""
