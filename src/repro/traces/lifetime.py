"""The Lifetime trace containers: cumulative counters across a drive family.

The paper's coarsest-granularity data set covers an entire drive family:
for each deployed drive, cumulative counters over its whole deployment —
power-on hours and total bytes read and written. The family-level analyses
(variability across drives, concentration of traffic, the saturated
sub-population) consume :class:`DriveFamilyDataset`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np

from repro.errors import TraceError
from repro.units import SECONDS_PER_HOUR


@dataclass(frozen=True)
class LifetimeRecord:
    """Cumulative lifetime counters of one drive.

    Attributes
    ----------
    drive_id:
        Identifier within the family.
    power_on_hours:
        Total hours the drive has been powered (``> 0``).
    bytes_read, bytes_written:
        Cumulative transferred bytes (``>= 0``).
    model:
        Free-form family/model string (e.g. a capacity point within the
        family).
    """

    drive_id: str
    power_on_hours: float
    bytes_read: float
    bytes_written: float
    model: str = "generic"

    def __post_init__(self) -> None:
        if self.power_on_hours <= 0:
            raise TraceError(
                f"power_on_hours must be > 0, got {self.power_on_hours!r} "
                f"for drive {self.drive_id!r}"
            )
        if self.bytes_read < 0 or self.bytes_written < 0:
            raise TraceError(f"negative lifetime counter for drive {self.drive_id!r}")

    @property
    def total_bytes(self) -> float:
        """Lifetime bytes transferred (reads + writes)."""
        return self.bytes_read + self.bytes_written

    @property
    def mean_throughput(self) -> float:
        """Lifetime-average transfer rate in bytes/second."""
        return self.total_bytes / (self.power_on_hours * SECONDS_PER_HOUR)

    @property
    def write_byte_fraction(self) -> float:
        """Fraction of lifetime bytes that are writes (NaN if untouched)."""
        total = self.total_bytes
        if total == 0:
            return float("nan")
        return self.bytes_written / total

    def mean_utilization(self, bandwidth: float) -> float:
        """Lifetime-average bandwidth utilization given the drive's
        sustained ``bandwidth`` in bytes/second, clipped to [0, 1]."""
        if bandwidth <= 0:
            raise TraceError(f"bandwidth must be > 0, got {bandwidth!r}")
        return min(1.0, self.mean_throughput / bandwidth)


class DriveFamilyDataset:
    """Lifetime records of all drives in one family."""

    def __init__(self, records: Sequence[LifetimeRecord], family: str = "family") -> None:
        self._records: List[LifetimeRecord] = list(records)
        self.family = str(family)
        ids = [r.drive_id for r in self._records]
        if len(set(ids)) != len(ids):
            raise TraceError("duplicate drive_id in family dataset")

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[LifetimeRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> LifetimeRecord:
        return self._records[index]

    def __repr__(self) -> str:
        return f"DriveFamilyDataset(family={self.family!r}, drives={len(self)})"

    def by_id(self, drive_id: str) -> LifetimeRecord:
        """Look up one drive's record by identifier."""
        for r in self._records:
            if r.drive_id == drive_id:
                return r
        raise KeyError(drive_id)

    # ------------------------------------------------------------------
    # Columnar views for the distributional analyses
    # ------------------------------------------------------------------

    def power_on_hours(self) -> np.ndarray:
        """Per-drive power-on hours."""
        return np.array([r.power_on_hours for r in self._records])

    def total_bytes(self) -> np.ndarray:
        """Per-drive lifetime bytes transferred."""
        return np.array([r.total_bytes for r in self._records])

    def mean_throughputs(self) -> np.ndarray:
        """Per-drive lifetime-average throughput in bytes/second."""
        return np.array([r.mean_throughput for r in self._records])

    def write_byte_fractions(self) -> np.ndarray:
        """Per-drive lifetime write byte fraction (NaN for untouched drives)."""
        return np.array([r.write_byte_fraction for r in self._records])

    def mean_utilizations(self, bandwidth: float) -> np.ndarray:
        """Per-drive lifetime-average bandwidth utilization."""
        return np.array([r.mean_utilization(bandwidth) for r in self._records])
