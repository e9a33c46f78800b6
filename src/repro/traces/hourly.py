"""The Hour trace containers: per-hour read/write counters per drive.

The paper's middle-granularity data set consists of counters each drive
logs once per hour: how many bytes (and requests) it read and wrote during
that hour. :class:`HourlyTrace` holds one drive's counter series;
:class:`HourlyDataset` groups the series of many drives observed over the
same period, which is what the cross-drive variability analyses consume.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import TraceError
from repro.units import HOURS_PER_WEEK, SECONDS_PER_HOUR


class HourlyTrace:
    """Per-hour traffic counters for one drive.

    Parameters
    ----------
    drive_id:
        Identifier of the drive within its family.
    read_bytes, write_bytes:
        Bytes read/written in each successive hour (equal lengths, all
        ``>= 0``).
    start_hour:
        Hour-of-week index (0 = Monday 00:00) of the first sample, used by
        the diurnal/weekly folding analyses. Defaults to 0.
    """

    def __init__(
        self,
        drive_id: str,
        read_bytes: Sequence[float],
        write_bytes: Sequence[float],
        start_hour: int = 0,
    ) -> None:
        self.drive_id = str(drive_id)
        self._read = np.asarray(read_bytes, dtype=np.float64).copy()
        self._write = np.asarray(write_bytes, dtype=np.float64).copy()
        if self._read.shape != self._write.shape or self._read.ndim != 1:
            raise TraceError(
                f"hourly series shapes differ: reads {self._read.shape}, "
                f"writes {self._write.shape}"
            )
        if np.any(self._read < 0) or np.any(self._write < 0):
            raise TraceError(f"negative hourly counter for drive {drive_id!r}")
        if start_hour < 0:
            raise TraceError(f"start_hour must be >= 0, got {start_hour!r}")
        self.start_hour = int(start_hour)
        self._read.setflags(write=False)
        self._write.setflags(write=False)

    # ------------------------------------------------------------------

    @property
    def read_bytes(self) -> np.ndarray:
        """Bytes read per hour (read-only array)."""
        return self._read

    @property
    def write_bytes(self) -> np.ndarray:
        """Bytes written per hour (read-only array)."""
        return self._write

    @property
    def total_bytes(self) -> np.ndarray:
        """Bytes transferred per hour (reads + writes)."""
        return self._read + self._write

    @property
    def hours(self) -> int:
        """Number of hourly samples."""
        return int(self._read.size)

    def __len__(self) -> int:
        return self.hours

    def __repr__(self) -> str:
        return f"HourlyTrace(drive_id={self.drive_id!r}, hours={self.hours})"

    # ------------------------------------------------------------------

    @property
    def mean_throughput(self) -> float:
        """Mean transfer rate over the observation, in bytes/second."""
        if not self.hours:
            return 0.0
        return float(self.total_bytes.mean()) / SECONDS_PER_HOUR

    @property
    def peak_throughput(self) -> float:
        """Busiest hour's transfer rate in bytes/second."""
        if not self.hours:
            return 0.0
        return float(self.total_bytes.max()) / SECONDS_PER_HOUR

    @property
    def peak_to_mean(self) -> float:
        """Peak-hour to mean-hour traffic ratio (burstiness at hour scale)."""
        mean = self.mean_throughput
        if mean == 0:
            return float("nan")
        return self.peak_throughput / mean

    @property
    def write_byte_fraction(self) -> float:
        """Fraction of transferred bytes that are writes."""
        total = self.total_bytes.sum()
        if total == 0:
            return float("nan")
        return float(self._write.sum() / total)

    def utilization_series(self, bandwidth: float) -> np.ndarray:
        """Per-hour bandwidth utilization given the drive's sustained
        ``bandwidth`` in bytes/second, clipped to [0, 1]."""
        if bandwidth <= 0:
            raise TraceError(f"bandwidth must be > 0, got {bandwidth!r}")
        capacity = bandwidth * SECONDS_PER_HOUR
        return np.clip(self.total_bytes / capacity, 0.0, 1.0)

    def saturated_hours(self, bandwidth: float, threshold: float = 0.9) -> np.ndarray:
        """Boolean mask of hours whose utilization reaches ``threshold``."""
        return self.utilization_series(bandwidth) >= threshold

    def longest_saturated_stretch(self, bandwidth: float, threshold: float = 0.9) -> int:
        """Longest run of consecutive saturated hours — the paper's "fully
        utilizing the available disk bandwidth for hours at a time"."""
        mask = self.saturated_hours(bandwidth, threshold)
        longest = current = 0
        for flag in mask:
            current = current + 1 if flag else 0
            longest = max(longest, current)
        return longest

    def fold_weekly(self) -> np.ndarray:
        """Mean total traffic per hour-of-week (length 168), exposing the
        diurnal and weekday/weekend cycles. Hours are aligned using
        ``start_hour``; hours-of-week never observed are NaN."""
        sums = np.zeros(HOURS_PER_WEEK)
        counts = np.zeros(HOURS_PER_WEEK)
        total = self.total_bytes
        for i in range(self.hours):
            how = (self.start_hour + i) % HOURS_PER_WEEK
            sums[how] += total[i]
            counts[how] += 1
        with np.errstate(invalid="ignore"):
            return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


class HourlyDataset:
    """Hour traces of many drives observed over a common period."""

    def __init__(self, traces: Sequence[HourlyTrace]) -> None:
        self._traces: List[HourlyTrace] = list(traces)
        ids = [t.drive_id for t in self._traces]
        if len(set(ids)) != len(ids):
            raise TraceError("duplicate drive_id in hourly dataset")

    def __len__(self) -> int:
        return len(self._traces)

    def __iter__(self) -> Iterator[HourlyTrace]:
        return iter(self._traces)

    def __getitem__(self, index: int) -> HourlyTrace:
        return self._traces[index]

    def __repr__(self) -> str:
        return f"HourlyDataset(drives={len(self)}, hours={self.hours})"

    @property
    def drives(self) -> List[str]:
        """Drive identifiers, in dataset order."""
        return [t.drive_id for t in self._traces]

    @property
    def hours(self) -> int:
        """Shortest series length across drives (0 if empty)."""
        if not self._traces:
            return 0
        return min(t.hours for t in self._traces)

    def by_id(self, drive_id: str) -> HourlyTrace:
        """Look up one drive's trace by identifier."""
        for t in self._traces:
            if t.drive_id == drive_id:
                return t
        raise KeyError(drive_id)

    def mean_throughputs(self) -> np.ndarray:
        """Per-drive mean throughput in bytes/second."""
        return np.array([t.mean_throughput for t in self._traces])

    def peak_throughputs(self) -> np.ndarray:
        """Per-drive peak-hour throughput in bytes/second."""
        return np.array([t.peak_throughput for t in self._traces])

    def saturated_hour_fraction(self, bandwidth: float, threshold: float = 0.9) -> float:
        """Fraction of all drive-hours at/above ``threshold`` utilization."""
        total_hours = sum(t.hours for t in self._traces)
        if total_hours == 0:
            return float("nan")
        saturated = sum(
            int(t.saturated_hours(bandwidth, threshold).sum()) for t in self._traces
        )
        return saturated / total_hours

    def longest_saturated_stretches(
        self, bandwidth: float, threshold: float = 0.9
    ) -> Dict[str, int]:
        """Per-drive longest consecutive saturated-hour run."""
        return {
            t.drive_id: t.longest_saturated_stretch(bandwidth, threshold)
            for t in self._traces
        }

    def aggregate_series(self) -> Optional[np.ndarray]:
        """Total traffic per hour summed over all drives (trimmed to the
        common length); ``None`` for an empty dataset."""
        if not self._traces:
            return None
        h = self.hours
        if h == 0:
            return np.zeros(0)
        return np.sum([t.total_bytes[:h] for t in self._traces], axis=0)
