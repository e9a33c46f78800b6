"""The SSD latency model backing the cache tier.

The tier does not need a mechanical model — flash has no head to move —
so an SSD is characterized by a fixed per-command latency plus a
bandwidth-limited transfer term, separately for reads and writes (flash
writes go through the FTL and are slower than reads). Numbers default to
a late-2000s datacenter SATA SSD, the device class that first made
hybrid SSD/HDD tiers economical.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TierError
from repro.units import MIB, SECTOR_BYTES, us


@dataclass(frozen=True)
class SsdSpec:
    """Data-sheet description of the SSD fronting the disk tier.

    Attributes
    ----------
    name:
        Model label carried into reports.
    read_latency / write_latency:
        Fixed per-command overhead in seconds (queueing, FTL lookup,
        interface turnaround).
    read_bandwidth / write_bandwidth:
        Sustained transfer rates in bytes/second.
    """

    name: str = "datacenter-ssd"
    read_latency: float = us(90.0)
    write_latency: float = us(250.0)
    read_bandwidth: float = 250.0 * MIB
    write_bandwidth: float = 180.0 * MIB

    def __post_init__(self) -> None:
        if self.read_latency <= 0 or self.write_latency <= 0:
            raise TierError(
                "SSD command latencies must be > 0, got "
                f"read={self.read_latency!r}, write={self.write_latency!r}"
            )
        if self.read_bandwidth <= 0 or self.write_bandwidth <= 0:
            raise TierError(
                "SSD bandwidths must be > 0, got "
                f"read={self.read_bandwidth!r}, write={self.write_bandwidth!r}"
            )

    def service_time(self, nsectors: int, is_write: bool) -> float:
        """Service time in seconds for one request against the SSD."""
        if nsectors <= 0:
            raise TierError(f"nsectors must be > 0, got {nsectors!r}")
        nbytes = nsectors * SECTOR_BYTES
        if is_write:
            return self.write_latency + nbytes / self.write_bandwidth
        return self.read_latency + nbytes / self.read_bandwidth
