"""A single disk-level request, as recorded in the Millisecond traces.

The paper's finest-granularity data set records, for every request seen at
the disk interface: the arrival timestamp, the starting logical block
address (LBA), the transfer length and the direction (read or write).
:class:`DiskRequest` mirrors that record exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TraceError
from repro.units import SECTOR_BYTES


@dataclass(frozen=True, order=True)
class DiskRequest:
    """One request at the disk interface.

    Attributes
    ----------
    time:
        Arrival time in seconds from the start of the trace.
    lba:
        Starting logical block address in 512-byte sectors.
    nsectors:
        Transfer length in sectors (strictly positive).
    is_write:
        ``True`` for a write, ``False`` for a read.

    Ordering is by arrival time (then by the remaining fields), so a list
    of requests sorts into trace order naturally.
    """

    time: float
    lba: int
    nsectors: int
    is_write: bool

    def __post_init__(self) -> None:
        if self.time < 0:
            raise TraceError(f"request time must be >= 0, got {self.time!r}")
        if self.lba < 0:
            raise TraceError(f"request LBA must be >= 0, got {self.lba!r}")
        if self.nsectors <= 0:
            raise TraceError(
                f"request length must be a positive sector count, got {self.nsectors!r}"
            )

    @property
    def nbytes(self) -> int:
        """Transfer size in bytes."""
        return self.nsectors * SECTOR_BYTES

    @property
    def op(self) -> str:
        """Human-readable direction: ``'W'`` or ``'R'``."""
        return "W" if self.is_write else "R"

    def __str__(self) -> str:
        return f"{self.time:.6f} {self.op} lba={self.lba} len={self.nsectors}"
