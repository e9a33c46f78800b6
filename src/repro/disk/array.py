"""Disk arrays: striping above the single-drive model.

The paper's drives were deployed inside enterprise storage systems —
RAID groups — so the traffic a *single* disk sees is the array
controller's projection of the logical workload. This module implements
that projection for striping (RAID-0, :class:`StripedArray`): the
logical address space is striped across members in fixed chunks, and a
request touching several chunks splits into per-member sub-requests.
Parity striping (RAID-5) lives in :mod:`repro.disk.raid5`.

Splitting a logical trace yields one :class:`~repro.traces.RequestTrace`
per member, each replayable through :class:`~repro.disk.DiskSimulator` —
which is how the cross-drive *imbalance within one system* analyses are
produced (experiment F14).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import DiskModelError
from repro.traces.millisecond import RequestTrace


class StripedArray:
    """RAID-0 striping of a logical address space over ``n_members``.

    Parameters
    ----------
    n_members:
        Number of member drives.
    chunk_sectors:
        Stripe unit in sectors: logical chunk ``c`` lands on member
        ``c % n_members`` at member-local chunk ``c // n_members``.
    member_capacity_sectors:
        Capacity of each member; the logical capacity is
        ``n_members * member_capacity_sectors``.
    """

    def __init__(
        self,
        n_members: int,
        chunk_sectors: int,
        member_capacity_sectors: int,
    ) -> None:
        if n_members < 2:
            raise DiskModelError(f"an array needs >= 2 members, got {n_members!r}")
        if chunk_sectors <= 0:
            raise DiskModelError(f"chunk_sectors must be > 0, got {chunk_sectors!r}")
        if member_capacity_sectors <= 0:
            raise DiskModelError(
                f"member_capacity_sectors must be > 0, got {member_capacity_sectors!r}"
            )
        if member_capacity_sectors % chunk_sectors:
            raise DiskModelError(
                "member capacity must be a whole number of chunks "
                f"({member_capacity_sectors} % {chunk_sectors} != 0)"
            )
        self.n_members = int(n_members)
        self.chunk_sectors = int(chunk_sectors)
        self.member_capacity_sectors = int(member_capacity_sectors)

    @property
    def logical_capacity_sectors(self) -> int:
        """Total addressable sectors of the array."""
        return self.n_members * self.member_capacity_sectors

    def member_of(self, lba: int) -> int:
        """Which member holds logical sector ``lba``."""
        self._check_lba(lba)
        return (lba // self.chunk_sectors) % self.n_members

    def member_lba(self, lba: int) -> int:
        """The member-local sector of logical sector ``lba``."""
        self._check_lba(lba)
        chunk = lba // self.chunk_sectors
        offset = lba % self.chunk_sectors
        return (chunk // self.n_members) * self.chunk_sectors + offset

    def _check_lba(self, lba: int) -> None:
        if lba < 0 or lba >= self.logical_capacity_sectors:
            raise DiskModelError(
                f"logical LBA {lba!r} outside array capacity "
                f"{self.logical_capacity_sectors}"
            )

    def split_trace(self, trace: RequestTrace) -> List[RequestTrace]:
        """Project a logical trace onto the members.

        Each logical request becomes one sub-request per chunk-contiguous
        extent it covers on each member; sub-requests inherit the logical
        arrival time (the controller issues them concurrently). Returns
        ``n_members`` traces sharing the logical clock and span.
        """
        per_member: List[dict] = [
            {"times": [], "lbas": [], "nsectors": [], "is_write": []}
            for _ in range(self.n_members)
        ]
        chunk = self.chunk_sectors
        for i in range(len(trace)):
            time = float(trace.times[i])
            lba = int(trace.lbas[i])
            remaining = int(trace.nsectors[i])
            write = bool(trace.is_write[i])
            if lba + remaining > self.logical_capacity_sectors:
                raise DiskModelError(
                    f"request [{lba}, {lba + remaining}) exceeds array capacity "
                    f"{self.logical_capacity_sectors}"
                )
            while remaining > 0:
                in_chunk = min(remaining, chunk - (lba % chunk))
                member = self.member_of(lba)
                bucket = per_member[member]
                local = self.member_lba(lba)
                # Merge with the previous sub-request when it continues the
                # same member extent at the same instant (a request spanning
                # n_members+ chunks wraps back around).
                if (
                    bucket["times"]
                    and bucket["times"][-1] == time
                    and bucket["is_write"][-1] == write
                    and bucket["lbas"][-1] + bucket["nsectors"][-1] == local
                ):
                    bucket["nsectors"][-1] += in_chunk
                else:
                    bucket["times"].append(time)
                    bucket["lbas"].append(local)
                    bucket["nsectors"].append(in_chunk)
                    bucket["is_write"].append(write)
                lba += in_chunk
                remaining -= in_chunk
        return [
            RequestTrace(
                times=b["times"], lbas=b["lbas"], nsectors=b["nsectors"],
                is_write=b["is_write"], span=trace.span,
                label=f"{trace.label}@member{m}",
            )
            for m, b in enumerate(per_member)
        ]


def member_imbalance(member_traces: List[RequestTrace]) -> float:
    """Byte-traffic imbalance across members: max over mean, >= 1.

    1.0 means perfectly even striping; large values mean one member
    carries a disproportionate share (hot chunks aligned with the
    stripe), the within-system face of cross-drive variability.
    """
    if not member_traces:
        raise DiskModelError("need at least one member trace")
    totals = np.array([float(t.total_bytes) for t in member_traces])
    mean = totals.mean()
    if mean == 0:
        return float("nan")
    return float(totals.max() / mean)
