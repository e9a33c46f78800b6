"""Zoned disk geometry: mapping LBAs to cylinders and track densities.

Real drives use zoned bit recording: outer cylinders hold more sectors
per track than inner ones, so both the LBA→cylinder mapping and the media
transfer rate depend on radial position. :class:`DiskGeometry` models a
drive as a small number of zones, each with a constant sectors-per-track,
which captures both effects with O(#zones) lookup state.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import DiskModelError


@dataclass(frozen=True)
class Zone:
    """One recording zone: a contiguous cylinder range with constant
    sectors per track.

    Attributes
    ----------
    first_cylinder:
        First cylinder of the zone (inclusive).
    cylinders:
        Number of cylinders in the zone.
    sectors_per_track:
        Sectors on each track of the zone.
    first_lba:
        LBA of the zone's first sector (derived at construction).
    """

    first_cylinder: int
    cylinders: int
    sectors_per_track: int
    first_lba: int

    def __post_init__(self) -> None:
        if self.cylinders <= 0:
            raise DiskModelError(f"zone must span >= 1 cylinder, got {self.cylinders!r}")
        if self.sectors_per_track <= 0:
            raise DiskModelError(
                f"sectors_per_track must be > 0, got {self.sectors_per_track!r}"
            )


class DiskGeometry:
    """Zoned geometry of one drive.

    Parameters
    ----------
    heads:
        Number of recording surfaces (tracks per cylinder).
    zone_cylinders:
        Cylinder count of each zone, outermost first.
    zone_sectors_per_track:
        Sectors per track of each zone, outermost first (non-increasing
        toward the spindle on a real drive, but not enforced).
    """

    def __init__(
        self,
        heads: int,
        zone_cylinders: Sequence[int],
        zone_sectors_per_track: Sequence[int],
    ) -> None:
        if heads <= 0:
            raise DiskModelError(f"heads must be > 0, got {heads!r}")
        if len(zone_cylinders) != len(zone_sectors_per_track):
            raise DiskModelError(
                "zone_cylinders and zone_sectors_per_track lengths differ"
            )
        if not zone_cylinders:
            raise DiskModelError("geometry needs at least one zone")
        self.heads = int(heads)
        zones: List[Zone] = []
        cylinder = 0
        lba = 0
        for cyls, spt in zip(zone_cylinders, zone_sectors_per_track):
            zones.append(
                Zone(
                    first_cylinder=cylinder,
                    cylinders=int(cyls),
                    sectors_per_track=int(spt),
                    first_lba=lba,
                )
            )
            cylinder += int(cyls)
            lba += int(cyls) * self.heads * int(spt)
        self.zones: List[Zone] = zones
        self.total_cylinders = cylinder
        self.capacity_sectors = lba
        # Scalar lookups bisect the plain list, so a request in hook mode
        # or the event loop makes no numpy call; batch lookups search the
        # array twin.
        self._zone_first_lba_list = [z.first_lba for z in zones]
        self._zone_first_lbas = np.array(self._zone_first_lba_list, dtype=np.int64)
        self._zone_first_cyls = np.array([z.first_cylinder for z in zones], dtype=np.int64)
        self._zone_spts = np.array([z.sectors_per_track for z in zones], dtype=np.int64)

    @classmethod
    def uniform(
        cls,
        heads: int = 4,
        cylinders: int = 50_000,
        nzones: int = 10,
        outer_spt: int = 1200,
        inner_spt: int = 700,
    ) -> "DiskGeometry":
        """A plausible enterprise geometry with linearly shrinking track
        density from ``outer_spt`` to ``inner_spt`` across ``nzones``."""
        if nzones <= 0:
            raise DiskModelError(f"nzones must be > 0, got {nzones!r}")
        if cylinders < nzones:
            raise DiskModelError("need at least one cylinder per zone")
        per_zone = [cylinders // nzones] * nzones
        per_zone[-1] += cylinders - sum(per_zone)
        if nzones == 1:
            spts = [outer_spt]
        else:
            spts = [
                int(round(outer_spt + (inner_spt - outer_spt) * i / (nzones - 1)))
                for i in range(nzones)
            ]
        return cls(heads=heads, zone_cylinders=per_zone, zone_sectors_per_track=spts)

    # ------------------------------------------------------------------

    def zone_of(self, lba: int) -> Zone:
        """The zone containing ``lba``."""
        self._check_lba(lba)
        return self.zones[bisect_right(self._zone_first_lba_list, lba) - 1]

    def cylinder_of(self, lba: int) -> int:
        """The cylinder containing ``lba``."""
        zone = self.zone_of(lba)
        per_cylinder = zone.sectors_per_track * self.heads
        return zone.first_cylinder + (lba - zone.first_lba) // per_cylinder

    def sectors_per_track_at(self, lba: int) -> int:
        """Track density at ``lba`` (determines the media transfer rate)."""
        return self.zone_of(lba).sectors_per_track

    def first_lba_of_cylinder(self, cylinder: int) -> int:
        """The first LBA of a cylinder — the inverse of :meth:`cylinder_of`.

        Used by the fault model to place reassigned sectors: spare areas
        live on the innermost cylinders, so relocating a bad sector there
        changes every later seek to it.
        """
        if cylinder < 0 or cylinder >= self.total_cylinders:
            raise DiskModelError(
                f"cylinder {cylinder!r} outside drive with "
                f"{self.total_cylinders} cylinders"
            )
        index = int(
            np.searchsorted(self._zone_first_cyls, cylinder, side="right")
        ) - 1
        zone = self.zones[index]
        per_cylinder = zone.sectors_per_track * self.heads
        return zone.first_lba + (cylinder - zone.first_cylinder) * per_cylinder

    # ------------------------------------------------------------------
    # Vectorized lookups (the simulator's batch fast path)
    # ------------------------------------------------------------------

    def _zone_indices(self, lbas: np.ndarray) -> np.ndarray:
        lbas = np.asarray(lbas, dtype=np.int64)
        if lbas.size and (int(lbas.min()) < 0 or int(lbas.max()) >= self.capacity_sectors):
            bad = lbas[(lbas < 0) | (lbas >= self.capacity_sectors)][0]
            raise DiskModelError(
                f"LBA {int(bad)!r} outside drive capacity {self.capacity_sectors}"
            )
        return np.searchsorted(self._zone_first_lbas, lbas, side="right") - 1

    def cylinders_of(self, lbas: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`cylinder_of` over an array of LBAs."""
        lbas = np.asarray(lbas, dtype=np.int64)
        zones = self._zone_indices(lbas)
        per_cylinder = self._zone_spts[zones] * self.heads
        return self._zone_first_cyls[zones] + (lbas - self._zone_first_lbas[zones]) // per_cylinder

    def sectors_per_track_of(self, lbas: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`sectors_per_track_at` over an array of LBAs."""
        return self._zone_spts[self._zone_indices(lbas)]

    def seek_distance(self, lba_a: int, lba_b: int) -> int:
        """Cylinder distance between two LBAs."""
        return abs(self.cylinder_of(lba_a) - self.cylinder_of(lba_b))

    def _check_lba(self, lba: int) -> None:
        if lba < 0 or lba >= self.capacity_sectors:
            raise DiskModelError(
                f"LBA {lba!r} outside drive capacity {self.capacity_sectors}"
            )

    def __repr__(self) -> str:
        return (
            f"DiskGeometry(heads={self.heads}, cylinders={self.total_cylinders}, "
            f"zones={len(self.zones)}, capacity={self.capacity_sectors} sectors)"
        )
