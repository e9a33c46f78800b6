"""The drive model: specs, presets and per-request service times.

:class:`DriveSpec` bundles the data-sheet parameters of one drive model;
:class:`DiskDrive` is the stateful object the simulator drives, combining
geometry, seek curve, rotation, cache and head position into a service
time per request.

The presets approximate the enterprise drive classes of the paper's era:
a 10K-RPM mainstream enterprise drive (the family the Lifetime traces
would cover), a 15K-RPM performance drive, and a 7200-RPM nearline drive.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from repro.disk.cache import CacheConfig, DiskCache
from repro.disk.geometry import DiskGeometry
from repro.disk.mechanics import SeekProfile, rotation_time
from repro.errors import DiskModelError
from repro.units import SECTOR_BYTES, ms


@lru_cache(maxsize=64)
def _uniform_geometry(
    heads: int, cylinders: int, nzones: int, outer_spt: int, inner_spt: int
) -> DiskGeometry:
    return DiskGeometry.uniform(
        heads=heads,
        cylinders=cylinders,
        nzones=nzones,
        outer_spt=outer_spt,
        inner_spt=inner_spt,
    )


@dataclass(frozen=True)
class DriveSpec:
    """Data-sheet level description of a drive model."""

    name: str
    rpm: float
    heads: int
    cylinders: int
    nzones: int
    outer_spt: int
    inner_spt: int
    single_cylinder_seek: float
    full_stroke_seek: float
    command_overhead: float = ms(0.3)
    cache: CacheConfig = field(default_factory=CacheConfig)

    def __post_init__(self) -> None:
        if self.rpm <= 0:
            raise DiskModelError(f"rpm must be > 0, got {self.rpm!r}")
        if self.command_overhead < 0:
            raise DiskModelError(
                f"command_overhead must be >= 0, got {self.command_overhead!r}"
            )

    def geometry(self) -> DiskGeometry:
        """The zoned geometry this spec describes.

        Geometries are immutable, so every spec with the same layout
        shares one instance instead of rebuilding it per drive.
        """
        return _uniform_geometry(
            self.heads, self.cylinders, self.nzones, self.outer_spt, self.inner_spt
        )

    def seek_profile(self) -> SeekProfile:
        """Instantiate the seek curve this spec describes."""
        return SeekProfile(
            single_cylinder=self.single_cylinder_seek,
            full_stroke=self.full_stroke_seek,
            max_distance=self.cylinders,
        )

    @property
    def sustained_bandwidth(self) -> float:
        """Media transfer rate at the middle zone, bytes/second — the
        "available disk bandwidth" the utilization analyses normalize by."""
        mid_spt = (self.outer_spt + self.inner_spt) / 2.0
        return mid_spt * SECTOR_BYTES / rotation_time(self.rpm)

    @property
    def capacity_sectors(self) -> int:
        """Total addressable sectors."""
        return self.geometry().capacity_sectors

    def with_cache(self, cache: CacheConfig) -> "DriveSpec":
        """A copy of this spec with a different cache configuration."""
        return replace(self, cache=cache)


def cheetah_10k() -> DriveSpec:
    """A 10K-RPM enterprise drive (~90 GB, ~80 MB/s sustained)."""
    return DriveSpec(
        name="enterprise-10k",
        rpm=10_000,
        heads=4,
        cylinders=50_000,
        nzones=10,
        outer_spt=1200,
        inner_spt=700,
        single_cylinder_seek=ms(0.5),
        full_stroke_seek=ms(9.0),
    )


def cheetah_15k() -> DriveSpec:
    """A 15K-RPM performance enterprise drive (~65 GB, ~135 MB/s)."""
    return DriveSpec(
        name="enterprise-15k",
        rpm=15_000,
        heads=3,
        cylinders=40_000,
        nzones=10,
        outer_spt=1300,
        inner_spt=800,
        single_cylinder_seek=ms(0.4),
        full_stroke_seek=ms(7.0),
    )


def nearline_7200() -> DriveSpec:
    """A 7200-RPM nearline/capacity drive (~320 GB, ~70 MB/s)."""
    return DriveSpec(
        name="nearline-7200",
        rpm=7_200,
        heads=6,
        cylinders=90_000,
        nzones=12,
        outer_spt=1400,
        inner_spt=900,
        single_cylinder_seek=ms(0.8),
        full_stroke_seek=ms(16.0),
    )


class DiskDrive:
    """Stateful drive: evolves head position and cache as it services
    requests, returning each request's service time.

    Rotational latency is sampled uniformly over one revolution with a
    drive-local RNG (the head lands at an effectively random rotational
    offset after a seek), except for media accesses contiguous with the
    previous one, which proceed with zero positioning cost — the head is
    already there.
    """

    def __init__(self, spec: DriveSpec, seed: int = 0, faults=None) -> None:
        self.spec = spec
        self.geometry = spec.geometry()
        self.seek = spec.seek_profile()
        #: One platter revolution, seconds: the rotational-latency range
        #: and the transfer-time numerator.
        self.rotation = rotation_time(spec.rpm)
        # The scalar media path's tables, as plain Python values: per
        # zone (outermost first) its first LBA, first cylinder, sectors
        # per cylinder and sectors per track.
        geometry = self.geometry
        self._capacity = geometry.capacity_sectors
        self._zone_lbas = [z.first_lba for z in geometry.zones]
        self._zone_cylinders = [z.first_cylinder for z in geometry.zones]
        self._zone_per_cylinder = [
            z.sectors_per_track * geometry.heads for z in geometry.zones
        ]
        self._zone_spts = [z.sectors_per_track for z in geometry.zones]
        self._overhead = spec.command_overhead
        self._hit_overhead = spec.cache.hit_overhead
        self.cache = DiskCache(spec.cache)
        self._rng = np.random.default_rng(seed)
        self._seed = seed
        self._head_cylinder = 0
        self._last_media_end: int = -1  # LBA after the previous media access
        #: Optional :class:`~repro.disk.faults.FaultModel`; when attached,
        #: every media access runs through its recovery semantics.
        self.faults = faults
        self._last_fault = None
        #: Optional :class:`~repro.obs.Observer`; attached by the
        #: simulator at trace level so seeks are recorded as events.
        #: Never consulted on the vectorized path and never touches the
        #: RNG, so observed and unobserved runs are bit-identical.
        self.obs = None

    def reset(self) -> None:
        """Return the drive to its initial state (fresh RNG included)."""
        self.cache.reset()
        self._rng = np.random.default_rng(self._seed)
        self._head_cylinder = 0
        self._last_media_end = -1
        self._last_fault = None
        if self.faults is not None:
            self.faults.reset()

    @property
    def head_cylinder(self) -> int:
        """Cylinder currently under the heads."""
        return self._head_cylinder

    def export_kinematics(self):
        """``(head_cylinder, last_media_end)`` — the motion state the
        columnar loop evolves locally and restores on completion."""
        return self._head_cylinder, self._last_media_end

    def import_kinematics(self, head_cylinder: int, last_media_end: int) -> None:
        """Adopt motion state evolved outside the drive (the RNG is *not*
        part of this snapshot: engines draw rotational latencies straight
        from ``self._rng`` in serve order, so it advances in place)."""
        self._head_cylinder = head_cylinder
        self._last_media_end = last_media_end

    def cylinder_of(self, lba: int) -> int:
        """The geometry's cylinder of ``lba`` (used by the scheduler
        glue), through the fault model's reassignment map when one is
        attached — the scheduler must aim where the heads will actually
        go."""
        if self.faults is not None:
            lba = self.faults.effective_lba(lba)
        if lba < 0 or lba >= self._capacity:
            raise DiskModelError(
                f"LBA {lba!r} outside drive capacity {self._capacity}"
            )
        firsts = self._zone_lbas
        zone = bisect_right(firsts, lba) - 1
        return self._zone_cylinders[zone] + (lba - firsts[zone]) // self._zone_per_cylinder[zone]

    def take_fault_event(self):
        """Pop the fault event of the most recent ``service_time`` call
        (``None`` when it ran clean). The simulator collects these."""
        event = self._last_fault
        self._last_fault = None
        return event

    def service_time(self, lba: int, nsectors: int, is_write: bool, now: float) -> float:
        """Service time in seconds for one request starting at ``now``,
        advancing the drive's internal state.

        Raises :class:`DiskModelError` if the request extends past the
        drive's capacity.

        The geometry's ``cylinder_of``/``sectors_per_track_at`` and the
        rotational draw are inlined over the drive's zone tables: one
        zone bisect for the first media LBA, one for the last.
        ``random() * rotation`` is the value ``uniform(0, rotation)``
        yields (``0 + rotation * random()``) from the same one draw.
        """
        capacity = self._capacity
        if nsectors <= 0:
            raise DiskModelError(f"nsectors must be > 0, got {nsectors!r}")
        if lba < 0 or lba + nsectors > capacity:
            raise DiskModelError(
                f"request [{lba}, {lba + nsectors}) exceeds capacity {capacity}"
            )

        faults = self.faults
        if faults is not None:
            self._last_fault = None

        if is_write:
            if self.cache.absorb_write(nsectors * SECTOR_BYTES, now):
                return self._hit_overhead
        elif self.cache.read_hit(lba, nsectors):
            return self._hit_overhead

        # Media access: position and transfer. With a fault model attached
        # the heads go to the reassigned location, not the logical LBA.
        media_lba = lba if faults is None else faults.effective_lba(lba, nsectors)
        media_last = media_lba + nsectors - 1
        if media_lba < 0 or media_last >= capacity:
            raise DiskModelError(
                f"media access [{media_lba}, {media_last + 1}) exceeds "
                f"capacity {capacity}"
            )
        firsts = self._zone_lbas
        cylinders = self._zone_cylinders
        per_cylinder = self._zone_per_cylinder
        zone = bisect_right(firsts, media_lba) - 1
        if media_lba == self._last_media_end:
            positioning = 0.0
        else:
            target_cylinder = cylinders[zone] + (media_lba - firsts[zone]) // per_cylinder[zone]
            distance = abs(target_cylinder - self._head_cylinder)
            latency = self._rng.random() * self.rotation
            seek_seconds = self.seek.seek_time(distance)
            positioning = seek_seconds + latency
            obs = self.obs
            if obs is not None and obs.tracing and distance > 0:
                obs.emit(
                    "seek_start", now, "drive",
                    from_cylinder=self._head_cylinder,
                    to_cylinder=target_cylinder,
                    distance=distance,
                )
                obs.emit(
                    "seek_end", now + seek_seconds, "drive",
                    to_cylinder=target_cylinder,
                )
        # transfer_time's expression, over the cached revolution.
        media = nsectors * self.rotation / self._zone_spts[zone]
        zone = bisect_right(firsts, media_last) - 1
        self._head_cylinder = cylinders[zone] + (media_last - firsts[zone]) // per_cylinder[zone]
        self._last_media_end = media_lba + nsectors
        if not is_write:
            self.cache.note_read(lba, nsectors)
        service = self._overhead + positioning + media
        if faults is not None:
            service, self._last_fault = faults.on_media_access(
                lba, nsectors, service, now
            )
        return service

    def media_service_times(self, lbas: np.ndarray, nsectors: np.ndarray) -> np.ndarray:
        """Service times for a batch of requests served back-to-back in
        the given order, every one as a media access (the cache is
        bypassed entirely).

        This is the vectorized twin of :meth:`service_time` for the
        simulator's FCFS fast path: with caching disabled the two agree
        element for element, including the rotational-latency RNG draws
        (one per non-contiguous access, in serve order). Head position,
        the contiguity marker and the RNG advance exactly as a scalar
        replay would leave them.
        """
        lbas = np.asarray(lbas, dtype=np.int64)
        nsectors = np.asarray(nsectors, dtype=np.int64)
        n = lbas.size
        if n == 0:
            return np.zeros(0, dtype=np.float64)
        if int(nsectors.min()) <= 0:
            raise DiskModelError(
                f"nsectors must be > 0, got {int(nsectors.min())!r}"
            )
        ends = lbas + nsectors
        if int(lbas.min()) < 0 or int(ends.max()) > self.geometry.capacity_sectors:
            raise DiskModelError(
                "batch addresses beyond capacity "
                f"{self.geometry.capacity_sectors}"
            )

        cyl_start = self.geometry.cylinders_of(lbas)
        cyl_end = self.geometry.cylinders_of(ends - 1)
        spt = self.geometry.sectors_per_track_of(lbas)

        prev_end = np.empty(n, dtype=np.int64)
        prev_end[0] = self._last_media_end
        prev_end[1:] = ends[:-1]
        contiguous = lbas == prev_end

        prev_cyl = np.empty(n, dtype=np.int64)
        prev_cyl[0] = self._head_cylinder
        prev_cyl[1:] = cyl_end[:-1]
        distances = np.abs(cyl_start - prev_cyl)

        rotation = self.rotation
        latencies = np.zeros(n, dtype=np.float64)
        noncontiguous = ~contiguous
        draws = int(noncontiguous.sum())
        if draws:
            latencies[noncontiguous] = self._rng.uniform(0.0, rotation, size=draws)
        positioning = np.where(
            contiguous, 0.0, self.seek.seek_times(distances) + latencies
        )
        media = nsectors * rotation / spt
        self._head_cylinder = int(cyl_end[-1])
        self._last_media_end = int(ends[-1])
        return self.spec.command_overhead + positioning + media
