"""The drive's scalar media path agrees with its vectorized twin and
with the layered path it replaced.

``DiskGeometry.cylinder_of``/``sectors_per_track_at`` (bisect over the
zones' first LBAs) and ``SeekProfile.seek_time`` (constants derived once,
``math.sqrt``) serve one request at a time; ``cylinders_of``/
``sectors_per_track_of``/``seek_times`` serve the batch paths. Every
element must agree exactly, for every preset.

``DiskDrive.service_time``/``cylinder_of`` inline the zone lookups over
the drive's own tables, and ``FaultModel.on_media_access`` takes a
one-region fast path. Frozen copies of the layered versions (below) are
the oracle: after every call the service time, the fault event, the head,
the contiguity marker and both RNG states must agree.
"""

from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.cache import CacheConfig, DiskCache
from repro.disk.drive import (
    DiskDrive,
    DriveSpec,
    cheetah_10k,
    cheetah_15k,
    nearline_7200,
)
from repro.disk.faults import FaultEvent, FaultModel, FaultProfile
from repro.disk.mechanics import rotation_time, transfer_time
from repro.errors import DiskModelError
from repro.obs import Observer
from repro.units import KIB, SECTOR_BYTES, ms

PRESETS = (cheetah_10k(), cheetah_15k(), nearline_7200())


def _edge_lbas(geometry):
    """0, capacity - 1, and each zone's first LBA with the LBA before it."""
    edges = {0, geometry.capacity_sectors - 1}
    for zone in geometry.zones:
        edges.add(zone.first_lba)
        if zone.first_lba:
            edges.add(zone.first_lba - 1)
    return sorted(edges)


def _edge_distances(seek):
    b, top = seek.boundary, seek.max_distance
    return [0, 1, 2, b - 1, b, b + 1, top - 1, top, top + 1, 10 * top]


def _assert_lbas_agree(geometry, lbas):
    cylinders = geometry.cylinders_of(np.asarray(lbas, dtype=np.int64))
    spts = geometry.sectors_per_track_of(np.asarray(lbas, dtype=np.int64))
    for lba, cylinder, spt in zip(lbas, cylinders.tolist(), spts.tolist()):
        assert geometry.cylinder_of(lba) == cylinder
        assert geometry.sectors_per_track_at(lba) == spt


def _assert_distances_agree(seek, distances):
    batch = seek.seek_times(np.asarray(distances, dtype=np.int64))
    for distance, expected in zip(distances, batch.tolist()):
        got = seek.seek_time(distance)
        assert type(got) is float
        assert got == expected


@pytest.mark.parametrize("spec", PRESETS, ids=lambda s: s.name)
def test_edges_agree(spec):
    _assert_lbas_agree(spec.geometry(), _edge_lbas(spec.geometry()))
    _assert_distances_agree(spec.seek_profile(), _edge_distances(spec.seek_profile()))


@settings(deadline=None, max_examples=50)
@given(
    st.sampled_from(PRESETS),
    st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=40),
    st.lists(st.integers(0, 200_000), min_size=1, max_size=40),
)
def test_random_points_agree(spec, fractions, distances):
    geometry = spec.geometry()
    lbas = [int(f * geometry.capacity_sectors) for f in fractions]
    _assert_lbas_agree(geometry, lbas)
    _assert_distances_agree(spec.seek_profile(), distances)


@pytest.mark.parametrize("spec", PRESETS, ids=lambda s: s.name)
def test_out_of_range_still_raises(spec):
    geometry = spec.geometry()
    for lba in (-1, geometry.capacity_sectors, geometry.capacity_sectors + 7):
        with pytest.raises(DiskModelError):
            geometry.cylinder_of(lba)
        with pytest.raises(DiskModelError):
            geometry.sectors_per_track_at(lba)
    with pytest.raises(DiskModelError):
        spec.seek_profile().seek_time(-1)
    drive = DiskDrive(spec)
    with pytest.raises(DiskModelError):
        drive.service_time(geometry.capacity_sectors - 1, 2, False, 0.0)
    with pytest.raises(DiskModelError):
        drive.service_time(0, 0, False, 0.0)


@pytest.mark.parametrize("spec", PRESETS, ids=lambda s: s.name)
def test_cached_rotation_and_geometry(spec):
    drive = DiskDrive(spec)
    assert drive.rotation == rotation_time(spec.rpm)
    assert drive.geometry is spec.geometry()
    spt = drive.geometry.zones[-1].sectors_per_track
    assert 8 * drive.rotation / spt == transfer_time(8, spt, spec.rpm)


# ----------------------------------------------------------------------
# The flat media path against frozen copies of the layered one
# ----------------------------------------------------------------------


class _FrozenCache(DiskCache):
    def read_hit(self, lba, nsectors):
        if not self.config.read_ahead:
            return False
        end = lba + nsectors
        hit = any(start <= lba and end <= stop for start, stop in self._segments)
        if hit and self.obs is not None and self.obs.enabled:
            self.obs.metrics.counter("cache.read_hits").inc()
        return hit


class _FrozenFaults(FaultModel):
    def on_media_access(self, lba, nsectors, base_service, now):
        profile = self.profile
        service = float(base_service)
        first = int(lba) // profile.region_sectors
        last = (int(lba) + int(nsectors) - 1) // profile.region_sectors
        touched = list(range(first, last + 1))

        slow_hit = next((r for r in touched if r in self._slow), None)
        if slow_hit is not None:
            service *= profile.slow_factor

        fault_region = next(
            (
                r
                for r in touched
                if r in self._latent
                and r not in self._reassigned
                and not self._repaired(r, now)
            ),
            None,
        )
        kind: Optional[str] = None
        if fault_region is not None:
            kind = "latent"
        elif (
            profile.transient_error_prob > 0.0
            and self._rng.random() < profile.transient_error_prob
        ):
            kind = "transient"
            fault_region = touched[0]

        obs = self.obs
        observing = obs is not None and obs.enabled
        if kind is None:
            if slow_hit is None:
                return service, None
            if observing:
                obs.metrics.counter("faults.slow_hits").inc()
                obs.emit(
                    "slow_region", now, "faults",
                    lba=int(lba), region=int(slow_hit),
                    penalty=service - float(base_service),
                )
            return service, FaultEvent(
                kind="slow",
                lba=int(lba),
                region=int(slow_hit),
                retries=0,
                penalty=service - float(base_service),
                recovered=True,
                reassigned=False,
            )

        retries = 0
        recovered = False
        for cost in self._retry_costs:
            retries += 1
            service += cost
            if self._rng.random() < profile.retry_success_prob:
                recovered = True
                break

        reassigned = False
        if kind == "latent" and recovered:
            reassigned = self._reassign(fault_region)

        if observing:
            obs.metrics.counter("faults.retries").inc(retries)
            if slow_hit is not None:
                obs.metrics.counter("faults.slow_hits").inc()
            obs.metrics.counter(
                "faults.recovered" if recovered else "faults.hard_failures"
            ).inc()
            obs.emit(
                "retry", now, "faults",
                fault_kind=kind, lba=int(lba), region=int(fault_region),
                retries=retries, recovered=recovered,
                penalty=service - float(base_service),
            )
            if reassigned:
                obs.metrics.counter("faults.reassignments").inc()
                obs.emit(
                    "reassignment", now, "faults",
                    region=int(fault_region),
                    spare_slot=self._reassigned[fault_region],
                )

        return service, FaultEvent(
            kind=kind,
            lba=int(lba),
            region=int(fault_region),
            retries=retries,
            penalty=service - float(base_service),
            recovered=recovered,
            reassigned=reassigned,
        )


class _FrozenDrive(DiskDrive):
    """The layered scalar path: geometry lookups per call and a
    ``uniform(0, rotation)`` draw per positioning."""

    def __init__(self, spec, seed=0, faults=None):
        super().__init__(spec, seed=seed, faults=faults)
        self.cache = _FrozenCache(spec.cache)

    def cylinder_of(self, lba):
        if self.faults is not None:
            lba = self.faults.effective_lba(lba)
        return self.geometry.cylinder_of(lba)

    def service_time(self, lba, nsectors, is_write, now):
        if nsectors <= 0:
            raise DiskModelError(f"nsectors must be > 0, got {nsectors!r}")
        if lba < 0 or lba + nsectors > self.geometry.capacity_sectors:
            raise DiskModelError(
                f"request [{lba}, {lba + nsectors}) exceeds capacity "
                f"{self.geometry.capacity_sectors}"
            )
        faults = self.faults
        if faults is not None:
            self._last_fault = None
        if not is_write and self.cache.read_hit(lba, nsectors):
            return self.spec.cache.hit_overhead
        if is_write and self.cache.absorb_write(nsectors * SECTOR_BYTES, now):
            return self.spec.cache.hit_overhead
        media_lba = lba if faults is None else faults.effective_lba(lba, nsectors)
        target_cylinder = self.geometry.cylinder_of(media_lba)
        if media_lba == self._last_media_end:
            positioning = 0.0
        else:
            distance = abs(target_cylinder - self._head_cylinder)
            latency = float(self._rng.uniform(0.0, self.rotation))
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
        media = nsectors * self.rotation / self.geometry.sectors_per_track_at(media_lba)
        self._head_cylinder = self.geometry.cylinder_of(media_lba + nsectors - 1)
        self._last_media_end = media_lba + nsectors
        if not is_write:
            self.cache.note_read(lba, nsectors)
        service = self.spec.command_overhead + positioning + media
        if faults is not None:
            service, self._last_fault = faults.on_media_access(
                lba, nsectors, service, now
            )
        return service


#: Four zones on a small drive: zone crossings and fault regions are
#: easy to hit, and a 64 KiB write buffer fills, so writes reach media.
_SMALL = DriveSpec(
    name="media-prop",
    rpm=10_000,
    heads=2,
    cylinders=3_000,
    nzones=4,
    outer_spt=200,
    inner_spt=150,
    single_cylinder_seek=ms(0.5),
    full_stroke_seek=ms(4.0),
    cache=CacheConfig(write_buffer_bytes=64 * KIB, read_ahead_sectors=256),
)

_REGION = 2048


def _drive_pair(spec, seed, faulty, repairs):
    """The live drive and its frozen twin, with equal fault models, each
    watched by its own trace-level observer."""
    profile = FaultProfile(
        name="prop",
        latent_region_count=12,
        slow_region_count=12,
        transient_error_prob=0.3,
        region_sectors=_REGION,
        retry_success_prob=0.6,
    )
    drives = []
    for drive_cls, model_cls in ((DiskDrive, FaultModel), (_FrozenDrive, _FrozenFaults)):
        faults = model_cls(profile, spec.geometry(), seed=seed) if faulty else None
        if faults is not None and repairs:
            latent = faults.latent_regions()
            faults.schedule_repairs(
                {latent[i % len(latent)]: when for i, when in repairs}
            )
        drive = drive_cls(spec, seed=seed, faults=faults)
        drive.obs = drive.cache.obs = Observer("trace")
        if faults is not None:
            faults.obs = drive.obs
        drives.append(drive)
    return drives


def _draw_request(data, drive, previous_end):
    """One request aimed at the interesting places: zone edges, fault
    regions (multi-region spans included), the previous read (a cache
    hit), the end of its read-ahead, the previous end (contiguous), or
    anywhere."""
    geometry = drive.geometry
    capacity = geometry.capacity_sectors
    nsectors = data.draw(st.integers(1, 600), label="nsectors")
    where = data.draw(
        st.sampled_from(["zone", "fault", "again", "ahead", "next", "any"]),
        label="where",
    )
    if where == "zone":
        zone = data.draw(st.sampled_from(geometry.zones[1:]), label="zone")
        lba = zone.first_lba - data.draw(st.integers(-8, nsectors + 8), label="back")
    elif where == "fault" and drive.faults is not None:
        faults = drive.faults
        region = data.draw(
            st.sampled_from(faults.latent_regions() + faults.slow_regions()),
            label="region",
        )
        lba = region * _REGION + data.draw(st.integers(-600, _REGION), label="off")
    elif where == "again" and previous_end is not None:
        lba = previous_end - nsectors - data.draw(st.integers(0, 64), label="back")
    elif where == "ahead" and previous_end is not None:
        stop = previous_end + drive.spec.cache.read_ahead_sectors
        lba = stop - nsectors + data.draw(st.integers(-1, 1), label="past")
    elif where == "next" and previous_end is not None:
        lba = previous_end
    else:
        lba = data.draw(st.integers(0, capacity - 1), label="lba")
    return min(max(lba, 0), capacity - nsectors), nsectors


def _state(drive):
    faults = drive.faults
    return (
        drive._head_cylinder,
        drive._last_media_end,
        drive._rng.bit_generator.state,
        None if faults is None else faults._rng.bit_generator.state,
        None if faults is None else dict(faults._reassigned),
    )


@settings(deadline=None, max_examples=60)
@given(
    data=st.data(),
    spec=st.sampled_from([_SMALL, _SMALL.with_cache(CacheConfig.disabled()), cheetah_10k()]),
    seed=st.integers(0, 2**32 - 1),
    faulty=st.booleans(),
    repairs=st.lists(
        st.tuples(st.integers(0, 11), st.sampled_from([0.0, 0.05, 0.2, 1.0])),
        max_size=4,
    ),
)
def test_flat_path_matches_layered(data, spec, seed, faulty, repairs):
    live, frozen = _drive_pair(spec, seed, faulty, repairs)
    now = 0.0
    previous_end = None
    for _ in range(data.draw(st.integers(1, 40), label="requests")):
        lba, nsectors = _draw_request(data, live, previous_end)
        is_write = data.draw(st.booleans(), label="write")
        now += data.draw(st.sampled_from([0.0, 1e-4, 0.002, 0.05]), label="gap")
        got = live.service_time(lba, nsectors, is_write, now)
        expected = frozen.service_time(lba, nsectors, is_write, now)
        assert got == expected
        assert live.take_fault_event() == frozen.take_fault_event()
        assert _state(live) == _state(frozen)
        probe = data.draw(st.integers(0, spec.capacity_sectors - 1), label="probe")
        assert live.cylinder_of(probe) == frozen.cylinder_of(probe)
        previous_end = lba + nsectors
    assert live.obs.metrics.as_dict() == frozen.obs.metrics.as_dict()
    assert live.obs.events.events() == frozen.obs.events.events()
    for lba, nsectors in ((-1, 1), (0, 0), (spec.capacity_sectors - 1, 2)):
        for drive in (live, frozen):
            with pytest.raises(DiskModelError):
                drive.service_time(lba, nsectors, False, now)
    for lba in (-1, spec.capacity_sectors):
        for drive in (live, frozen):
            with pytest.raises(DiskModelError):
                drive.cylinder_of(lba)


def test_media_lba_outside_capacity_raises():
    """The flat path range-checks where the heads would go, as the
    geometry lookups it inlines did."""
    drive, _ = _drive_pair(_SMALL, 3, True, [])
    capacity = _SMALL.capacity_sectors
    for media_lba in (-1, capacity - 4):
        drive.faults.effective_lba = lambda lba, nsectors=1, to=media_lba: to
        with pytest.raises(DiskModelError):
            drive.service_time(0, 8, False, 0.0)
