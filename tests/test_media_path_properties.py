"""The drive's scalar media path agrees with its vectorized twin.

``DiskGeometry.cylinder_of``/``sectors_per_track_at`` (bisect over the
zones' first LBAs) and ``SeekProfile.seek_time`` (constants derived once,
``math.sqrt``) serve hook mode and the reference event loop one request
at a time; ``cylinders_of``/``sectors_per_track_of``/``seek_times`` serve
the batch paths. Every element must agree exactly, for every preset.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.drive import DiskDrive, cheetah_10k, cheetah_15k, nearline_7200
from repro.disk.mechanics import rotation_time, transfer_time
from repro.errors import DiskModelError

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
