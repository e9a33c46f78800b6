"""Zoned disk geometry."""

import pytest

from repro.disk.geometry import DiskGeometry, Zone
from repro.errors import DiskModelError


def small_geometry():
    # 2 zones x 10 cylinders, 2 heads; zone 0: 100 spt, zone 1: 50 spt.
    return DiskGeometry(heads=2, zone_cylinders=[10, 10], zone_sectors_per_track=[100, 50])


class TestZone:
    def test_invalid_zone_rejected(self):
        with pytest.raises(DiskModelError):
            Zone(first_cylinder=0, cylinders=0, sectors_per_track=10, first_lba=0)
        with pytest.raises(DiskModelError):
            Zone(first_cylinder=0, cylinders=1, sectors_per_track=0, first_lba=0)


class TestDiskGeometry:
    def test_capacity(self):
        g = small_geometry()
        assert g.capacity_sectors == 10 * 2 * 100 + 10 * 2 * 50
        assert g.total_cylinders == 20

    def test_zone_lookup(self):
        g = small_geometry()
        assert g.zone_of(0).sectors_per_track == 100
        assert g.zone_of(1999).sectors_per_track == 100
        assert g.zone_of(2000).sectors_per_track == 50
        assert g.zone_of(g.capacity_sectors - 1).sectors_per_track == 50

    def test_cylinder_of(self):
        g = small_geometry()
        assert g.cylinder_of(0) == 0
        assert g.cylinder_of(199) == 0  # 200 sectors per cylinder in zone 0
        assert g.cylinder_of(200) == 1
        assert g.cylinder_of(2000) == 10  # first cylinder of zone 1
        assert g.cylinder_of(2099) == 10  # 100 sectors per cylinder in zone 1
        assert g.cylinder_of(2100) == 11

    def test_last_lba_maps_to_last_cylinder(self):
        g = small_geometry()
        assert g.cylinder_of(g.capacity_sectors - 1) == 19

    def test_lba_bounds_checked(self):
        g = small_geometry()
        with pytest.raises(DiskModelError):
            g.cylinder_of(-1)
        with pytest.raises(DiskModelError):
            g.cylinder_of(g.capacity_sectors)

    def test_sectors_per_track_at(self):
        g = small_geometry()
        assert g.sectors_per_track_at(0) == 100
        assert g.sectors_per_track_at(2500) == 50

    def test_mismatched_zone_lists_rejected(self):
        with pytest.raises(DiskModelError):
            DiskGeometry(heads=2, zone_cylinders=[1, 2], zone_sectors_per_track=[10])

    def test_no_zones_rejected(self):
        with pytest.raises(DiskModelError):
            DiskGeometry(heads=2, zone_cylinders=[], zone_sectors_per_track=[])

    def test_bad_heads_rejected(self):
        with pytest.raises(DiskModelError):
            DiskGeometry(heads=0, zone_cylinders=[1], zone_sectors_per_track=[10])


class TestUniformFactory:
    def test_cylinder_count_exact(self):
        g = DiskGeometry.uniform(heads=4, cylinders=1003, nzones=10)
        assert g.total_cylinders == 1003

    def test_spt_interpolates_outer_to_inner(self):
        g = DiskGeometry.uniform(nzones=5, outer_spt=1000, inner_spt=600)
        spts = [z.sectors_per_track for z in g.zones]
        assert spts[0] == 1000
        assert spts[-1] == 600
        assert spts == sorted(spts, reverse=True)

    def test_single_zone(self):
        g = DiskGeometry.uniform(nzones=1, cylinders=100, outer_spt=500)
        assert len(g.zones) == 1
        assert g.zones[0].sectors_per_track == 500

    def test_bad_params_rejected(self):
        with pytest.raises(DiskModelError):
            DiskGeometry.uniform(nzones=0)
        with pytest.raises(DiskModelError):
            DiskGeometry.uniform(cylinders=2, nzones=10)

    def test_repr_mentions_capacity(self):
        assert "capacity" in repr(DiskGeometry.uniform())
