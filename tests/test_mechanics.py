"""Seek curve, rotation and transfer timing."""

import numpy as np
import pytest

from repro.disk.mechanics import SeekProfile, rotation_time, transfer_time
from repro.errors import DiskModelError
from repro.units import ms


@pytest.fixture
def profile():
    return SeekProfile(single_cylinder=ms(0.5), full_stroke=ms(9.0), max_distance=50_000)


class TestSeekProfile:
    def test_zero_distance_free(self, profile):
        assert profile.seek_time(0) == 0.0

    def test_single_cylinder_pinned(self, profile):
        assert profile.seek_time(1) == pytest.approx(ms(0.5))

    def test_full_stroke_pinned(self, profile):
        assert profile.seek_time(50_000) == pytest.approx(ms(9.0))

    def test_monotone_nondecreasing(self, profile):
        distances = np.unique(np.geomspace(1, 50_000, 200).astype(int))
        times = [profile.seek_time(int(d)) for d in distances]
        assert all(b >= a - 1e-12 for a, b in zip(times, times[1:]))

    def test_continuous_at_regime_boundary(self, profile):
        b = profile.boundary
        below = profile.seek_time(b)
        above = profile.seek_time(b + 1)
        assert abs(above - below) < ms(0.05)

    def test_distance_capped_at_stroke(self, profile):
        assert profile.seek_time(10 ** 9) == pytest.approx(ms(9.0))

    def test_negative_distance_rejected(self, profile):
        with pytest.raises(DiskModelError):
            profile.seek_time(-1)

    def test_invalid_profile_rejected(self):
        with pytest.raises(DiskModelError):
            SeekProfile(single_cylinder=0.0, full_stroke=1.0, max_distance=10)
        with pytest.raises(DiskModelError):
            SeekProfile(single_cylinder=2.0, full_stroke=1.0, max_distance=10)
        with pytest.raises(DiskModelError):
            SeekProfile(single_cylinder=0.1, full_stroke=1.0, max_distance=1)
        with pytest.raises(DiskModelError):
            SeekProfile(0.1, 1.0, 100, boundary_fraction=1.5)


class TestRotation:
    def test_rotation_time(self):
        assert rotation_time(10_000) == pytest.approx(0.006)
        assert rotation_time(15_000) == pytest.approx(0.004)

    def test_bad_rpm_rejected(self):
        with pytest.raises(DiskModelError):
            rotation_time(0)


class TestTransfer:
    def test_full_track_takes_one_revolution(self):
        assert transfer_time(1000, 1000, 10_000) == pytest.approx(rotation_time(10_000))

    def test_scales_linearly_with_sectors(self):
        one = transfer_time(10, 500, 10_000)
        two = transfer_time(20, 500, 10_000)
        assert two == pytest.approx(2 * one)

    def test_outer_zone_faster(self):
        inner = transfer_time(100, 500, 10_000)
        outer = transfer_time(100, 1000, 10_000)
        assert outer < inner

    def test_bad_args_rejected(self):
        with pytest.raises(DiskModelError):
            transfer_time(0, 100, 10_000)
        with pytest.raises(DiskModelError):
            transfer_time(1, 0, 10_000)
