"""Mechanical timing: seek curve, rotation and media transfer.

The standard disk-timing decomposition is

``service = overhead + seek(distance) + rotational latency + transfer``.

The seek curve uses the classical two-regime model (square-root for short
seeks where the arm is accelerating, linear for long coasting seeks),
pinned to the three numbers drive data sheets publish: single-cylinder,
average, and full-stroke seek time.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from repro.errors import DiskModelError


@dataclass(frozen=True)
class SeekProfile:
    """A seek-time curve calibrated from data-sheet figures.

    Attributes
    ----------
    single_cylinder:
        Seek time for a 1-cylinder move, seconds.
    full_stroke:
        Seek time across the whole stroke, seconds.
    max_distance:
        Stroke length in cylinders.
    boundary_fraction:
        Fraction of the stroke below which the square-root (acceleration)
        regime applies; the linear regime covers the rest. 0.3 matches
        measured curves of the era well.
    """

    single_cylinder: float
    full_stroke: float
    max_distance: int
    boundary_fraction: float = 0.3

    def __post_init__(self) -> None:
        if self.single_cylinder <= 0 or self.full_stroke <= self.single_cylinder:
            raise DiskModelError(
                "need 0 < single_cylinder < full_stroke, got "
                f"{self.single_cylinder!r} and {self.full_stroke!r}"
            )
        if self.max_distance <= 1:
            raise DiskModelError(f"max_distance must be > 1, got {self.max_distance!r}")
        if not 0.0 < self.boundary_fraction < 1.0:
            raise DiskModelError(
                f"boundary_fraction must be in (0, 1), got {self.boundary_fraction!r}"
            )
        # The curve's constants, derived once. sqrt regime:
        # t(d) = single + k * (sqrt(d) - 1), pinned so that
        # t(1) = single_cylinder and t(b) = t_boundary; linear regime:
        # t(d) = t_boundary + slope * (d - b). ``math.sqrt`` and
        # ``np.sqrt`` are both the correctly rounded float64 square root.
        boundary = max(2, int(self.boundary_fraction * self.max_distance))
        single = self.single_cylinder
        t_boundary = single + (self.full_stroke - single) * (
            sqrt(boundary) - 1.0
        ) / (sqrt(self.max_distance) - 1.0)
        object.__setattr__(self, "boundary", boundary)
        object.__setattr__(self, "t_boundary", t_boundary)
        object.__setattr__(self, "k", (t_boundary - single) / (sqrt(boundary) - 1.0))
        object.__setattr__(
            self, "slope", (self.full_stroke - t_boundary) / (self.max_distance - boundary)
        )

    def seek_time(self, distance: int) -> float:
        """Seek time in seconds for a move of ``distance`` cylinders.

        0 for distance 0; square-root growth up to the regime boundary;
        linear from the boundary to the full stroke. The curve is
        continuous and monotone by construction.
        """
        if distance < 0:
            raise DiskModelError(f"seek distance must be >= 0, got {distance!r}")
        if distance == 0:
            return 0.0
        d = min(distance, self.max_distance)
        if d <= self.boundary:
            return self.single_cylinder + self.k * (sqrt(d) - 1.0)
        return self.t_boundary + self.slope * (d - self.boundary)

    def seek_times(self, distances: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`seek_time` over an array of distances.

        Evaluates the same two-regime curve with the same floating-point
        operations, so each element equals the scalar result exactly.
        """
        d = np.asarray(distances, dtype=np.int64)
        if d.size and int(d.min()) < 0:
            raise DiskModelError(f"seek distance must be >= 0, got {int(d.min())!r}")
        d = np.minimum(d, self.max_distance)
        sqrt_regime = self.single_cylinder + self.k * (np.sqrt(d) - 1.0)
        linear_regime = self.t_boundary + self.slope * (d - self.boundary)
        times = np.where(d <= self.boundary, sqrt_regime, linear_regime)
        return np.where(d == 0, 0.0, times)


def rotation_time(rpm: float) -> float:
    """Time of one full platter revolution in seconds."""
    if rpm <= 0:
        raise DiskModelError(f"rpm must be > 0, got {rpm!r}")
    return 60.0 / rpm


def transfer_time(nsectors: int, sectors_per_track: int, rpm: float) -> float:
    """Media transfer time for ``nsectors`` at the given track density.

    One revolution reads one track, so the rate is
    ``sectors_per_track / rotation_time`` sectors per second. Track and
    cylinder switch overheads are folded into the drive's fixed overhead
    rather than modeled per boundary.
    """
    if nsectors <= 0:
        raise DiskModelError(f"nsectors must be > 0, got {nsectors!r}")
    if sectors_per_track <= 0:
        raise DiskModelError(
            f"sectors_per_track must be > 0, got {sectors_per_track!r}"
        )
    return nsectors * rotation_time(rpm) / sectors_per_track
