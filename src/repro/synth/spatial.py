"""Spatial (LBA) models: where on the platter requests land.

The positioning cost the disk model charges — and therefore utilization —
depends on the access pattern's locality, so the spatial model matters as
much as the arrival process. Three models cover the realistic range:

* :class:`UniformSpatial` — every request lands anywhere (worst-case
  seeks; a useful stress baseline);
* :class:`SequentialRuns` — runs of back-to-back sequential requests
  interleaved with jumps, the classic file-server/streaming pattern;
* :class:`ZipfHotspots` — a Zipf-popular set of hot zones, the classic
  database/OLTP pattern.

A spatial model is a callable: given per-request sizes, return start
LBAs such that every request fits within the capacity.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SynthesisError


def _check_capacity(capacity_sectors: int) -> None:
    if capacity_sectors <= 0:
        raise SynthesisError(
            f"capacity_sectors must be > 0, got {capacity_sectors!r}"
        )


def _fit_start(start: np.ndarray, sizes: np.ndarray, capacity: int) -> np.ndarray:
    """Clamp start LBAs so ``start + size <= capacity`` element-wise."""
    limit = np.maximum(capacity - sizes, 0)
    return np.minimum(start, limit)


class UniformSpatial:
    """Starts drawn uniformly over the whole address space."""

    def __init__(self, capacity_sectors: int) -> None:
        _check_capacity(capacity_sectors)
        self.capacity_sectors = int(capacity_sectors)

    def generate(self, rng: np.random.Generator, sizes: np.ndarray) -> np.ndarray:
        """Start LBAs for requests of the given ``sizes``."""
        sizes = np.asarray(sizes, dtype=np.int64)
        starts = rng.integers(0, self.capacity_sectors, size=sizes.size)
        return _fit_start(starts, sizes, self.capacity_sectors)


class SequentialRuns:
    """Sequential runs: each request continues where the previous ended,
    until the run (geometric length) expires and the stream jumps to a
    uniformly random new position.

    Parameters
    ----------
    capacity_sectors:
        Address-space size.
    mean_run_length:
        Mean number of requests per sequential run (>= 1). The achieved
        sequentiality fraction is approximately ``1 - 1/mean_run_length``.
    """

    def __init__(self, capacity_sectors: int, mean_run_length: float = 8.0) -> None:
        _check_capacity(capacity_sectors)
        if mean_run_length < 1.0:
            raise SynthesisError(
                f"mean_run_length must be >= 1, got {mean_run_length!r}"
            )
        self.capacity_sectors = int(capacity_sectors)
        self.mean_run_length = float(mean_run_length)

    def generate(self, rng: np.random.Generator, sizes: np.ndarray) -> np.ndarray:
        """Start LBAs for requests of the given ``sizes``."""
        sizes = np.asarray(sizes, dtype=np.int64)
        n = sizes.size
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        capacity = self.capacity_sectors
        continue_p = 1.0 - 1.0 / self.mean_run_length
        jumps = rng.uniform(size=n) >= continue_p
        jumps[0] = True
        heads = np.flatnonzero(jumps)
        # One scalar draw per run, in run order: the draws (and the
        # generator state they leave) of a request-by-request walk.
        targets = np.array(
            [int(rng.integers(0, capacity)) for _ in range(heads.size)],
            dtype=np.int64,
        )
        # Inside a run each request starts where the previous one ended.
        run = np.cumsum(jumps) - 1
        offsets = np.cumsum(sizes) - sizes
        starts = targets[run] + offsets - offsets[heads][run]
        # A run wraps to LBA 0 at its first request that would pass the
        # end of the disk; up to there the placement above is exact, so
        # only the runs that overflow are walked again with that rule.
        overflowing = np.flatnonzero(starts + sizes > capacity)
        if overflowing.size:
            bounds = np.append(heads, n).tolist()
            for r in sorted(set(run[overflowing].tolist())):
                position = int(targets[r])
                for i in range(bounds[r], bounds[r + 1]):
                    if position + sizes[i] > capacity:
                        position = 0
                    starts[i] = position
                    position += int(sizes[i])
        return starts


class ZipfHotspots:
    """Zipf-popular hot zones: the address space is divided into equal
    zones whose popularity follows a Zipf law; requests land uniformly
    inside their chosen zone.

    Parameters
    ----------
    capacity_sectors:
        Address-space size.
    n_zones:
        Number of equal-size zones.
    exponent:
        Zipf exponent (0 = uniform zone popularity; ~1 = classic skew).
    """

    def __init__(
        self, capacity_sectors: int, n_zones: int = 64, exponent: float = 1.0
    ) -> None:
        _check_capacity(capacity_sectors)
        if n_zones <= 0 or n_zones > capacity_sectors:
            raise SynthesisError(
                f"n_zones must be in [1, capacity], got {n_zones!r}"
            )
        if exponent < 0:
            raise SynthesisError(f"exponent must be >= 0, got {exponent!r}")
        self.capacity_sectors = int(capacity_sectors)
        self.n_zones = int(n_zones)
        self.exponent = float(exponent)
        weights = 1.0 / np.power(np.arange(1, self.n_zones + 1), self.exponent)
        self._popularity = weights / weights.sum()

    def generate(self, rng: np.random.Generator, sizes: np.ndarray) -> np.ndarray:
        """Start LBAs for requests of the given ``sizes``."""
        sizes = np.asarray(sizes, dtype=np.int64)
        n = sizes.size
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        # Popular zones are scattered over the platter (popularity rank
        # is not radial position), matching how hot tables and logs land.
        zone_of_rank = np.random.default_rng(12345).permutation(self.n_zones)
        ranks = rng.choice(self.n_zones, size=n, p=self._popularity)
        zones = zone_of_rank[ranks]
        zone_size = self.capacity_sectors // self.n_zones
        offsets = rng.integers(0, max(zone_size, 1), size=n)
        starts = zones.astype(np.int64) * zone_size + offsets
        return _fit_start(starts, sizes, self.capacity_sectors)
