"""P1 — Perf regression: replay-engine throughput.

Measures requests simulated per wall-clock second for a fixed workload
matrix, on both the fast replay paths and the reference event loop, and
writes the numbers to ``BENCH_simulator.json`` at the repo root so future
PRs have a trajectory to compare against.

The matrix pins four engine configurations:

* ``fcfs-vectorized`` — FCFS on a cache-disabled drive: the fully
  vectorized path (no per-request Python);
* ``fcfs-columnar`` — FCFS with the write-back cache on: the columnar
  loop's arrival-order branch over the trace's structured request array;
* ``sstf-columnar`` — SSTF with full queue visibility: the columnar
  loop with an unbounded sorted window and the bisect pick kernel;
* ``sstf-windowed`` — SSTF behind an NCQ window (``queue_depth=32``):
  the columnar loop with a 32-entry window.

Each configuration's ``speedup`` is the fast path over a *yardstick*: the
reference event loop on the identical trace, driving a drive whose
scalar media path is a frozen copy of the layered one it once was: its
``service_time`` and ``cylinder_of`` go through the geometry's
``cylinder_of``/``sectors_per_track_at`` per call, over one scalar
``np.searchsorted`` per zone lookup, re-derive the seek curve's
constants with ``np.sqrt`` on every call, draw each rotational latency
with ``uniform`` and scan the read-ahead segments with ``any`` (see
:func:`yardstick_drive`). The live reference loop shares
``DiskDrive.service_time`` with hook mode, so every speed-up of the
drive's scalar path speeds the oracle too; a ratio over the live loop
would then read a faster oracle as a slower fast engine. The yardstick
keeps the denominator fixed. It must replay bit-identically to the live
``fast_path=False`` run, which every row asserts, and the live reference
rate is still recorded as ``reference_requests_per_sec``.

The cached configurations carry a pinned ``min_speedup`` floor (>= 4x,
the columnar-pass acceptance bar); the vectorized path keeps its
original >= 5x floor.

Run directly (``python benchmarks/bench_perf_simulator.py``) or via
pytest; both rewrite the artifact. Set ``REPRO_BENCH_QUICK=1`` (the CI
perf-smoke job does) for a shorter span and fewer repetitions — floors
are still asserted, on smaller traces.
"""

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import DRIVE, SEED, save_result, run_experiments

import numpy as np

from repro.core.report import Table
from repro.core.runner import ExperimentJob
from repro.disk.cache import CacheConfig, DiskCache
from repro.disk.drive import DiskDrive
from repro.disk.geometry import DiskGeometry
from repro.disk.mechanics import SeekProfile
from repro.disk.simulator import DiskSimulator
from repro.errors import DiskModelError
from repro.synth.profiles import get_profile
from repro.units import SECTOR_BYTES

ARTIFACT = Path(__file__).parent.parent / "BENCH_simulator.json"

#: ``REPRO_BENCH_QUICK=1``: shrink spans/repetitions for CI smoke runs.
QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

_SPAN = 10.0 if QUICK else 60.0

#: The fixed workload matrix: heavy enough that queues actually build.
#: ``min_speedup`` is each row's pinned acceptance floor (fast engine
#: over the reference event loop); floors are deliberately conservative
#: against noisy shared boxes — measured speedups run far higher.
MATRIX = (
    {"name": "fcfs-vectorized", "scheduler": "fcfs", "cache": False,
     "queue_depth": None, "profile": "database", "rate": 300.0,
     "span": _SPAN, "min_speedup": 5.0},
    {"name": "fcfs-columnar", "scheduler": "fcfs", "cache": True,
     "queue_depth": None, "profile": "database", "rate": 300.0,
     "span": _SPAN, "min_speedup": 4.0},
    {"name": "sstf-columnar", "scheduler": "sstf", "cache": True,
     "queue_depth": None, "profile": "database", "rate": 300.0,
     "span": _SPAN, "min_speedup": 4.0},
    {"name": "sstf-windowed", "scheduler": "sstf", "cache": True,
     "queue_depth": 32, "profile": "database", "rate": 300.0,
     "span": _SPAN, "min_speedup": 4.0},
)

#: Acceptance floor: the vectorized FCFS path must beat the event loop
#: by at least this factor.
MIN_FCFS_SPEEDUP = 5.0


class _SearchsortedGeometry(DiskGeometry):
    """The frozen zone lookup: one scalar ``np.searchsorted`` over the
    zones' first LBAs per call."""

    def zone_of(self, lba):
        self._check_lba(lba)
        index = int(np.searchsorted(self._zone_first_lbas, lba, side="right")) - 1
        return self.zones[index]


class _PerCallSeek(SeekProfile):
    """The frozen seek curve: every call re-derives the boundary and the
    curve's constants with ``np.sqrt``."""

    def seek_time(self, distance):
        if distance < 0:
            raise DiskModelError(f"seek distance must be >= 0, got {distance!r}")
        if distance == 0:
            return 0.0
        d = min(distance, self.max_distance)
        b = max(2, int(self.boundary_fraction * self.max_distance))
        t_boundary = self.single_cylinder + (self.full_stroke - self.single_cylinder) * (
            np.sqrt(b) - 1.0
        ) / (np.sqrt(self.max_distance) - 1.0)
        if d <= b:
            k = (t_boundary - self.single_cylinder) / (np.sqrt(b) - 1.0)
            return float(self.single_cylinder + k * (np.sqrt(d) - 1.0))
        slope = (self.full_stroke - t_boundary) / (self.max_distance - b)
        return float(t_boundary + slope * (d - b))


class _AnyCache(DiskCache):
    """The frozen read-ahead lookup: one ``any`` over a generator."""

    def read_hit(self, lba, nsectors):
        if not self.config.read_ahead:
            return False
        end = lba + nsectors
        hit = any(start <= lba and end <= stop for start, stop in self._segments)
        if hit and self.obs is not None and self.obs.enabled:
            self.obs.metrics.counter("cache.read_hits").inc()
        return hit


class _LayeredDrive(DiskDrive):
    """The frozen scalar media path: every lookup through the geometry,
    a ``uniform(0, rotation)`` draw per positioning."""

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
        contiguous = media_lba == self._last_media_end
        if contiguous:
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


def yardstick_drive(spec):
    """A drive of ``spec`` whose media path, geometry, seek curve and
    read-ahead lookup are the frozen copies above: the fixed denominator
    of every ``speedup``."""
    drive = _LayeredDrive(spec, seed=SEED)
    drive.cache = _AnyCache(spec.cache)
    drive.geometry = _SearchsortedGeometry.uniform(
        heads=spec.heads,
        cylinders=spec.cylinders,
        nzones=spec.nzones,
        outer_spt=spec.outer_spt,
        inner_spt=spec.inner_spt,
    )
    drive.seek = _PerCallSeek(
        single_cylinder=spec.single_cylinder_seek,
        full_stroke=spec.full_stroke_seek,
        max_distance=spec.cylinders,
    )
    return drive


def _drive_for(config):
    return DRIVE if config["cache"] else DRIVE.with_cache(CacheConfig.disabled())


def _trace_for(config, drive):
    profile = get_profile(config["profile"]).with_rate(config["rate"])
    return profile.synthesize(
        span=config["span"], capacity_sectors=drive.capacity_sectors, seed=SEED
    )


def _replay_rate(simulator, trace, repetitions=3):
    """Best-of-``repetitions`` requests per second, and the last result."""
    best = float("inf")
    for _ in range(repetitions):
        t0 = time.perf_counter()
        result = simulator.run(trace)
        best = min(best, time.perf_counter() - t0)
    return len(trace) / best, result


def measure_matrix():
    """Time every matrix entry on the fast engine, the live reference
    loop and the yardstick; returns the row dicts."""
    rows = []
    for config in MATRIX:
        drive = _drive_for(config)
        trace = _trace_for(config, drive)
        fast, _ = _replay_rate(
            DiskSimulator(
                drive, scheduler=config["scheduler"], seed=SEED,
                queue_depth=config["queue_depth"],
            ),
            trace,
            repetitions=2 if QUICK else 3,
        )
        reference, live = _replay_rate(
            DiskSimulator(
                drive, scheduler=config["scheduler"], seed=SEED,
                queue_depth=config["queue_depth"], fast_path=False,
            ),
            trace,
            repetitions=1,
        )
        yardstick, frozen = _replay_rate(
            DiskSimulator(
                yardstick_drive(drive), scheduler=config["scheduler"], seed=SEED,
                queue_depth=config["queue_depth"], fast_path=False,
            ),
            trace,
            repetitions=1,
        )
        assert np.array_equal(frozen.start_times, live.start_times), config["name"]
        assert np.array_equal(frozen.service_times, live.service_times), config["name"]
        rows.append(
            {
                **config,
                "drive": drive.name,
                "n_requests": len(trace),
                "fast_requests_per_sec": round(fast, 1),
                "reference_requests_per_sec": round(reference, 1),
                "yardstick_requests_per_sec": round(yardstick, 1),
                "speedup": round(fast / yardstick, 2),
            }
        )
    return rows


def write_artifact(rows):
    """Persist the perf numbers (plus a parallel-runner datapoint) to
    ``BENCH_simulator.json``."""
    jobs = [
        ExperimentJob(
            profile=get_profile(c["profile"]).with_rate(c["rate"]),
            drive=_drive_for(c),
            scheduler=c["scheduler"],
            seed=SEED,
            span=c["span"],
            queue_depth=c["queue_depth"],
        )
        for c in MATRIX
    ]
    t0 = time.perf_counter()
    parallel_results = run_experiments(jobs)
    suite_wall = time.perf_counter() - t0
    fcfs = next(r for r in rows if r["name"] == "fcfs-vectorized")
    payload = {
        "schema": 3,
        "quick": QUICK,
        "generated_by": "benchmarks/bench_perf_simulator.py",
        "seed": SEED,
        "matrix": rows,
        "fcfs_fast_path_speedup": fcfs["speedup"],
        "suite": {
            "jobs": len(jobs),
            "total_requests": sum(r.n_requests for r in parallel_results),
            "wall_seconds": round(suite_wall, 3),
            "requests_per_sec": round(
                sum(r.n_requests for r in parallel_results) / suite_wall, 1
            ),
        },
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def render_table(rows):
    table = Table(
        ["config", "scheduler", "requests", "fast_req_s", "reference_req_s",
         "yardstick_req_s", "speedup"],
        title="P1: replay-engine throughput (fast path vs the yardstick event loop)",
        precision=1,
    )
    for row in rows:
        table.add_row(
            [
                row["name"], row["scheduler"], row["n_requests"],
                round(row["fast_requests_per_sec"]),
                round(row["reference_requests_per_sec"]),
                round(row["yardstick_requests_per_sec"]),
                row["speedup"],
            ]
        )
    return table.render()


def test_perf_simulator():
    rows = measure_matrix()
    payload = write_artifact(rows)
    save_result("perf_simulator", render_table(rows))
    assert ARTIFACT.exists()
    assert payload["fcfs_fast_path_speedup"] >= MIN_FCFS_SPEEDUP
    # Every row carries its own pinned floor (the cached/columnar rows
    # must clear the columnar-pass acceptance bar of 4x).
    for row in rows:
        assert row["speedup"] >= row["min_speedup"], row


if __name__ == "__main__":
    computed_rows = measure_matrix()
    print(render_table(computed_rows))
    artifact = write_artifact(computed_rows)
    print(f"wrote {ARTIFACT} (fcfs speedup {artifact['fcfs_fast_path_speedup']}x)")
