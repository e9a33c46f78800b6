"""The hybrid SSD/HDD device: an SSD cache tier fronting a disk drive.

:class:`TieredDevice` wraps a :class:`~repro.disk.drive.DiskDrive` and
exposes the same per-request surface the replay engines drive
(``service_time`` / ``cylinder_of`` / ``head_cylinder`` /
``take_fault_event``), so the columnar loop (in hook mode) and the
reference event loop replay through a tier without changing a line of
engine code. With no tier configured the simulator hands the
engines the bare drive, which is what keeps ``tier=None`` runs
bit-identical to a simulator that predates the tier.

Admission modes (the two exemplar cache-tier disciplines):

* ``"wt"`` (write-through): writes always take HDD timing; resident
  chunks are updated in place so flash never goes stale, but nothing is
  allocated on a write miss. Reads allocate on miss. Flash never holds
  dirty data, so evictions are free — the millisecond write latency is
  the HDD's, and only reads feel the tier.
* ``"wb"`` (write-back): writes that land on resident chunks complete at
  SSD speed and mark the chunk dirty; dirty chunks destage in the
  background every ``flush_interval`` seconds (interval flush), and a
  dirty chunk evicted to make room for an admission is destaged
  *synchronously* — the foreground request pays the HDD write, which is
  exactly where write-back's miss-tail inflation comes from.

Eviction picks the coldest resident chunk, ``min((score, chunk))``,
without scoring every resident chunk when the policy allows it (see
:attr:`~repro.tier.policy.HeatPolicy.indexable`). For ``lru`` the
resident map is kept in last-touch order: a touched resident chunk moves
to the end and an admitted one is appended, so the victim is the first
chunk not being admitted, with ties broken by the lowest id inside its
block of equal last-touch times; migration promotions re-sort the map.
That costs no score call and no index entry. ``lfu`` keeps a victim
heap of ``(score, chunk)`` entries with lazy invalidation, so an
eviction costs O(log capacity); ``rf`` and ``learned`` rank by ``now``
as well and keep the scan.

Approximation notes (mirroring :mod:`repro.disk.cache`): interval
flushes and migration copies are background traffic — they are counted
(bytes, runs, chunk moves) but do not occupy the foreground timeline.
Synchronous work — miss reads, write-through writes, write-back
fall-through writes, dirty-eviction destages — goes through the real
drive model and therefore advances head position, cache state and the
rotational-latency RNG. Byte conservation (``dirtied == flushed +
dirty remainder``) holds exactly and is asserted by property tests.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.disk.drive import DiskDrive
from repro.errors import TierError
from repro.tier.migration import MigrationEngine
from repro.tier.policy import LruPolicy, available_heat_policies, make_heat_policy
from repro.tier.ssd import SsdSpec
from repro.units import MIB, SECTOR_BYTES

#: Admission modes: write-through and write-back.
TIER_MODES = ("wt", "wb")

#: The ``lfu`` victim heap is rebuilt from the resident set once it holds more
#: than ``HEAP_COMPACT_FACTOR * resident + HEAP_COMPACT_SLACK`` entries:
#: every touch of a resident chunk pushes one, so a run that only hits
#: would otherwise grow it without bound.
HEAP_COMPACT_FACTOR = 2
HEAP_COMPACT_SLACK = 32


@dataclass(frozen=True)
class TierConfig:
    """Configuration of the SSD cache tier.

    A config, not a device: the simulator materializes a fresh
    :class:`TieredDevice` from it every run (the pattern
    :class:`~repro.disk.faults.FaultProfile` set), so repeated runs are
    independent and deterministic.

    Attributes
    ----------
    mode:
        ``"wt"`` (write-through) or ``"wb"`` (write-back).
    policy:
        Heat-policy name (see
        :func:`~repro.tier.policy.available_heat_policies`).
    capacity_bytes:
        Flash capacity available to cached chunks.
    chunk_sectors:
        Migration/placement granularity in sectors.
    flush_interval:
        Seconds between background destages of dirty chunks (write-back
        only).
    migrate_interval:
        Seconds between migration epochs (``0`` disables the engine;
        admission-on-miss still runs).
    migrate_chunks_per_epoch:
        Per-epoch bound on promoted + demoted chunks.
    ssd:
        The flash latency model.
    """

    mode: str = "wb"
    policy: str = "lru"
    capacity_bytes: int = 64 * MIB
    chunk_sectors: int = 2048
    flush_interval: float = 1.0
    migrate_interval: float = 5.0
    migrate_chunks_per_epoch: int = 64
    ssd: SsdSpec = field(default_factory=SsdSpec)

    def __post_init__(self) -> None:
        if self.mode not in TIER_MODES:
            raise TierError(
                f"unknown tier mode {self.mode!r}; expected one of {TIER_MODES}"
            )
        if self.policy not in available_heat_policies():
            raise TierError(
                f"unknown heat policy {self.policy!r}; "
                f"available: {available_heat_policies()}"
            )
        if self.chunk_sectors <= 0:
            raise TierError(
                f"chunk_sectors must be > 0, got {self.chunk_sectors!r}"
            )
        if self.capacity_bytes < self.chunk_sectors * SECTOR_BYTES:
            raise TierError(
                f"capacity_bytes {self.capacity_bytes!r} holds less than one "
                f"chunk of {self.chunk_sectors} sectors"
            )
        if self.flush_interval <= 0:
            raise TierError(
                f"flush_interval must be > 0, got {self.flush_interval!r}"
            )
        if self.migrate_interval < 0:
            raise TierError(
                f"migrate_interval must be >= 0, got {self.migrate_interval!r}"
            )
        if self.migrate_chunks_per_epoch < 1:
            raise TierError(
                "migrate_chunks_per_epoch must be >= 1, got "
                f"{self.migrate_chunks_per_epoch!r}"
            )

    @property
    def chunk_bytes(self) -> int:
        return self.chunk_sectors * SECTOR_BYTES

    @property
    def capacity_chunks(self) -> int:
        return self.capacity_bytes // self.chunk_bytes

    @property
    def name(self) -> str:
        """Compact label for job labels and reports: ``wb:lru``."""
        return f"{self.mode}:{self.policy}"


class TierStats:
    """Mutable per-run tier accounting (reset with the device).

    Foreground traffic splits into flash-served and HDD-served bytes;
    background traffic (interval flushes, eviction destages, migration
    copies) is counted separately so offload numbers describe what the
    *host-visible* requests felt.
    """

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0
        self.read_hits = 0
        self.write_hits = 0
        self.bytes_total = 0
        self.bytes_to_hdd = 0
        self.dirtied_bytes = 0
        self.flushed_bytes = 0
        self.flush_runs = 0
        self.evictions = 0
        self.dirty_evictions = 0
        self.promoted_chunks = 0
        self.demoted_chunks = 0
        self.migration_epochs = 0
        self.migrated_bytes = 0

    @property
    def requests(self) -> int:
        return self.reads + self.writes

    @property
    def hits(self) -> int:
        return self.read_hits + self.write_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served at flash speed."""
        return self.hits / self.requests if self.requests else float("nan")

    @property
    def hdd_offload(self) -> float:
        """Fraction of foreground bytes the HDD never saw."""
        if not self.bytes_total:
            return float("nan")
        return 1.0 - self.bytes_to_hdd / self.bytes_total

    def as_dict(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "reads": self.reads,
            "writes": self.writes,
            "read_hits": self.read_hits,
            "write_hits": self.write_hits,
            "hit_rate": self.hit_rate,
            "bytes_total": self.bytes_total,
            "bytes_to_hdd": self.bytes_to_hdd,
            "hdd_offload": self.hdd_offload,
            "dirtied_bytes": self.dirtied_bytes,
            "flushed_bytes": self.flushed_bytes,
            "flush_runs": self.flush_runs,
            "evictions": self.evictions,
            "dirty_evictions": self.dirty_evictions,
            "promoted_chunks": self.promoted_chunks,
            "demoted_chunks": self.demoted_chunks,
            "migration_epochs": self.migration_epochs,
            "migrated_bytes": self.migrated_bytes,
        }


class TieredDevice:
    """A drive with an SSD cache tier in front, replay-engine compatible.

    The engines only ever call :meth:`service_time`,
    :meth:`take_fault_event`, :meth:`cylinder_of` and read
    :attr:`head_cylinder` / :attr:`faults`; everything mechanical
    delegates to the wrapped drive, and the tier decides which requests
    reach it.
    """

    def __init__(self, drive: DiskDrive, config: TierConfig) -> None:
        self.drive = drive
        self.config = config
        self.policy = make_heat_policy(config.policy)
        self.engine = (
            MigrationEngine(
                self.policy,
                capacity_chunks=config.capacity_chunks,
                chunks_per_epoch=config.migrate_chunks_per_epoch,
            )
            if config.migrate_interval > 0
            else None
        )
        # Config values the per-request path reads, looked up once.
        self._capacity_chunks = config.capacity_chunks
        self._chunk_sectors = config.chunk_sectors
        self._chunk_bytes = config.chunk_bytes
        self._write_back = config.mode == "wb"
        self._ssd = config.ssd
        self.stats = TierStats()
        #: Per-request hit flags in *service order*; the simulator maps
        #: them back to trace order through the start-time permutation.
        self.hit_log: List[bool] = []
        #: chunk id -> dirty flag for every flash-resident chunk. For
        #: ``lru`` it iterates in non-decreasing last-touch order (an
        #: ordered map, so evicting from the front stays O(1)).
        self._resident: OrderedDict[int, bool] = OrderedDict()
        #: ``lru`` finds its victim at the front of ``_resident``.
        self._recency = type(self.policy) is LruPolicy
        #: The latest request time seen; a request before it (a clock
        #: that went backwards, which no replay engine produces) leaves
        #: ``_resident`` out of order until the next eviction re-sorts it.
        self._latest = float("-inf")
        self._unordered = False
        #: Victim heap of the other indexable policies (None: recency
        #: order or scan). Every resident chunk has an entry holding its
        #: current score; entries of evicted or since-touched chunks are
        #: stale and are dropped when they reach the top.
        self._heap: Optional[List[Tuple[float, int]]] = (
            [] if self.policy.indexable and not self._recency else None
        )
        self._next_flush = config.flush_interval
        self._next_migrate = config.migrate_interval if self.engine else float("inf")
        #: The earlier of the two schedules: requests before it skip
        #: :meth:`_advance` entirely.
        self._next_epoch = min(self._next_flush, self._next_migrate)
        self._pending_fault = None
        #: Optional :class:`~repro.obs.Observer` attached by the
        #: simulator at trace level; flush/migration epochs emit events,
        #: per-request metrics are filled post-hoc from ``stats``.
        self.obs = None

    # ------------------------------------------------------------------
    # Engine-facing surface (drive delegation)
    # ------------------------------------------------------------------

    @property
    def spec(self):
        return self.drive.spec

    @property
    def geometry(self):
        return self.drive.geometry

    @property
    def faults(self):
        return self.drive.faults

    @property
    def head_cylinder(self) -> int:
        return self.drive.head_cylinder

    def cylinder_of(self, lba: int) -> int:
        return self.drive.cylinder_of(lba)

    def take_fault_event(self):
        """The fault event of the most recent *foreground* media access.

        Background destages can fault too; those events are dropped (the
        host never sees them) so the engines attribute faults to the
        right request.
        """
        event = self._pending_fault
        self._pending_fault = None
        return event

    # ------------------------------------------------------------------
    # Chunk helpers
    # ------------------------------------------------------------------

    def _chunk_extent(self, chunk: int) -> tuple:
        """(lba, nsectors) of a chunk, clipped to drive capacity."""
        size = self._chunk_sectors
        lba = chunk * size
        capacity = self.drive.geometry.capacity_sectors
        return lba, min(size, capacity - lba)

    @property
    def resident_chunks(self) -> Dict[int, bool]:
        """Snapshot of flash residency: chunk id -> dirty flag."""
        return dict(self._resident)

    @property
    def dirty_chunks(self) -> int:
        return sum(1 for dirty in self._resident.values() if dirty)

    @property
    def dirty_bytes(self) -> int:
        return self.dirty_chunks * self._chunk_bytes

    # ------------------------------------------------------------------
    # Background epochs: interval flush and migration
    # ------------------------------------------------------------------

    def _advance(self, now: float) -> None:
        """Run every flush/migration epoch due at or before ``now``.

        Epochs fire in time order; both schedules are derived from the
        simulated clock only, so replays are deterministic.
        """
        while True:
            due = min(self._next_flush, self._next_migrate)
            if due > now:
                self._next_epoch = due
                return
            if self._next_flush <= self._next_migrate:
                self._flush(due)
                self._next_flush += self.config.flush_interval
            else:
                self._migrate(due)
                self._next_migrate += self.config.migrate_interval

    def _flush(self, now: float) -> None:
        """Destage every dirty chunk in the background."""
        dirty = [c for c, is_dirty in self._resident.items() if is_dirty]
        if not dirty:
            return
        for chunk in dirty:
            self._resident[chunk] = False
        flushed = len(dirty) * self._chunk_bytes
        self.stats.flushed_bytes += flushed
        self.stats.flush_runs += 1
        obs = self.obs
        if obs is not None and obs.tracing:
            obs.emit(
                "tier_flush", now, "tier",
                chunks=len(dirty), nbytes=flushed,
            )

    def _migrate(self, now: float) -> None:
        """One migration epoch: move toward the policy's hot set."""
        assert self.engine is not None
        plan = self.engine.plan(self._resident.keys(), now)
        self.stats.migration_epochs += 1
        if not plan.moves:
            return
        flushed = 0
        for chunk in plan.demote:
            if self._resident.pop(chunk, False):
                flushed += self._chunk_bytes
        for chunk in plan.promote:
            self._resident[chunk] = False
            self._index(chunk, now)
        if self._recency and plan.promote:
            self._sort_by_recency()
        self.stats.promoted_chunks += len(plan.promote)
        self.stats.demoted_chunks += len(plan.demote)
        self.stats.flushed_bytes += flushed
        self.stats.migrated_bytes += plan.moves * self._chunk_bytes
        obs = self.obs
        if obs is not None and obs.tracing:
            obs.emit(
                "tier_migration", now, "tier",
                promoted=len(plan.promote),
                demoted=len(plan.demote),
                flushed_bytes=flushed,
            )

    # ------------------------------------------------------------------
    # Admission and eviction
    # ------------------------------------------------------------------

    def _sort_by_recency(self) -> None:
        """Restore ``lru``'s last-touch order of ``_resident`` (a stable
        sort: equal last touches keep their order, the victim search
        breaks those ties by id)."""
        last_touch = self.policy._last_touch
        ordered = sorted(self._resident.items(), key=lambda item: last_touch[item[0]])
        self._resident.clear()
        self._resident.update(ordered)
        self._unordered = False

    def _index(self, chunk: int, now: float) -> None:
        """Give resident ``chunk`` a heap entry at its current score."""
        heap = self._heap
        if heap is None:
            return
        score = self.policy.score
        heapq.heappush(heap, (score(chunk, now), chunk))
        if len(heap) > HEAP_COMPACT_FACTOR * len(self._resident) + HEAP_COMPACT_SLACK:
            heap[:] = [(score(c, now), c) for c in self._resident]
            heapq.heapify(heap)

    def _victim(self, incoming: Sequence[int], now: float) -> Optional[int]:
        """The coldest resident chunk not in ``incoming`` (ties: lowest
        id), or None when there is none."""
        if self._recency:
            if self._unordered:
                self._sort_by_recency()
            last_touch = self.policy._last_touch
            victim = None
            for chunk in self._resident:
                if chunk in incoming:
                    continue
                if victim is None:
                    victim = chunk
                    oldest = last_touch[chunk]
                elif last_touch[chunk] != oldest:
                    break  # past the block of equal last touches
                elif chunk < victim:
                    victim = chunk
            return victim
        heap = self._heap
        if heap is None:
            candidates = [c for c in self._resident if c not in incoming]
            return self.policy.victim(candidates, now) if candidates else None
        score = self.policy.score
        resident = self._resident
        skipped = []
        victim = None
        while heap:
            entry = heapq.heappop(heap)
            chunk = entry[1]
            if chunk not in resident or entry[0] != score(chunk, now):
                continue  # stale: evicted, or touched since the push
            if chunk in incoming:
                skipped.append(entry)
                continue
            victim = chunk
            break
        for entry in skipped:
            heapq.heappush(heap, entry)
        return victim

    def _admit(self, missing: Sequence[int], now: float) -> float:
        """Place the non-resident chunks ``missing`` on flash (clean),
        evicting to make room; returns the synchronous destage penalty
        (seconds) charged to the foreground request."""
        resident = self._resident
        capacity = self._capacity_chunks
        room = capacity - len(missing)  # residents that can stay
        penalty = 0.0
        while len(resident) > room:
            victim = self._victim(missing, now)
            if victim is None:
                break
            dirty = resident.pop(victim)
            self.stats.evictions += 1
            if dirty:
                # Synchronous destage: flash read + HDD write of the
                # chunk, through the real drive model.
                self.stats.dirty_evictions += 1
                self.stats.flushed_bytes += self._chunk_bytes
                lba, nsectors = self._chunk_extent(victim)
                penalty += self._ssd.service_time(nsectors, False)
                penalty += self.drive.service_time(lba, nsectors, True, now)
                if self.drive.faults is not None:
                    self.drive.take_fault_event()  # background; drop it
        heap = self._heap
        for chunk in missing:
            if len(resident) < capacity:
                resident[chunk] = False
                if heap is not None:
                    self._index(chunk, now)
        if now < self._latest:
            self._unordered = True  # appended behind later touches
        return penalty

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------

    def service_time(self, lba: int, nsectors: int, is_write: bool, now: float) -> float:
        """Service time of one request through the tier at time ``now``.

        Same contract as :meth:`DiskDrive.service_time`; the engines
        cannot tell the difference. Flash serves a read whose chunks are
        all resident and, in write-back mode, such a write (marking the
        chunks dirty). Everything else goes to the drive, then a read
        (or a write-back write) allocates its missing chunks.
        """
        if now >= self._next_epoch:
            self._advance(now)
        size = self._chunk_sectors
        first = lba // size
        last = (lba + nsectors - 1) // size
        touch = self.policy.touch
        resident = self._resident
        recency = self._recency
        if recency:
            if now < self._latest:
                self._unordered = True
            else:
                self._latest = now
        hit = True  # every chunk of the request is on flash
        for chunk in range(first, last + 1):
            touch(chunk, now, is_write)
            if chunk not in resident:
                hit = False
            elif recency:
                resident.move_to_end(chunk)
            elif self._heap is not None:
                self._index(chunk, now)
        stats = self.stats
        nbytes = nsectors * SECTOR_BYTES
        stats.bytes_total += nbytes
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        allocate = self._write_back or not is_write

        if hit and allocate:
            if is_write:
                # Write-back hit: complete on flash, mark chunks dirty.
                for chunk in range(first, last + 1):
                    if not resident[chunk]:
                        resident[chunk] = True
                        stats.dirtied_bytes += self._chunk_bytes
                stats.write_hits += 1
            else:
                stats.read_hits += 1
            self.hit_log.append(True)
            return self._ssd.service_time(nsectors, is_write)

        # A miss, and every write-through write: the request goes to the
        # HDD at media timing (a write-through write to resident chunks
        # updates them in place, free: the flash write overlaps the much
        # slower HDD write).
        drive = self.drive
        service = drive.service_time(lba, nsectors, is_write, now)
        if drive.faults is not None:
            self._pending_fault = drive.take_fault_event()
        if allocate:
            # Read-allocate, or write-allocate (clean: the data just went
            # to the HDD) so the next write completes on flash. The fill
            # is a background copy of data the head just passed over.
            if first == last:
                if first not in resident:
                    service += self._admit((first,), now)
            else:
                missing = [c for c in range(first, last + 1) if c not in resident]
                if missing:
                    service += self._admit(missing, now)
        stats.bytes_to_hdd += nbytes
        self.hit_log.append(False)
        return service

    def hit_array(self) -> np.ndarray:
        """The per-request hit log as one boolean array (service order).

        The simulator consumes the whole log at once after a replay; one
        bulk conversion here keeps the call site free of log-layout
        knowledge."""
        return np.asarray(self.hit_log, dtype=bool)

    def summary(self) -> Dict[str, Any]:
        """Compact tier accounting for reports and JSON."""
        return {
            "mode": self.config.mode,
            "policy": self.config.policy,
            "capacity_chunks": self.config.capacity_chunks,
            "chunk_sectors": self.config.chunk_sectors,
            "resident_chunks": len(self._resident),
            "dirty_chunks": self.dirty_chunks,
            **self.stats.as_dict(),
        }
