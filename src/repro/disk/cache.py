"""On-board cache model: read-ahead segments and a write-back buffer.

Enterprise drives of the paper's era shipped 8-16 MiB of cache split into
segments used for read-ahead, plus (when write caching is enabled) a
write-back buffer that completes writes at electronic speed and destages
them to media later. Both behaviors shape the disk-level service times —
sequential reads hit the read-ahead, bursts of writes are absorbed — so
both are modeled.

Approximation note: destage traffic is *not* added to the busy timeline;
instead the write buffer drains at a configurable rate and stops
absorbing when full. Since the paper's drives run at moderate utilization
with long idle stretches, drained-during-idle is the common case and the
approximation changes busy time only when the buffer saturates — at which
point writes fall through to media timing anyway.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import DiskModelError
from repro.units import MIB, ms


@dataclass(frozen=True)
class CacheConfig:
    """Configuration of the on-board cache.

    Attributes
    ----------
    read_ahead:
        Whether the drive prefetches past each read (sequential reads hit).
    write_back:
        Whether writes complete in the buffer when there is room.
    write_buffer_bytes:
        Capacity available to dirty write data.
    hit_overhead:
        Service time of a cache hit (electronics + interface transfer).
    read_ahead_sectors:
        How far past the end of a read the prefetch extends.
    segment_count:
        Number of read-ahead extents the cache remembers.
    drain_rate:
        Bytes/second at which dirty data destages to media (background).
    """

    read_ahead: bool = True
    write_back: bool = True
    write_buffer_bytes: int = 8 * MIB
    hit_overhead: float = ms(0.1)
    read_ahead_sectors: int = 512
    segment_count: int = 16
    drain_rate: float = 60.0 * MIB

    def __post_init__(self) -> None:
        if self.write_buffer_bytes < 0:
            raise DiskModelError(
                f"write_buffer_bytes must be >= 0, got {self.write_buffer_bytes!r}"
            )
        if self.hit_overhead < 0:
            raise DiskModelError(f"hit_overhead must be >= 0, got {self.hit_overhead!r}")
        if self.read_ahead_sectors < 0:
            raise DiskModelError(
                f"read_ahead_sectors must be >= 0, got {self.read_ahead_sectors!r}"
            )
        if self.segment_count <= 0:
            raise DiskModelError(f"segment_count must be > 0, got {self.segment_count!r}")
        if self.drain_rate <= 0:
            raise DiskModelError(f"drain_rate must be > 0, got {self.drain_rate!r}")

    @classmethod
    def disabled(cls) -> "CacheConfig":
        """A configuration with both read-ahead and write-back off."""
        return cls(read_ahead=False, write_back=False)


class DiskCache:
    """Mutable cache state evolved request by request by the drive model."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._segments: deque = deque(maxlen=config.segment_count)
        self._dirty_bytes = 0.0
        self._absorbed_bytes = 0.0
        self._drained_bytes = 0.0
        self._last_drain_time = 0.0
        #: Optional :class:`~repro.obs.Observer`; attached by the
        #: simulator. Hit/absorb accounting only — never changes what the
        #: cache decides, so observed runs stay bit-identical.
        self.obs = None

    def reset(self) -> None:
        """Forget all cached state (used between simulator runs).

        The attached observer (if any) survives: it describes who is
        watching, not one run's history.
        """
        self._segments.clear()
        self._dirty_bytes = 0.0
        self._absorbed_bytes = 0.0
        self._drained_bytes = 0.0
        self._last_drain_time = 0.0

    # ------------------------------------------------------------------
    # Columnar-engine state transfer
    # ------------------------------------------------------------------

    def export_state(self):
        """Snapshot of the mutable cache state as plain Python values:
        ``(segments, dirty, absorbed, drained, last_drain_time)``.

        The columnar replay loop evolves this state with inlined copies
        of :meth:`read_hit` / :meth:`absorb_write` / :meth:`_drain_to`
        (same decisions, same float operations — bit-identity is pinned
        by the property suite) and hand it back via
        :meth:`import_state` when the run finishes.
        """
        return (
            list(self._segments),
            self._dirty_bytes,
            self._absorbed_bytes,
            self._drained_bytes,
            self._last_drain_time,
        )

    def import_state(self, segments, dirty, absorbed, drained, last_drain) -> None:
        """Adopt state evolved outside the cache (see :meth:`export_state`)."""
        self._segments = deque(segments, maxlen=self.config.segment_count)
        self._dirty_bytes = dirty
        self._absorbed_bytes = absorbed
        self._drained_bytes = drained
        self._last_drain_time = last_drain

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def read_hit(self, lba: int, nsectors: int) -> bool:
        """Whether a read of ``[lba, lba + nsectors)`` is fully covered by
        a remembered read-ahead extent."""
        if not self.config.read_ahead:
            return False
        end = lba + nsectors
        for start, stop in self._segments:
            if start <= lba and end <= stop:
                obs = self.obs
                if obs is not None and obs.enabled:
                    obs.metrics.counter("cache.read_hits").inc()
                return True
        return False

    def note_read(self, lba: int, nsectors: int) -> None:
        """Record the extent a read (plus prefetch) leaves in the cache."""
        if not self.config.read_ahead:
            return
        self._segments.append((lba, lba + nsectors + self.config.read_ahead_sectors))

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    @property
    def dirty_bytes(self) -> float:
        """Bytes currently waiting in the write buffer (pre-drain view)."""
        return self._dirty_bytes

    @property
    def absorbed_bytes(self) -> float:
        """Total bytes ever completed in the buffer this run."""
        return self._absorbed_bytes

    @property
    def drained_bytes(self) -> float:
        """Total bytes destaged to media this run.

        Conservation invariant (asserted by property tests):
        ``absorbed_bytes == drained_bytes + dirty_bytes`` to within float
        rounding — the buffer neither invents nor loses write data at
        drain boundaries.
        """
        return self._drained_bytes

    def absorb_write(self, nbytes: int, now: float) -> bool:
        """Try to complete a write of ``nbytes`` at time ``now`` in the
        buffer. Returns ``True`` on success; ``False`` means the buffer is
        full and the write must take media timing."""
        if not self.config.write_back:
            return False
        self._drain_to(now)
        obs = self.obs
        if self._dirty_bytes + nbytes > self.config.write_buffer_bytes:
            if obs is not None and obs.enabled:
                obs.metrics.counter("cache.writes_fallthrough").inc()
            return False
        self._dirty_bytes += nbytes
        self._absorbed_bytes += nbytes
        if obs is not None and obs.enabled:
            obs.metrics.counter("cache.writes_absorbed").inc()
            obs.emit(
                "write_absorbed", now, "cache",
                nbytes=int(nbytes), dirty_bytes=self._dirty_bytes,
            )
        return True

    def _drain_to(self, now: float) -> None:
        if now < self._last_drain_time:
            # The simulator's clock never goes backwards; guard against
            # misuse from interactive exploration.
            raise DiskModelError(
                f"cache clock moved backwards: {now} < {self._last_drain_time}"
            )
        elapsed = now - self._last_drain_time
        # Destage exactly what is there, never more: clamping the
        # *decrement* (not just the result) keeps the absorbed ==
        # drained + dirty ledger balanced at every drain boundary —
        # crediting the full elapsed * rate would count bytes the buffer
        # never held as drained.
        drained = min(self._dirty_bytes, elapsed * self.config.drain_rate)
        self._dirty_bytes -= drained
        self._drained_bytes += drained
        self._last_drain_time = now
