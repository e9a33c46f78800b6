"""Property tests of the tier subsystem's core guarantees:
``tier=None`` bit-identity, write-back byte conservation, migration
determinism, and LRU/LFU victim indexes (recency order, a heap) that
evict exactly what a full scan would, at a cost that does not grow with
capacity."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.disk.cache import CacheConfig
from repro.disk.drive import DiskDrive, DriveSpec
from repro.disk.simulator import DiskSimulator
from repro.synth.profiles import get_profile
from repro.tier import TierConfig, TieredDevice
from repro.tier.device import HEAP_COMPACT_FACTOR, HEAP_COMPACT_SLACK
from repro.traces.millisecond import RequestTrace
from repro.units import SECTOR_BYTES, ms


def small_spec(cache: CacheConfig) -> DriveSpec:
    return DriveSpec(
        name="prop-tiny",
        rpm=10_000,
        heads=2,
        cylinders=3_000,  # big enough for the "severe" fault profile
        nzones=2,
        outer_spt=200,
        inner_spt=150,
        single_cylinder_seek=ms(0.5),
        full_stroke_seek=ms(4.0),
        cache=cache,
    )


def small_tier(**kwargs):
    defaults = dict(
        mode="wb",
        policy="lru",
        capacity_bytes=8 * 128 * SECTOR_BYTES,
        chunk_sectors=128,
        flush_interval=0.5,
        migrate_interval=2.0,
        migrate_chunks_per_epoch=8,
    )
    defaults.update(kwargs)
    return TierConfig(**defaults)


class TestTierNoneBitIdentity:
    """``tier=None`` must be byte-identical to a pre-tier simulator on
    every engine — the refactor's non-negotiable invariant."""

    @given(
        scheduler=st.sampled_from(["fcfs", "sstf", "scan"]),
        cache_on=st.booleans(),
        fault_profile=st.sampled_from([None, "light", "moderate", "severe"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        fast_path=st.booleans(),
    )
    @settings(deadline=None, max_examples=25)
    def test_tier_none_bit_identical(
        self, scheduler, cache_on, fault_profile, seed, fast_path
    ):
        from repro.disk.faults import get_fault_profile

        cache = CacheConfig() if cache_on else CacheConfig.disabled()
        spec = small_spec(cache)
        trace = get_profile("web").synthesize(
            span=5.0, capacity_sectors=spec.capacity_sectors, seed=seed
        )
        faults = None if fault_profile is None else get_fault_profile(fault_profile)

        def run(**kwargs):
            return DiskSimulator(
                spec, scheduler, seed=seed, fast_path=fast_path,
                faults=faults, **kwargs
            ).run(trace)

        implicit = run()                 # tier parameter never mentioned
        explicit = run(tier=None)        # tier explicitly off
        assert np.array_equal(implicit.start_times, explicit.start_times)
        assert np.array_equal(implicit.service_times, explicit.service_times)
        assert implicit.fault_events == explicit.fault_events
        assert explicit.tier_hits is None and explicit.tier_summary is None

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(deadline=None, max_examples=10)
    def test_tiered_run_is_repeatable(self, seed):
        spec = small_spec(CacheConfig.disabled())
        trace = get_profile("database").synthesize(
            span=5.0, capacity_sectors=spec.capacity_sectors, seed=seed
        )
        first = DiskSimulator(spec, seed=seed, tier=small_tier()).run(trace)
        second = DiskSimulator(spec, seed=seed, tier=small_tier()).run(trace)
        assert np.array_equal(first.service_times, second.service_times)
        assert np.array_equal(first.tier_hits, second.tier_hits)
        assert first.tier_summary == second.tier_summary


class TestWriteBackConservation:
    """Every byte dirtied on flash is either destaged or still dirty."""

    @given(
        steps=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=63),   # chunk index
                st.integers(min_value=1, max_value=128),  # sectors
                st.booleans(),                            # write?
                st.floats(min_value=0.0, max_value=1.0,
                          allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=60,
        ),
        policy=st.sampled_from(["lru", "lfu", "rf", "learned"]),
    )
    @settings(deadline=None, max_examples=40)
    def test_flush_conservation(self, steps, policy):
        spec = small_spec(CacheConfig.disabled())
        device = TieredDevice(
            DiskDrive(spec, seed=3), small_tier(policy=policy)
        )
        now = 0.0
        for chunk, nsectors, is_write, gap in steps:
            now += gap
            lba = chunk * 128
            nsectors = min(nsectors, 128)
            device.service_time(lba, nsectors, is_write, now)
            assert (
                device.stats.dirtied_bytes
                == device.stats.flushed_bytes + device.dirty_bytes
            )
        # And the ledger is still balanced after a final full flush.
        device._flush(now + 10.0)
        assert device.dirty_bytes == 0
        assert device.stats.dirtied_bytes == device.stats.flushed_bytes

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(deadline=None, max_examples=10)
    def test_wt_never_dirties(self, seed):
        spec = small_spec(CacheConfig.disabled())
        trace = get_profile("database").synthesize(
            span=5.0, capacity_sectors=spec.capacity_sectors, seed=seed
        )
        result = DiskSimulator(
            spec, seed=seed, tier=small_tier(mode="wt")
        ).run(trace)
        assert result.tier_summary["dirtied_bytes"] == 0
        assert result.tier_summary["dirty_evictions"] == 0


class TestMigrationDeterminism:
    """Same seed, same trace -> same chunk placement, on every policy."""

    @given(
        policy=st.sampled_from(["lru", "lfu", "rf", "learned"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        scheduler=st.sampled_from(["fcfs", "sstf"]),
    )
    @settings(deadline=None, max_examples=20)
    def test_placement_is_deterministic(self, policy, seed, scheduler):
        spec = small_spec(CacheConfig.disabled())
        trace = get_profile("database").synthesize(
            span=6.0, capacity_sectors=spec.capacity_sectors, seed=seed
        )
        config = small_tier(policy=policy, migrate_interval=1.0)

        def placement():
            sim = DiskSimulator(spec, scheduler, seed=seed, tier=config)
            result = sim.run(trace)
            return result.tier_hits, result.tier_summary

        hits_a, summary_a = placement()
        hits_b, summary_b = placement()
        assert np.array_equal(hits_a, hits_b)
        assert summary_a == summary_b
        assert summary_a["migration_epochs"] > 0

    def test_resident_set_identical_across_reruns(self):
        spec = small_spec(CacheConfig.disabled())
        trace = get_profile("database").synthesize(
            span=6.0, capacity_sectors=spec.capacity_sectors, seed=42
        )
        config = small_tier(policy="rf", migrate_interval=1.0)

        def final_residency():
            device = TieredDevice(DiskDrive(spec, seed=42), config)
            clock = 0.0
            for t, lba, n, w in zip(
                trace.times.tolist(), trace.lbas.tolist(),
                trace.nsectors.tolist(), trace.is_write.tolist(),
            ):
                clock = max(clock, t)
                clock += device.service_time(int(lba), int(n), bool(w), clock)
            return device.resident_chunks

        assert final_residency() == final_residency()


def _scan_victim(self, incoming, now):
    """The reference eviction choice: score every resident chunk."""
    candidates = [c for c in self._resident if c not in incoming]
    return self.policy.victim(candidates, now) if candidates else None


def _replay(spec, scheduler, config, trace, victim=None):
    """Run ``trace`` through the simulator; returns the result and the
    :class:`TieredDevice` it built (``victim`` replaces its choice)."""
    built = []

    class Recording(TieredDevice):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    if victim is not None:
        Recording._victim = victim
    with mock.patch("repro.disk.simulator.TieredDevice", Recording):
        result = DiskSimulator(spec, scheduler, seed=11, tier=config).run(trace)
    (device,) = built
    return result, device


def _drive_requests(device, requests):
    """Serve ``(chunk, is_write)`` requests back to back, one whole chunk
    each, pausing after every request."""
    size = device.config.chunk_sectors
    clock = 0.0
    for chunk, is_write in requests:
        clock += 1e-3 + device.service_time(chunk * size, size, is_write, clock)
        yield


def _assert_recency_ordered(device):
    """LRU's invariant: ``_resident`` iterates in non-decreasing
    last-touch order."""
    last_touch = device.policy._last_touch
    touches = [last_touch[chunk] for chunk in device._resident]
    assert touches == sorted(touches)


class TestVictimIndex:
    """LRU evicts from the front of its last-touch-ordered resident map,
    LFU from a lazily-invalidated heap; the choice must be the scan's
    ``min((score, chunk))`` on every step."""

    @given(
        policy=st.sampled_from(["lru", "lfu"]),
        mode=st.sampled_from(["wt", "wb"]),
        migrate=st.booleans(),
        scheduler=st.sampled_from(["fcfs", "sstf"]),
        capacity=st.integers(min_value=1, max_value=16),
        steps=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=40),   # chunk index
                st.integers(min_value=0, max_value=127),  # offset in chunk
                st.integers(min_value=1, max_value=192),  # sectors
                st.booleans(),                            # write?
                # Zero gaps make same-time touches: LRU score ties.
                st.sampled_from([0.0, 1e-4, 0.003, 0.05, 0.4]),
            ),
            min_size=1,
            max_size=80,
        ),
    )
    @settings(deadline=None, max_examples=60)
    def test_index_matches_scan(
        self, policy, mode, migrate, scheduler, capacity, steps
    ):
        spec = small_spec(CacheConfig.disabled())
        config = small_tier(
            mode=mode,
            policy=policy,
            capacity_bytes=capacity * 128 * SECTOR_BYTES,
            migrate_interval=0.5 if migrate else 0.0,
            migrate_chunks_per_epoch=4,
        )
        chunks, offsets, sizes, writes, gaps = zip(*steps)
        times = np.cumsum(gaps)
        trace = RequestTrace(
            times=times,
            lbas=np.multiply(chunks, 128) + offsets,
            nsectors=sizes,
            is_write=writes,
            span=float(times[-1]) + 1.0,
            label="victims",
        )
        indexed, device = _replay(spec, scheduler, config, trace)
        scanned, reference = _replay(
            spec, scheduler, config, trace, victim=_scan_victim
        )
        assert device.hit_log == reference.hit_log
        assert np.array_equal(indexed.tier_hits, scanned.tier_hits)
        assert device.resident_chunks == reference.resident_chunks
        assert indexed.tier_summary == scanned.tier_summary
        assert np.array_equal(indexed.service_times, scanned.service_times)
        assert np.array_equal(indexed.start_times, scanned.start_times)
        if policy == "lru":
            assert device._heap is None
            _assert_recency_ordered(device)
        else:
            # The heap invariant: every resident chunk has a current entry.
            now = float(times[-1])
            entries = set(device._heap)
            for chunk in device.resident_chunks:
                assert (device.policy.score(chunk, now), chunk) in entries

    @given(
        policy=st.sampled_from(["lru", "lfu"]),
        mode=st.sampled_from(["wt", "wb"]),
        migrate=st.booleans(),
        capacity=st.integers(min_value=1, max_value=8),
        steps=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=12),   # chunk index
                st.integers(min_value=0, max_value=127),  # offset in chunk
                st.integers(min_value=1, max_value=192),  # sectors
                st.booleans(),                            # write?
                # Requests at one time tie LRU scores across requests (a
                # replay never serves two at one time); a negative gap
                # is a clock that went backwards.
                st.sampled_from([-0.05, 0.0, 0.0, 1e-4, 0.05, 0.4]),
            ),
            min_size=1,
            max_size=80,
        ),
    )
    # Chunks 5 and 3 tie at t=0: the victim is 3, not the older entry.
    @example(
        policy="lru", mode="wb", migrate=False, capacity=2,
        steps=[(5, 0, 1, False, -1.0), (3, 0, 1, False, 0.0), (7, 0, 1, False, 0.4)],
    )
    @settings(deadline=None, max_examples=60)
    def test_direct_calls_match_scan(self, policy, mode, migrate, capacity, steps):
        """Driven call by call, including same-time and backwards
        touches, the index evicts the scan's victims in the same order."""
        spec = small_spec(CacheConfig.disabled())
        config = small_tier(
            mode=mode,
            policy=policy,
            capacity_bytes=capacity * 128 * SECTOR_BYTES,
            migrate_interval=0.5 if migrate else 0.0,
            migrate_chunks_per_epoch=4,
        )

        def run(choose):
            victims = []

            class Recording(TieredDevice):
                def _victim(self, incoming, now):
                    victim = choose(self, incoming, now)
                    victims.append(victim)
                    return victim

            device = Recording(DiskDrive(spec, seed=11), config)
            now = 1.0
            services = []
            for chunk, offset, size, write, gap in steps:
                now = max(now + gap, 0.0)
                services.append(
                    device.service_time(chunk * 128 + offset, size, write, now)
                )
            return device, services, victims

        device, services, victims = run(TieredDevice._victim)
        reference, expected, scanned = run(_scan_victim)
        assert victims == scanned
        assert services == expected
        assert device.hit_log == reference.hit_log
        assert device.resident_chunks == reference.resident_chunks
        assert device.summary() == reference.summary()
        if policy == "lru" and not device._unordered:
            _assert_recency_ordered(device)

    @pytest.mark.parametrize("policy", ["lru", "lfu"])
    def test_score_calls_per_eviction_flat_in_capacity(self, policy):
        """A 16x larger tier must not cost 16x the work per eviction; LRU
        evicts by recency order and scores nothing at all."""
        spec = small_spec(CacheConfig.disabled())
        rng = np.random.default_rng(5)
        footprint = spec.capacity_sectors // 8
        requests = list(zip(
            rng.integers(0, footprint, size=3000).tolist(),
            (rng.random(3000) < 0.3).tolist(),
        ))
        per_eviction = {}
        for capacity in (64, 1024):
            device = TieredDevice(
                DiskDrive(spec, seed=3),
                small_tier(
                    policy=policy, chunk_sectors=8,
                    capacity_bytes=capacity * 8 * SECTOR_BYTES,
                    migrate_interval=0.0,
                ),
            )
            score = device.policy.score
            calls = [0]

            def counting(chunk, now, score=score, calls=calls):
                calls[0] += 1
                return score(chunk, now)

            device.policy.score = counting
            for _ in _drive_requests(device, requests):
                pass
            assert device.stats.evictions > 1000
            per_eviction[capacity] = calls[0] / device.stats.evictions
        if policy == "lru":
            assert per_eviction == {64: 0.0, 1024: 0.0}
        else:
            assert per_eviction[1024] < 2 * per_eviction[64], per_eviction

    @pytest.mark.parametrize("policy", ["lru", "lfu"])
    def test_heap_stays_bounded_when_every_request_hits(self, policy):
        """LFU hits push an entry each; compaction keeps the heap within
        ``HEAP_COMPACT_FACTOR`` entries per resident chunk plus slack.
        LRU keeps no heap: its hits only reorder the resident map."""
        spec = small_spec(CacheConfig.disabled())
        rng = np.random.default_rng(9)
        working_set = 12
        requests = list(zip(
            rng.integers(0, working_set, size=4000).tolist(),
            (rng.random(4000) < 0.5).tolist(),
        ))
        device = TieredDevice(
            DiskDrive(spec, seed=3),
            small_tier(policy=policy, capacity_bytes=16 * 128 * SECTOR_BYTES),
        )
        largest = 0
        for _ in _drive_requests(device, requests):
            if policy == "lru":
                assert device._heap is None
                _assert_recency_ordered(device)
                continue
            resident = len(device.resident_chunks)
            assert len(device._heap) <= HEAP_COMPACT_FACTOR * resident + HEAP_COMPACT_SLACK
            largest = max(largest, len(device._heap))
        assert device.stats.evictions == 0
        assert device.stats.hits == len(requests) - working_set
        if policy == "lfu":
            assert largest > working_set  # entries did pile up between rebuilds
