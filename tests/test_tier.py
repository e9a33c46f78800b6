"""The SSD cache tier: latency model, heat policies, migration, device
semantics, analysis and runner/CLI integration."""

import numpy as np
import pytest

from repro.core.latency import analyze_tier_tail
from repro.core.runner import ExperimentJob, ExperimentRunner, experiment_matrix, run_job
from repro.disk.drive import DiskDrive
from repro.disk.simulator import DiskSimulator
from repro.errors import AnalysisError, SimulationError, TierError
from repro.synth.profiles import get_profile
from repro.tier import (
    LearnedPolicy,
    LfuPolicy,
    LruPolicy,
    MigrationEngine,
    RecencyFrequencyPolicy,
    SsdSpec,
    TierConfig,
    TieredDevice,
    available_heat_policies,
    datacenter_ssd,
    make_heat_policy,
)
from repro.traces.millisecond import RequestTrace
from repro.units import MIB, SECTOR_BYTES


def tier_config(**kwargs):
    """A small tier sized for the tiny drive: 16 chunks of 256 sectors."""
    defaults = dict(
        mode="wb",
        policy="lru",
        capacity_bytes=16 * 256 * SECTOR_BYTES,
        chunk_sectors=256,
        flush_interval=1.0,
        migrate_interval=5.0,
    )
    defaults.update(kwargs)
    return TierConfig(**defaults)


class TestSsdSpec:
    def test_service_time_components(self):
        ssd = SsdSpec()
        one = ssd.service_time(1, False)
        many = ssd.service_time(1024, False)
        assert one > ssd.read_latency
        assert many - one == pytest.approx(1023 * SECTOR_BYTES / ssd.read_bandwidth)

    def test_writes_slower_than_reads(self):
        ssd = datacenter_ssd()
        assert ssd.service_time(64, True) > ssd.service_time(64, False)

    def test_faster_than_any_seek(self, tiny_drive):
        # The whole point of the tier: flash beats mechanics by orders
        # of magnitude.
        hdd = tiny_drive.service_time(900_000, 64, False, 0.0)
        assert SsdSpec().service_time(64, False) < hdd / 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(read_latency=0.0),
            dict(write_latency=-1.0),
            dict(read_bandwidth=0.0),
            dict(write_bandwidth=-5.0),
        ],
    )
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(TierError):
            SsdSpec(**kwargs)

    def test_zero_sector_request_rejected(self):
        with pytest.raises(TierError):
            SsdSpec().service_time(0, False)


class TestTierConfig:
    def test_name_and_derived_sizes(self):
        config = tier_config(mode="wt", policy="lfu")
        assert config.name == "wt:lfu"
        assert config.chunk_bytes == 256 * SECTOR_BYTES
        assert config.capacity_chunks == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mode="bogus"),
            dict(policy="bogus"),
            dict(chunk_sectors=0),
            dict(capacity_bytes=1),  # smaller than one chunk
            dict(flush_interval=0.0),
            dict(migrate_interval=-1.0),
            dict(migrate_chunks_per_epoch=0),
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(TierError):
            tier_config(**kwargs)

    def test_simulator_rejects_non_config(self, tiny_spec):
        with pytest.raises(SimulationError):
            DiskSimulator(tiny_spec, tier="wb")


class TestHeatPolicies:
    def test_registry_is_complete(self):
        assert available_heat_policies() == ("learned", "lfu", "lru", "rf")
        for name in available_heat_policies():
            assert make_heat_policy(name).name == name

    def test_unknown_policy_rejected(self):
        with pytest.raises(TierError):
            make_heat_policy("fifo")

    def test_lru_prefers_recent(self):
        policy = LruPolicy()
        policy.touch(1, 0.0, False)
        policy.touch(2, 5.0, False)
        assert policy.victim([1, 2], now=6.0) == 1
        assert policy.ranked([1, 2], now=6.0) == [2, 1]

    def test_lfu_prefers_frequent(self):
        policy = LfuPolicy()
        for _ in range(5):
            policy.touch(1, 0.0, False)
        policy.touch(2, 10.0, False)
        assert policy.victim([1, 2], now=11.0) == 2

    def test_rf_decays_stale_frequency(self):
        policy = RecencyFrequencyPolicy(halflife=1.0)
        for t in range(5):
            policy.touch(1, float(t), False)
        policy.touch(2, 100.0, False)
        # Chunk 1 was hammered long ago; its heat has halved ~95 times.
        assert policy.score(2, 100.0) > policy.score(1, 100.0)

    def test_untouched_chunk_is_coldest(self):
        for name in available_heat_policies():
            policy = make_heat_policy(name)
            policy.touch(7, 1.0, False)
            assert policy.score(99, 2.0) == float("-inf")
            assert policy.ranked([99, 7, 98], 2.0) == [7, 98, 99]

    def test_victim_requires_candidates(self):
        with pytest.raises(TierError):
            LruPolicy().victim([], now=0.0)

    def test_ties_break_on_chunk_id(self):
        policy = LruPolicy()
        policy.touch(9, 1.0, False)
        policy.touch(3, 1.0, False)
        assert policy.victim([9, 3], now=2.0) == 3
        assert policy.ranked([9, 3], now=2.0) == [3, 9]

    def test_reset_forgets_history(self):
        policy = RecencyFrequencyPolicy()
        policy.touch(1, 0.0, False)
        policy.reset()
        assert policy.score(1, 1.0) == float("-inf")
        assert list(policy.tracked) == []


class TestLearnedPolicy:
    def test_default_table_prefers_fresh_and_frequent(self):
        policy = LearnedPolicy()
        policy.touch(1, 0.0, False)
        for _ in range(8):
            policy.touch(2, 10.0, False)
        # Chunk 2 is fresher and more frequent at t=10.
        assert policy.score(2, 10.0) > policy.score(1, 10.0)

    def test_state_discretization_saturates(self):
        policy = LearnedPolicy()
        policy.touch(1, 0.0, False)
        recency, frequency = policy.state_of(1, now=1e9)
        assert recency == LearnedPolicy.RECENCY_BUCKETS - 1
        assert frequency == 0

    def test_custom_scorer_hook(self):
        # The DQN drop-in: score = -recency bucket, ignore frequency.
        policy = LearnedPolicy(scorer=lambda r, f: -float(r))
        policy.touch(1, 0.0, False)
        policy.touch(2, 99.0, False)
        assert policy.score(2, 100.0) > policy.score(1, 100.0)

    def test_table_and_scorer_mutually_exclusive(self):
        with pytest.raises(TierError):
            LearnedPolicy(table={(0, 0): 1.0}, scorer=lambda r, f: 0.0)

    def test_rejects_bad_recency_base(self):
        with pytest.raises(TierError):
            LearnedPolicy(recency_base=0.0)


class TestMigrationEngine:
    def _policy_with(self, touches):
        policy = LruPolicy()
        for chunk, t in touches:
            policy.touch(chunk, t, False)
        return policy

    def test_promotes_into_free_space(self):
        policy = self._policy_with([(1, 1.0), (2, 2.0)])
        engine = MigrationEngine(policy, capacity_chunks=4)
        plan = engine.plan(set(), now=3.0)
        assert set(plan.promote) == {1, 2}
        assert plan.demote == ()

    def test_swaps_cold_resident_for_hot_outsider(self):
        policy = self._policy_with([(1, 1.0), (2, 9.0)])
        engine = MigrationEngine(policy, capacity_chunks=1)
        plan = engine.plan({1}, now=10.0)
        assert plan.promote == (2,)
        assert plan.demote == (1,)

    def test_budget_bounds_moves(self):
        policy = self._policy_with([(c, float(c)) for c in range(20)])
        engine = MigrationEngine(policy, capacity_chunks=20, chunks_per_epoch=3)
        plan = engine.plan(set(), now=30.0)
        assert plan.moves == 3

    def test_margin_prevents_churn(self):
        policy = self._policy_with([(1, 1.0), (2, 1.0 + 1e-12)])
        engine = MigrationEngine(policy, capacity_chunks=1, min_score_margin=1.0)
        plan = engine.plan({1}, now=2.0)
        assert plan.moves == 0

    def test_sheds_cold_residents_with_leftover_budget(self):
        policy = self._policy_with([(c, float(c)) for c in range(4)])
        engine = MigrationEngine(policy, capacity_chunks=2)
        # Chunks 2, 3 are the hot set and already resident; 0, 1 cooled.
        plan = engine.plan({0, 1, 2, 3}, now=5.0)
        assert set(plan.demote) == {0, 1}
        assert plan.promote == ()

    def test_invalid_engine_rejected(self):
        with pytest.raises(TierError):
            MigrationEngine(LruPolicy(), capacity_chunks=0)
        with pytest.raises(TierError):
            MigrationEngine(LruPolicy(), capacity_chunks=1, chunks_per_epoch=0)
        with pytest.raises(TierError):
            MigrationEngine(LruPolicy(), capacity_chunks=1, min_score_margin=-1.0)


def repeated_trace(lba=4096, nsectors=64, n=6, gap=0.05, write=False, span=2.0):
    """A trace hammering one extent — the tier's best case."""
    times = np.arange(n) * gap
    return RequestTrace(
        times=times,
        lbas=np.full(n, lba, dtype=np.int64),
        nsectors=np.full(n, nsectors, dtype=np.int64),
        is_write=np.full(n, write, dtype=bool),
        span=span,
        label="repeat",
    )


class TestTieredDevice:
    def test_read_miss_then_hit(self, tiny_spec_nocache):
        device = TieredDevice(DiskDrive(tiny_spec_nocache, seed=1), tier_config())
        miss = device.service_time(4096, 64, False, 0.0)
        hit = device.service_time(4096, 64, False, 0.1)
        assert device.hit_log == [False, True]
        assert hit < miss / 10
        assert hit == device.config.ssd.service_time(64, False)

    def test_wt_write_never_allocates(self, tiny_spec_nocache):
        device = TieredDevice(
            DiskDrive(tiny_spec_nocache, seed=1), tier_config(mode="wt")
        )
        device.service_time(4096, 64, True, 0.0)
        device.service_time(4096, 64, True, 0.1)
        assert device.hit_log == [False, False]
        assert device.resident_chunks == {}
        assert device.stats.dirtied_bytes == 0

    def test_wb_write_allocates_then_hits_dirty(self, tiny_spec_nocache):
        config = tier_config(mode="wb")
        device = TieredDevice(DiskDrive(tiny_spec_nocache, seed=1), config)
        device.service_time(4096, 64, True, 0.0)   # miss, write-allocate clean
        device.service_time(4096, 64, True, 0.1)   # hit, marks dirty
        assert device.hit_log == [False, True]
        chunk = 4096 // config.chunk_sectors
        assert device.resident_chunks[chunk] is True
        assert device.stats.dirtied_bytes == config.chunk_bytes

    def test_interval_flush_cleans_dirty_chunks(self, tiny_spec_nocache):
        config = tier_config(mode="wb", flush_interval=0.5)
        device = TieredDevice(DiskDrive(tiny_spec_nocache, seed=1), config)
        device.service_time(4096, 64, True, 0.0)
        device.service_time(4096, 64, True, 0.1)   # dirty now
        assert device.dirty_chunks == 1
        # Crossing the flush epoch destages in the background.
        device.service_time(999_424, 64, False, 1.0)
        assert device.dirty_chunks == 0
        assert device.stats.flushed_bytes == config.chunk_bytes
        assert device.stats.flush_runs == 1

    def test_wb_conservation_exact(self, tiny_spec_nocache):
        config = tier_config(mode="wb")
        device = TieredDevice(DiskDrive(tiny_spec_nocache, seed=1), config)
        rng = np.random.default_rng(5)
        now = 0.0
        for _ in range(200):
            now += float(rng.uniform(0.0, 0.3))
            lba = int(rng.integers(0, 64)) * 256
            device.service_time(lba, 64, bool(rng.random() < 0.7), now)
        assert (
            device.stats.dirtied_bytes
            == device.stats.flushed_bytes + device.dirty_bytes
        )

    def test_dirty_eviction_charges_foreground(self, tiny_spec_nocache):
        # One-chunk tier: dirty the resident chunk, then miss elsewhere;
        # the eviction destage must inflate the miss service time.
        config = tier_config(
            mode="wb", capacity_bytes=256 * SECTOR_BYTES,
            flush_interval=1e9, migrate_interval=0.0,
        )
        drive = DiskDrive(tiny_spec_nocache, seed=1)
        device = TieredDevice(drive, config)
        device.service_time(0, 64, True, 0.0)
        device.service_time(0, 64, True, 0.01)   # dirty
        dirty_miss = device.service_time(999_424, 64, False, 0.02)

        clean = TieredDevice(DiskDrive(tiny_spec_nocache, seed=1),
                             tier_config(mode="wt",
                                         capacity_bytes=256 * SECTOR_BYTES,
                                         flush_interval=1e9,
                                         migrate_interval=0.0))
        clean.service_time(0, 64, False, 0.0)     # resident, clean
        clean_miss = clean.service_time(999_424, 64, False, 0.02)
        assert device.stats.dirty_evictions == 1
        assert dirty_miss > clean_miss

    def test_capacity_is_respected(self, tiny_spec_nocache):
        config = tier_config(capacity_bytes=4 * 256 * SECTOR_BYTES)
        device = TieredDevice(DiskDrive(tiny_spec_nocache, seed=1), config)
        for i in range(20):
            device.service_time(i * 256, 64, False, i * 0.01)
        assert len(device.resident_chunks) <= config.capacity_chunks

    def test_migration_promotes_write_hot_chunks_in_wt(self, tiny_spec_nocache):
        # Write-through never allocates on writes, so only migration can
        # bring a write-hot chunk onto flash.
        config = tier_config(mode="wt", migrate_interval=0.5)
        device = TieredDevice(DiskDrive(tiny_spec_nocache, seed=1), config)
        for i in range(10):
            device.service_time(4096, 64, True, i * 0.05)
        assert device.resident_chunks == {}
        device.service_time(999_424, 64, False, 1.0)  # crosses the epoch
        chunk = 4096 // config.chunk_sectors
        assert chunk in device.resident_chunks
        assert device.stats.promoted_chunks >= 1

    def test_chunk_extent_clamped_at_capacity(self, tiny_spec_nocache):
        drive = DiskDrive(tiny_spec_nocache, seed=1)
        device = TieredDevice(drive, tier_config())
        last_chunk = (drive.geometry.capacity_sectors - 1) // 256
        lba, nsectors = device._chunk_extent(last_chunk)
        assert lba + nsectors <= drive.geometry.capacity_sectors
        assert nsectors > 0


class TestSimulatorIntegration:
    def test_tier_result_shapes(self, tiny_spec, web_trace):
        result = DiskSimulator(tiny_spec, seed=3, tier=tier_config()).run(web_trace)
        assert result.tier_hits is not None
        assert len(result.tier_hits) == len(web_trace)
        assert result.tier_summary["requests"] == len(web_trace)
        hits = int(result.tier_hits.sum())
        assert result.tier_summary["read_hits"] + result.tier_summary["write_hits"] == hits
        assert result.tier_hit_rate == pytest.approx(hits / len(web_trace))

    def test_untiered_result_has_no_tier_fields(self, web_result):
        assert web_result.tier_hits is None
        assert web_result.tier_summary is None
        assert np.isnan(web_result.tier_hit_rate)

    def test_hits_map_back_to_trace_order(self, tiny_spec_nocache):
        # Repeated reads of one extent: first arrival misses, rest hit —
        # and that must survive the SSTF serve-order permutation.
        trace = repeated_trace(n=8)
        result = DiskSimulator(
            tiny_spec_nocache, "sstf", seed=3, tier=tier_config()
        ).run(trace)
        assert not result.tier_hits[0]
        assert result.tier_hits[1:].all()

    @pytest.mark.parametrize("fast_path", [True, False])
    def test_hits_map_back_when_zero_time_serves_tie(
        self, tiny_spec, monkeypatch, fast_path
    ):
        # A zero-overhead drive cache completes absorbed writes in zero
        # time, so the next serve starts at the same clock. The hit flags
        # must still land on the requests that hit: ground truth is the
        # tier's own per-call verdict, logged by LBA (unique per trace).
        from repro.disk.cache import CacheConfig

        spec = tiny_spec.with_cache(CacheConfig(hit_overhead=0.0))
        served = {}
        original = TieredDevice.service_time

        def logged(device, lba, nsectors, is_write, now):
            service = original(device, lba, nsectors, is_write, now)
            served[lba] = device.hit_log[-1]
            return service

        monkeypatch.setattr(TieredDevice, "service_time", logged)
        capacity = spec.capacity_sectors
        misplaced = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = 800
            trace = RequestTrace(
                times=np.sort(rng.uniform(0.0, 2.0, n)),
                lbas=rng.choice(capacity - 8, size=n, replace=False),
                nsectors=np.full(n, 8),
                is_write=rng.random(n) < 0.5,
                span=2.0,
            )
            served.clear()
            result = DiskSimulator(
                spec, "sstf", seed=seed, fast_path=fast_path,
                tier=TierConfig(mode="wt", capacity_bytes=1 << 22),
            ).run(trace)
            truth = np.array([served[lba] for lba in trace.lbas.tolist()])
            misplaced += int((result.tier_hits != truth).sum())
        assert misplaced == 0

    def test_hit_requests_are_faster(self, tiny_spec_nocache):
        trace = repeated_trace(n=8)
        result = DiskSimulator(
            tiny_spec_nocache, seed=3, tier=tier_config()
        ).run(trace)
        assert result.service_times[result.tier_hits].max() < \
            result.service_times[~result.tier_hits].min()

    def test_empty_trace_with_tier(self, tiny_spec):
        result = DiskSimulator(tiny_spec, seed=0, tier=tier_config()).run(
            RequestTrace.empty(span=1.0)
        )
        assert result.tier_hits is not None and len(result.tier_hits) == 0
        assert result.tier_summary["requests"] == 0
        assert np.isnan(result.tier_hit_rate)

    def test_tier_with_faults_composes(self, tiny_spec, web_trace):
        from repro.disk.faults import get_fault_profile

        result = DiskSimulator(
            tiny_spec, seed=3,
            faults=get_fault_profile("moderate"), tier=tier_config(),
        ).run(web_trace)
        assert result.tier_hits is not None
        # Fault indices still address trace positions.
        for event in result.fault_events:
            assert 0 <= event.index < len(web_trace)

    def test_obs_levels_bit_identical_with_tier(self, tiny_spec, web_trace):
        from repro.obs import Observer

        plain = DiskSimulator(tiny_spec, seed=3, tier=tier_config()).run(web_trace)
        observed = DiskSimulator(
            tiny_spec, seed=3, tier=tier_config(), obs=Observer("trace")
        ).run(web_trace)
        assert np.array_equal(plain.service_times, observed.service_times)
        assert np.array_equal(plain.tier_hits, observed.tier_hits)

    def test_tier_metrics_recorded(self, tiny_spec, web_trace):
        from repro.obs import Observer

        obs = Observer("metrics")
        result = DiskSimulator(
            tiny_spec, seed=3, tier=tier_config(), obs=obs
        ).run(web_trace)
        assert obs.metrics.counter("tier.requests").value == len(web_trace)
        hits = int(result.tier_hits.sum())
        assert (
            obs.metrics.counter("tier.read_hits").value
            + obs.metrics.counter("tier.write_hits").value
            == hits
        )

    def test_tier_events_emitted_at_trace_level(self, tiny_spec_nocache):
        from repro.obs import Observer

        obs = Observer("trace")
        trace = repeated_trace(n=10, write=True, gap=0.2, span=3.0)
        DiskSimulator(
            tiny_spec_nocache, seed=3,
            tier=tier_config(mode="wb", flush_interval=0.5), obs=obs,
        ).run(trace)
        kinds = {event.kind for event in obs.events}
        assert "tier_flush" in kinds


class TestTierTailAnalysis:
    def test_untiered_result_rejected(self, web_result):
        with pytest.raises(AnalysisError):
            analyze_tier_tail(web_result)

    def test_split_accounts_every_request(self, tiny_spec, web_trace):
        result = DiskSimulator(tiny_spec, seed=3, tier=tier_config()).run(web_trace)
        tail = analyze_tier_tail(result)
        assert tail.n_hits + tail.n_misses == tail.n_requests == len(web_trace)
        assert tail.hit.n_requests == tail.n_hits
        assert tail.miss.n_requests == tail.n_misses

    def test_miss_tail_slower_than_hit_tail(self, tiny_spec_nocache):
        trace = repeated_trace(n=12)
        result = DiskSimulator(
            tiny_spec_nocache, seed=3, tier=tier_config()
        ).run(trace)
        tail = analyze_tier_tail(result)
        assert tail.miss_inflation["mean"] > 1.0
        assert tail.miss.mean_response > tail.hit.mean_response

    def test_all_miss_run_degrades_to_nan(self, tiny_spec):
        # Write-through on a pure-write trace never hits.
        trace = repeated_trace(n=5, write=True)
        result = DiskSimulator(
            tiny_spec, seed=3, tier=tier_config(mode="wt")
        ).run(trace)
        tail = analyze_tier_tail(result)
        assert tail.n_hits == 0
        assert np.isnan(tail.hit.mean_response)
        assert all(np.isnan(v) for v in tail.miss_inflation.values())


class TestRunnerIntegration:
    def test_job_carries_tier_fields(self, tiny_spec):
        job = ExperimentJob(
            profile=get_profile("web"), drive=tiny_spec, span=2.0, seed=1,
            tier=tier_config(),
        )
        assert "tier=wb:lru" in job.label
        result = run_job(job)
        assert result.tier_hit_rate is not None
        assert result.tier_hdd_offload is not None
        record = result.as_dict()
        assert "tier_hit_rate" in record

    def test_untiered_job_omits_tier_keys(self, tiny_spec):
        job = ExperimentJob(profile=get_profile("web"), drive=tiny_spec, span=2.0)
        record = run_job(job).as_dict()
        assert "tier=" not in job.label
        for key in record:
            assert not key.startswith("tier_")

    def test_suite_aggregates_and_roundtrip(self, tiny_spec):
        jobs = experiment_matrix(
            [get_profile("web")], tiny_spec, span=2.0, base_seed=13,
            tier=tier_config(), seeds_per_combo=2,
        )
        report = ExperimentRunner(workers=1).run_suite(jobs)
        assert len(report.tiered_results) == 2
        assert 0.0 <= report.tier_hit_rate <= 1.0
        payload = report.as_dict()
        assert payload["tier_summary"]["n_tiered_jobs"] == 2
        from repro.core.runner import SuiteReport

        clone = SuiteReport.from_json(report.to_json())
        assert clone.tier_hit_rate == pytest.approx(report.tier_hit_rate)

    def test_untiered_suite_payload_unchanged(self, tiny_spec):
        jobs = experiment_matrix([get_profile("web")], tiny_spec, span=2.0)
        report = ExperimentRunner(workers=1).run_suite(jobs)
        assert "tier_summary" not in report.as_dict()
        assert np.isnan(report.tier_hit_rate)


class TestCli:
    def test_study_tier_section(self, capsys):
        from repro.cli.main import main

        code = main([
            "study", "--profile", "web", "--span", "5", "--tier", "wb",
            "--tier-policy", "rf",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "SSD tier (wb:rf)" in out
        assert "hit_rate" in out

    def test_run_suite_tier_json(self, tmp_path, capsys):
        import json

        from repro.cli.main import main

        out_path = tmp_path / "suite.json"
        code = main([
            "run-suite", "--profiles", "web", "--span", "5",
            "--workers", "1", "--tier", "wt", "--json", str(out_path),
        ])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["tier"] == "wt:lru"
        assert payload["tier_summary"]["n_tiered_jobs"] == 1
        assert "tier_hit_rate" in payload["jobs"][0]

    def test_run_suite_untiered_json_has_no_tier_keys(self, tmp_path):
        import json

        from repro.cli.main import main

        out_path = tmp_path / "suite.json"
        main([
            "run-suite", "--profiles", "web", "--span", "5",
            "--workers", "1", "--json", str(out_path),
        ])
        payload = json.loads(out_path.read_text())
        assert "tier" not in payload
        assert "tier_summary" not in payload
        assert "tier_hit_rate" not in payload["jobs"][0]

    def test_bad_tier_mode_rejected(self):
        from repro.cli.main import main

        with pytest.raises(SystemExit):
            main(["study", "--profile", "web", "--tier", "bogus"])
