"""Unit tests for the fleet subsystem: tenants, placement, multiplexing,
QoS accounting, sharded execution, and the fleet scrub budget."""

import os
import signal
from pathlib import Path

import numpy as np
import pytest

from repro.core.background import BackgroundTask, run_in_idle
from repro.core.runner import (
    ExperimentJob,
    ExperimentRunner,
    JobFailure,
    ShardResult,
    experiment_matrix,
    make_shards,
    run_job,
    shard_jobs,
)
from repro.errors import AnalysisError, FleetError, SuiteError
from repro.fleet import (
    FleetSpec,
    TenantLoad,
    allocate_idle_budget,
    build_fleet_plan,
    combine_columns,
    place_tenants,
    plan_fleet_scrub,
    sample_tenants,
    synthesize_tenant_columns,
    volume_layout,
)
from repro.synth.calibrate import calibrate_profile
from repro.synth.profiles import get_profile


# Module-level job functions so worker processes can unpickle them.
# With shards of two, seeds 2 and 3 make up the second shard.


def second_shard_raises(job):
    if job.seed in (2, 3):
        raise ValueError(f"boom {job.seed}")
    return run_job(job)


def second_shard_crashes(job):
    if job.seed == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return run_job(job)


def first_member_raises_once(job):
    """Seed 2 raises on its first call only (a marker file under
    ``REPRO_TEST_FLAKY_DIR`` keeps state across attempts and workers)."""
    marker = Path(os.environ["REPRO_TEST_FLAKY_DIR"]) / f"seed-{job.seed}"
    if job.seed == 2 and not marker.exists():
        marker.write_text("raised")
        raise ValueError("transient failure")
    return run_job(job)


def _run_fleet(spec, shard_size):
    """Run a fleet spec through the sharded runner in-process."""
    plan = build_fleet_plan(spec)
    return ExperimentRunner(workers=1).run_sharded(plan.jobs, shard_size=shard_size)


@pytest.fixture(scope="module")
def tenants():
    return sample_tenants(6, seed=42)


@pytest.fixture(scope="module")
def small_fleet(tiny_spec, tenants):
    return FleetSpec(
        n_drives=3, tenants=tenants, drive=tiny_spec, span=4.0, seed=9
    )


class TestTenantLoad:
    def test_requires_exactly_one_source(self):
        profile = get_profile("web")
        with pytest.raises(FleetError):
            TenantLoad("t0")
        with pytest.raises(FleetError):
            TenantLoad("t0", profile=profile, trace=object())
        with pytest.raises(FleetError):
            TenantLoad("", profile=profile)

    def test_sample_tenants_deterministic(self):
        a = sample_tenants(10, seed=5)
        b = sample_tenants(10, seed=5)
        assert [t.tenant_id for t in a] == [t.tenant_id for t in b]
        assert [t.profile.rate for t in a] == [t.profile.rate for t in b]

    def test_sample_tenants_skewed(self):
        rates = [t.profile.rate for t in sample_tenants(200, seed=1)]
        # Family-model skew: the max tenant dominates the median.
        assert max(rates) > 10 * float(np.median(rates))

    def test_sample_tenants_validation(self):
        with pytest.raises(FleetError):
            sample_tenants(0)
        with pytest.raises(FleetError):
            sample_tenants(3, profiles=())
        with pytest.raises(FleetError):
            sample_tenants(3, min_rate=10.0, max_rate=1.0)


class TestPlacement:
    @pytest.mark.parametrize("policy", ["roundrobin", "hash", "leastload"])
    def test_placement_is_partition(self, tenants, policy):
        placement = place_tenants(tenants, 4, policy=policy)
        placed = sorted(i for bucket in placement.assignments for i in bucket)
        assert placed == list(range(len(tenants)))

    @pytest.mark.parametrize("policy", ["roundrobin", "hash", "leastload"])
    def test_placement_deterministic(self, tenants, policy):
        a = place_tenants(tenants, 3, policy=policy)
        b = place_tenants(tenants, 3, policy=policy)
        assert a.assignments == b.assignments

    def test_leastload_balances_better_than_worst_case(self, tenants):
        placement = place_tenants(tenants, 2, policy="leastload")
        loads = [
            sum(tenants[i].profile.rate for i in bucket)
            for bucket in placement.assignments
        ]
        total = sum(loads)
        # Greedy heaviest-first never puts everything on one drive.
        assert max(loads) < total

    def test_placement_validation(self, tenants):
        with pytest.raises(FleetError):
            place_tenants(tenants, 0)
        with pytest.raises(FleetError):
            place_tenants((), 2)
        with pytest.raises(FleetError):
            place_tenants(tenants, 2, policy="nope")
        dupes = (tenants[0], tenants[0])
        with pytest.raises(FleetError):
            place_tenants(dupes, 2)


class TestMultiplex:
    def test_volume_layout_disjoint(self):
        layout = volume_layout(1000, 3)
        assert layout == ((0, 333), (333, 333), (666, 333))
        with pytest.raises(FleetError):
            volume_layout(2, 3)

    def test_requests_conserved_and_volumes_respected(self, tiny_spec, tenants):
        columns = synthesize_tenant_columns(
            tenants, tiny_spec.capacity_sectors, span=3.0, seed=4
        )
        trace, tenant_idx = combine_columns(
            columns, span=3.0, capacity_sectors=tiny_spec.capacity_sectors
        )
        assert len(trace) == sum(c.n_requests for c in columns)
        assert tenant_idx.shape == (len(trace),)
        for k, column in enumerate(columns):
            # Conservation: every synthesized request survives the merge.
            assert int((tenant_idx == k).sum()) == column.n_requests
            # Containment: requests stay inside the tenant's volume.
            ends = column.lbas + column.nsectors
            assert column.lbas.min() >= column.volume_start
            assert ends.max() <= column.volume_start + column.volume_sectors

    def test_merge_is_time_ordered_and_deterministic(self, tiny_spec, tenants):
        columns = synthesize_tenant_columns(
            tenants, tiny_spec.capacity_sectors, span=3.0, seed=4
        )
        trace_a, idx_a = combine_columns(
            columns, span=3.0, capacity_sectors=tiny_spec.capacity_sectors
        )
        trace_b, idx_b = combine_columns(
            columns, span=3.0, capacity_sectors=tiny_spec.capacity_sectors
        )
        assert np.all(np.diff(trace_a.times) >= 0)
        np.testing.assert_array_equal(trace_a.times, trace_b.times)
        np.testing.assert_array_equal(idx_a, idx_b)

    def test_subset_isolates_one_tenant(self, tiny_spec, tenants):
        columns = synthesize_tenant_columns(
            tenants, tiny_spec.capacity_sectors, span=3.0, seed=4
        )
        trace, idx = combine_columns(
            columns, span=3.0, capacity_sectors=tiny_spec.capacity_sectors,
            subset=(2,),
        )
        assert len(trace) == columns[2].n_requests
        assert set(idx.tolist()) <= {2}


class TestFleetJob:
    def test_job_validation(self, tiny_spec, tenants):
        with pytest.raises(FleetError):
            ExperimentJob(profile=None, drive=tiny_spec, tenants=())
        with pytest.raises(FleetError):
            ExperimentJob(
                profile=None, drive=tiny_spec,
                tenants=(tenants[0], tenants[0]),
            )
        with pytest.raises(FleetError):
            ExperimentJob(
                profile=get_profile("web"), drive=tiny_spec, interference=True
            )

    def test_run_job_tenant_path(self, tiny_spec, tenants):
        job = ExperimentJob(
            profile=None, drive=tiny_spec, span=3.0, seed=5,
            tenants=tenants[:3],
        )
        assert job.workload_name == "fleet-3t"
        result = run_job(job)
        assert result.tenant_qos is not None
        assert sorted(result.tenant_qos) == sorted(
            t.tenant_id for t in tenants[:3]
        )
        assert (
            sum(e["n_requests"] for e in result.tenant_qos.values())
            == result.n_requests
        )
        assert result.tenant_interference is None
        # Non-fleet records omit the fleet keys entirely (golden compat).
        plain = run_job(
            ExperimentJob(profile=get_profile("web"), drive=tiny_spec, span=2.0)
        )
        assert "tenant_qos" not in plain.as_dict()
        assert "tenant_qos" in result.as_dict()

    def test_interference_report_fields(self, tiny_spec, tenants):
        job = ExperimentJob(
            profile=None, drive=tiny_spec, span=3.0, seed=5,
            tenants=tenants[:2], interference=True,
        )
        result = run_job(job)
        for entry in result.tenant_interference.values():
            assert set(entry) == {
                "n_requests", "isolated_p99", "colocated_p99", "p99_inflation",
                "isolated_p999", "colocated_p999", "p999_inflation",
            }
            assert entry["p99_inflation"] > 0


class TestSharding:
    def test_make_shards_partition(self):
        shards = make_shards(10, 4)
        assert shards == ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9))
        with pytest.raises(Exception):
            make_shards(10, 0)

    def test_sharded_equals_plain_suite(self, tiny_spec):
        jobs = experiment_matrix(
            profiles=[get_profile("web"), get_profile("email")],
            drive=tiny_spec, seeds_per_combo=2, span=2.0,
        )
        plain = ExperimentRunner(workers=1).run_suite(jobs)
        sharded = ExperimentRunner(workers=1).run_sharded(jobs, shard_size=3)
        assert plain.canonical_json() == sharded.canonical_json()

    def test_shard_failures_flatten_per_member(self, tiny_spec):
        jobs = experiment_matrix(
            profiles=[get_profile("web")], drive=tiny_spec,
            seeds_per_combo=3, span=1.0,
        )

        def explode(job):
            raise ValueError(f"boom {job.seed}")

        report = ExperimentRunner(workers=1, on_error="collect").run_sharded(
            jobs, shard_size=2, job_fn=explode
        )
        assert len(report.failures) == len(jobs)
        assert [f.index for f in report.failures] == list(range(len(jobs)))
        assert all(f.error_type == "ValueError" for f in report.failures)

    @pytest.mark.parametrize(
        "workers, job_fn, error_type",
        [
            pytest.param(1, second_shard_raises, "ValueError", id="raise-inline"),
            pytest.param(2, second_shard_raises, "ValueError", id="raise-pooled"),
            pytest.param(2, second_shard_crashes, "WorkerCrashed", id="crash-pooled"),
        ],
    )
    def test_raise_policy_reports_every_member(
        self, tiny_spec, workers, job_fn, error_type
    ):
        """Under ``on_error="raise"`` every shard still runs, then the
        failed shard raises with one failure per member, each under its
        own label and index."""
        jobs = [
            ExperimentJob(profile=get_profile("web"), drive=tiny_spec, span=1.0, seed=i)
            for i in range(6)
        ]
        with pytest.raises(SuiteError) as excinfo:
            ExperimentRunner(workers=workers).run_sharded(
                jobs, shard_size=2, job_fn=job_fn
            )
        report = excinfo.value.report
        assert [(f.index, f.label) for f in report.failures] == [
            (i, jobs[i].label) for i in (2, 3)
        ]
        assert all(f.error_type == error_type for f in report.failures)
        assert [r.seed for r in report.results] == [0, 1, 4, 5]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shard_with_failed_member_retries_whole(
        self, tiny_spec, tmp_path, monkeypatch, workers
    ):
        """A member that raises once fails its shard's attempt; the shard
        is retried whole under its one budget, and the deterministic
        members leave the merged report as a clean run's."""
        monkeypatch.setenv("REPRO_TEST_FLAKY_DIR", str(tmp_path))
        jobs = [
            ExperimentJob(profile=get_profile("web"), drive=tiny_spec, span=1.0, seed=i)
            for i in range(6)
        ]
        clean = ExperimentRunner(workers=1).run_sharded(jobs, shard_size=2)
        report = ExperimentRunner(workers=workers, max_retries=1).run_sharded(
            jobs, shard_size=2, job_fn=first_member_raises_once
        )
        assert report.ok
        assert report.retries == 1
        assert report.canonical_json() == clean.canonical_json()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_member_carries_its_shard_attempts(self, tiny_spec, workers):
        jobs = [
            ExperimentJob(profile=get_profile("web"), drive=tiny_spec, span=1.0, seed=i)
            for i in range(6)
        ]
        report = ExperimentRunner(
            workers=workers, max_retries=1, on_error="collect"
        ).run_sharded(jobs, shard_size=2, job_fn=second_shard_raises)
        assert [(f.index, f.attempts) for f in report.failures] == [(2, 2), (3, 2)]
        assert report.retries == 1

    def test_shard_result_round_trip(self, tiny_spec):
        jobs = experiment_matrix(
            profiles=[get_profile("web")], drive=tiny_spec,
            seeds_per_combo=2, span=1.0,
        )
        shard = shard_jobs(jobs, 2)[0]
        outcome = run_job(jobs[0])
        failure = JobFailure(
            label="x", index=0, error_type="ValueError", message="m",
            traceback="", attempts=1, wall_seconds=0.1,
        )
        original = ShardResult(indices=(0, 1), outcomes=(outcome, failure))
        rebuilt = ShardResult.from_dict(original.as_dict())
        assert rebuilt.indices == original.indices
        assert isinstance(rebuilt.outcomes[0], type(outcome))
        assert isinstance(rebuilt.outcomes[1], JobFailure)
        assert not original.ok
        assert shard.label == "shard[0..1]"


class TestFleetRun:
    def test_spec_validation(self, tiny_spec, tenants):
        with pytest.raises(FleetError):
            FleetSpec(n_drives=0, tenants=tenants, drive=tiny_spec)
        with pytest.raises(FleetError):
            FleetSpec(n_drives=2, tenants=(), drive=tiny_spec)
        with pytest.raises(FleetError):
            FleetSpec(n_drives=2, tenants=tenants, drive=tiny_spec, span=0)

    def test_build_plan_covers_every_tenant(self, small_fleet):
        plan = build_fleet_plan(small_fleet)
        assert len(plan.jobs) == len(plan.drive_indices)
        placed = sum(len(job.tenants) for job in plan.jobs)
        assert placed == len(small_fleet.tenants)
        # Per-drive seeds are distinct (derived from the fleet seed).
        assert len({job.seed for job in plan.jobs}) == len(plan.jobs)

    def test_run_fleet_summary_conserves_requests(self, small_fleet):
        report = _run_fleet(small_fleet, shard_size=2)
        summary = report.fleet_summary()
        assert sorted(summary) == sorted(
            t.tenant_id for t in small_fleet.tenants
        )
        assert sum(int(e["n_requests"]) for e in summary.values()) == sum(
            r.n_requests for r in report.results
        )
        assert "fleet_summary" in report.as_dict()

    def test_calibrated_tenant_through_fleet(self, tiny_spec, web_trace):
        profile = calibrate_profile(web_trace, name="calibrated", base_scale=0.01)
        tenant = TenantLoad("calibrated", profile=profile)
        spec = FleetSpec(
            n_drives=1, tenants=(tenant,), drive=tiny_spec, span=2.0, seed=3
        )
        report = _run_fleet(spec, shard_size=1)
        assert report.ok
        assert "calibrated" in report.results[0].tenant_qos


class TestFleetScrub:
    def test_allocation_respects_budget_and_caps(self):
        idle = {"a": 10.0, "b": 2.0, "c": 0.0}
        grants = allocate_idle_budget(idle, 9.0)
        assert grants["c"] == 0.0
        assert grants["b"] <= 2.0
        assert sum(grants.values()) == pytest.approx(9.0)
        # Budget larger than total idle: everything capped.
        grants = allocate_idle_budget(idle, 100.0)
        assert grants == {"a": 10.0, "b": 2.0, "c": 0.0}
        with pytest.raises(FleetError):
            allocate_idle_budget(idle, -1.0)

    def test_allocation_deterministic(self):
        idle = {"d%d" % i: float(i) for i in range(8)}
        assert allocate_idle_budget(idle, 11.0) == allocate_idle_budget(
            idle, 11.0
        )

    def test_plan_fleet_scrub(self, small_fleet):
        report = _run_fleet(small_fleet, shard_size=2)
        plan = plan_fleet_scrub(report.results, budget_seconds=5.0,
                                work_seconds_per_drive=2.0)
        assert 0.0 < plan.completion_fraction <= 1.0
        assert plan.total_allocated <= 5.0 + 1e-9
        payload = plan.as_dict()
        assert set(payload["allocations"]) == {r.label for r in report.results}
        with pytest.raises(FleetError):
            plan_fleet_scrub(report.results, 5.0, 0.0)


class _FakeTimeline:
    def __init__(self, intervals):
        self._intervals = intervals

    def idle_intervals(self):
        return self._intervals


class TestBudgetedIdleRun:
    def test_budget_caps_background_work(self):
        timeline = _FakeTimeline([(0.0, 10.0), (20.0, 30.0)])
        task = BackgroundTask(name="scrub", total_work=15.0, chunk_seconds=1.0)
        unbounded = run_in_idle(timeline, task)
        capped = run_in_idle(timeline, task, budget_seconds=6.0)
        assert unbounded.completed_work == 15.0
        assert capped.completed_work == 6.0
        assert capped.completion_time is None

    def test_budget_none_identical(self):
        timeline = _FakeTimeline([(0.0, 7.3), (9.0, 12.0)])
        task = BackgroundTask(
            name="scrub", total_work=8.0, chunk_seconds=0.5, setup_seconds=0.25
        )
        assert run_in_idle(timeline, task) == run_in_idle(
            timeline, task, budget_seconds=None
        )

    def test_budget_accounts_setup(self):
        timeline = _FakeTimeline([(0.0, 100.0)])
        task = BackgroundTask(
            name="scrub", total_work=50.0, chunk_seconds=1.0, setup_seconds=2.0
        )
        capped = run_in_idle(timeline, task, budget_seconds=5.0)
        # 2 s setup + 3 whole chunks fit in the 5 s grant.
        assert capped.completed_work == 3.0
        assert capped.setup_overhead == 2.0

    def test_budget_validation(self):
        timeline = _FakeTimeline([(0.0, 1.0)])
        task = BackgroundTask(name="t", total_work=1.0, chunk_seconds=0.5)
        with pytest.raises(AnalysisError):
            run_in_idle(timeline, task, budget_seconds=0.0)
