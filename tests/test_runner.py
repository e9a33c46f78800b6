"""The parallel experiment runner."""

import os
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.runner import (
    ExperimentJob,
    ExperimentRunner,
    JobFailure,
    JobResult,
    derive_seeds,
    experiment_matrix,
    run_job,
)
from repro.errors import SimulationError, SuiteError
from repro.synth.profiles import get_profile
from repro.synth.workload import ArrivalSpec, WorkloadProfile

# Module-level job functions so worker processes can unpickle them.

RAISING_SEEDS = (3, 11)
SLEEPING_SEEDS = (7,)
KILLED_SEEDS = (5,)


def self_killing_job_fn(job):
    """Simulate normally, except the killed seed SIGKILLs its own worker
    mid-job: no exception, no result, the process just vanishes."""
    if job.seed in KILLED_SEEDS:
        os.kill(os.getpid(), signal.SIGKILL)
    return run_job(job)


def chaotic_job_fn(job):
    """Fail deterministically by seed: raise, hang, or simulate."""
    if job.seed in RAISING_SEEDS:
        raise ValueError(f"injected failure for seed {job.seed}")
    if job.seed in SLEEPING_SEEDS:
        time.sleep(30.0)
    return run_job(job)


def flaky_once_job_fn(job):
    """Raise on the first call, succeed on retry (marker file keeps
    state across attempts, in-process or in a forked worker)."""
    marker = Path(os.environ["REPRO_TEST_FLAKY_MARKER"])
    if not marker.exists():
        marker.write_text("first attempt")
        raise RuntimeError("transient failure")
    return run_job(job)


def crash_once_job_fn(job):
    """SIGKILL the worker on each job's first attempt (one marker file
    per seed under ``REPRO_TEST_CRASH_DIR``), simulate on the retry."""
    marker = Path(os.environ["REPRO_TEST_CRASH_DIR"]) / f"seed-{job.seed}"
    if not marker.exists():
        marker.write_text("crashed")
        os.kill(os.getpid(), signal.SIGKILL)
    return run_job(job)


def crash_then_raise_job_fn(job):
    """SIGKILL the worker on each job's first attempt (one marker file
    per seed under ``REPRO_TEST_CRASH_DIR``), raise on every later one."""
    marker = Path(os.environ["REPRO_TEST_CRASH_DIR"]) / f"seed-{job.seed}"
    if not marker.exists():
        marker.write_text("crashed")
        os.kill(os.getpid(), signal.SIGKILL)
    raise ValueError(f"injected failure for seed {job.seed}")


def raise_then_crash_job_fn(job):
    """Seed 0 raises at once; seed 1 SIGKILLs its worker on its first
    attempt a little later, after that failure has stopped submission."""
    if job.seed == 0:
        raise ValueError("injected failure for seed 0")
    time.sleep(0.5)
    return crash_once_job_fn(job)


def napping_job_fn(job):
    time.sleep(0.2)
    return run_job(job)


def flaky_then_napping_job_fn(job):
    """Raise on the first call, then succeed too slowly (past a short
    ``job_timeout``) on the retry."""
    flaky_marker = Path(os.environ["REPRO_TEST_FLAKY_MARKER"])
    if not flaky_marker.exists():
        flaky_marker.write_text("first attempt")
        raise RuntimeError("transient failure")
    return napping_job_fn(job)


def lock_returning_job_fn(job):
    """Return a result that cannot be pickled back to the parent."""
    return threading.Lock()


# A lambda has no importable name, so a job carrying it cannot be
# pickled to a worker.
UNSENDABLE_JOB_FNS = (lambda job: run_job(job),)


@pytest.fixture(scope="module")
def jobs(tiny_spec):
    profiles = [get_profile("web"), get_profile("database")]
    return experiment_matrix(
        profiles, tiny_spec, schedulers=("fcfs", "sstf"), span=4.0, base_seed=7
    )


class TestJobAndSeeds:
    def test_derive_seeds_deterministic(self):
        assert derive_seeds(123, 5) == derive_seeds(123, 5)

    def test_derive_seeds_prefix_stable(self):
        # Job i keeps its seed when more jobs are appended to the suite.
        assert derive_seeds(123, 8)[:3] == derive_seeds(123, 3)

    def test_derive_seeds_distinct(self):
        seeds = derive_seeds(0, 64)
        assert len(set(seeds)) == 64

    def test_derive_seeds_depend_on_base(self):
        assert derive_seeds(1, 4) != derive_seeds(2, 4)

    def test_negative_count_rejected(self):
        with pytest.raises(SimulationError):
            derive_seeds(0, -1)

    def test_matrix_shape_and_labels(self, jobs, tiny_spec):
        assert len(jobs) == 4  # 2 profiles x 2 schedulers x 1 seed
        labels = [j.label for j in jobs]
        assert len(set(labels)) == 4
        assert all(tiny_spec.name in label for label in labels)

    def test_matrix_replicates_get_distinct_seeds(self, tiny_spec):
        jobs = experiment_matrix(
            [get_profile("web")], tiny_spec, seeds_per_combo=3, span=2.0
        )
        assert len({j.seed for j in jobs}) == 3

    def test_run_job_summary(self, tiny_spec):
        job = ExperimentJob(
            profile=get_profile("web"), drive=tiny_spec, span=4.0, seed=3
        )
        result = run_job(job)
        assert result.n_requests > 0
        assert 0.0 < result.utilization < 1.0
        assert result.mean_response >= result.mean_service > 0.0
        assert result.replay_rate > 0.0
        assert result.as_dict()["replay_rate"] == result.replay_rate

    @pytest.mark.parametrize(
        "variant", ["plain", "tiered", "faulted", "fleet", "obs-trace"]
    )
    def test_as_dict_matches_dataclasses_asdict(self, tiny_spec, variant):
        # as_dict copies fields shallowly; the record must equal the deep
        # copy dataclasses.asdict made, field for field and in JSON.
        import dataclasses
        import json

        from repro.disk.faults import get_fault_profile
        from repro.fleet import sample_tenants
        from repro.tier import TierConfig

        web = get_profile("web")
        options = {
            "plain": dict(profile=web),
            "tiered": dict(profile=web, tier=TierConfig(mode="wb", capacity_bytes=1 << 22)),
            "faulted": dict(profile=web, faults=get_fault_profile("moderate")),
            "fleet": dict(
                profile=None, tenants=tuple(sample_tenants(3, seed=42)),
                interference=True,
            ),
            "obs-trace": dict(profile=web, obs_level="trace"),
        }[variant]
        result = run_job(
            ExperimentJob(drive=tiny_spec, span=3.0, seed=5, **options)
        )
        expected = dataclasses.asdict(result)
        expected["replay_rate"] = result.replay_rate
        for key, value in list(expected.items()):
            if value is None and key.startswith(("tier_", "tenant_")):
                del expected[key]
        record = result.as_dict()
        assert record == expected
        assert list(record) == list(expected)
        assert json.dumps(record, sort_keys=True) == json.dumps(expected, sort_keys=True)

    def test_run_job_empty_trace(self, tiny_spec):
        quiet = WorkloadProfile(
            name="quiet", rate=0.001, arrival=ArrivalSpec("bmodel")
        )
        result = run_job(ExperimentJob(profile=quiet, drive=tiny_spec, span=2.0))
        assert result.n_requests == 0
        assert result.utilization == 0.0
        assert np.isnan(result.mean_response)


class TestRunner:
    def test_empty_job_list(self):
        assert ExperimentRunner().run([]) == []

    def test_bad_worker_count_rejected(self):
        with pytest.raises(SimulationError):
            ExperimentRunner(workers=0)

    def test_inline_results_in_input_order(self, jobs):
        results = ExperimentRunner(workers=1).run(jobs)
        assert [r.label for r in results] == [j.label for j in jobs]

    def test_parallel_matches_inline(self, jobs):
        # Worker count must not change any simulated number.
        inline = ExperimentRunner(workers=1).run(jobs)
        parallel = ExperimentRunner(workers=2).run(jobs)
        for a, b in zip(inline, parallel):
            assert a.label == b.label
            assert a.n_requests == b.n_requests
            assert a.utilization == b.utilization
            assert a.mean_response == b.mean_response
            assert a.total_busy == b.total_busy

    def test_reference_engine_agrees(self, tiny_spec):
        profile = get_profile("database")
        fast_job = ExperimentJob(profile=profile, drive=tiny_spec, span=4.0, seed=5)
        slow_job = ExperimentJob(
            profile=profile, drive=tiny_spec, span=4.0, seed=5, fast_path=False
        )
        fast, slow = ExperimentRunner(workers=1).run([fast_job, slow_job])
        assert fast.utilization == slow.utilization
        assert fast.mean_response == slow.mean_response


def same_result(a: JobResult, b: JobResult) -> bool:
    """Field equality, excluding the wall-clock timing field."""
    skip = {"wall_seconds", "replay_rate"}
    fields = (f for f in a.as_dict() if f not in skip)
    return all(_field_equal(getattr(a, f), getattr(b, f)) for f in fields)


def _field_equal(x, y):
    if isinstance(x, float) and np.isnan(x):
        return isinstance(y, float) and np.isnan(y)
    return x == y


@pytest.fixture
def seeded_jobs(tiny_spec):
    profile = get_profile("web")
    return [
        ExperimentJob(profile=profile, drive=tiny_spec, span=1.0, seed=i)
        for i in range(16)
    ]


class TestRunnerValidation:
    def test_bad_max_retries(self):
        with pytest.raises(SimulationError):
            ExperimentRunner(max_retries=-1)

    def test_bad_job_timeout(self):
        with pytest.raises(SimulationError):
            ExperimentRunner(job_timeout=0.0)

    def test_bad_on_error(self):
        with pytest.raises(SimulationError):
            ExperimentRunner(on_error="ignore")


class TestSuiteReport:
    def test_all_success_matches_plain_run(self, seeded_jobs):
        jobs = seeded_jobs[:4]
        report = ExperimentRunner(workers=1).run_suite(jobs)
        assert report.ok
        assert report.n_jobs == 4 and report.n_completed == 4
        assert report.retries == 0
        assert report.workers == 1
        assert report.wall_seconds > 0
        expected = [run_job(job) for job in jobs]
        assert all(same_result(a, b) for a, b in zip(report.results, expected))

    def test_run_is_run_suite_results(self, seeded_jobs):
        jobs = seeded_jobs[:3]
        via_run = ExperimentRunner(workers=1).run(jobs)
        via_suite = ExperimentRunner(workers=1).run_suite(jobs).results
        assert all(same_result(a, b) for a, b in zip(via_run, via_suite))

    def test_as_dict_round_trip(self, seeded_jobs):
        report = ExperimentRunner(workers=1).run_suite(seeded_jobs[:2])
        payload = report.as_dict()
        assert payload["n_jobs"] == 2
        assert len(payload["results"]) == 2
        assert payload["failures"] == []


class TestFailurePaths:
    def test_injected_failure_suite_collects(self, seeded_jobs):
        """The acceptance scenario: 16 jobs, 2 raising, 1 hung."""
        runner = ExperimentRunner(
            workers=2, job_timeout=1.5, on_error="collect"
        )
        report = runner.run_suite(seeded_jobs, job_fn=chaotic_job_fn)
        assert len(report.results) == 13
        assert len(report.failures) == 3
        # Successes stay in input order.
        good_seeds = [r.seed for r in report.results]
        assert good_seeds == [
            i for i in range(16) if i not in RAISING_SEEDS + SLEEPING_SEEDS
        ]
        by_seed = {seeded_jobs[f.index].seed: f for f in report.failures}
        for seed in RAISING_SEEDS:
            failure = by_seed[seed]
            assert failure.error_type == "ValueError"
            assert f"seed {seed}" in failure.message
            assert "Traceback" in failure.traceback
            assert failure.attempts == 1
        hung = by_seed[SLEEPING_SEEDS[0]]
        assert hung.error_type == "TimeoutError"
        assert hung.wall_seconds >= 1.5
        # Every failure serializes (the CLI writes these into --json).
        assert all(f.as_dict()["label"] for f in report.failures)

    def test_worker_killed_mid_job_is_reported_not_hung(self, seeded_jobs):
        """A worker dying without raising (SIGKILL, OOM kill) must become
        a WorkerCrashed failure, not hang the suite forever — even with
        no job_timeout configured."""
        jobs = seeded_jobs[:8]
        runner = ExperimentRunner(workers=2, on_error="collect")
        start = time.monotonic()
        report = runner.run_suite(jobs, job_fn=self_killing_job_fn)
        assert time.monotonic() - start < 60.0
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.index == KILLED_SEEDS[0]
        assert failure.error_type == "WorkerCrashed"
        assert "exited with code" in failure.message
        # The replacement worker finishes every remaining job.
        assert [r.seed for r in report.results] == [
            j.seed for j in jobs if j.seed not in KILLED_SEEDS
        ]

    def test_backoff_wait_does_not_spin(self, seeded_jobs, tmp_path, monkeypatch):
        """With every job backing off and nothing in flight, the parent
        sleeps until the earliest retry instead of polling at full CPU."""
        from repro.core.backoff import BackoffPolicy

        monkeypatch.setenv("REPRO_TEST_CRASH_DIR", str(tmp_path))
        runner = ExperimentRunner(
            workers=2, max_retries=1,
            retry_backoff=BackoffPolicy(base=1.0, jitter=0.0),
        )
        wall, cpu = time.perf_counter(), time.process_time()
        report = runner.run_suite(seeded_jobs[:2], job_fn=crash_once_job_fn)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        assert report.ok and report.retries == 2
        assert wall >= 1.0
        assert cpu < 0.25 * wall, f"parent used {cpu:.2f} s CPU in {wall:.2f} s"

    def test_pool_loop_never_sleeps_with_a_job_in_flight(
        self, seeded_jobs, monkeypatch
    ):
        """The pooled loop blocks on worker pipes and sentinels: with no
        failure and no backoff it never sleeps on a poll interval."""
        import repro.core.runner as runner_module

        def no_sleep(seconds):
            raise AssertionError(f"runner slept {seconds} s with a job in flight")

        monkeypatch.setattr(runner_module, "sleep", no_sleep)
        jobs = seeded_jobs[:8]
        report = ExperimentRunner(workers=2).run_suite(jobs)
        assert report.ok and report.retries == 0
        assert [r.seed for r in report.results] == [j.seed for j in jobs]

    def test_requeue_after_submission_stopped_exits(
        self, seeded_jobs, tmp_path, monkeypatch
    ):
        """A crashed job requeued after a failure stopped submission will
        never run: the pool loop returns instead of waiting on it."""
        monkeypatch.setenv("REPRO_TEST_CRASH_DIR", str(tmp_path))
        runner = ExperimentRunner(workers=2, max_retries=1, suite_deadline=30.0)
        start = time.monotonic()
        with pytest.raises(SuiteError) as excinfo:
            runner.run_suite(seeded_jobs[:2], job_fn=raise_then_crash_job_fn)
        assert time.monotonic() - start < 10.0
        report = excinfo.value.report
        assert not report.deadline_exceeded
        assert [f.index for f in report.failures] == [0]
        # Job 0's retry after its raise and job 1's after its crash.
        assert report.resilience["suite.resubmissions"] == 2

    def test_raise_policy_stops_and_attaches_report(self, seeded_jobs):
        runner = ExperimentRunner(workers=1)
        with pytest.raises(SuiteError) as excinfo:
            runner.run_suite(seeded_jobs, job_fn=chaotic_job_fn)
        report = excinfo.value.report
        assert len(report.failures) == 1
        assert report.failures[0].index == RAISING_SEEDS[0]
        # Inline fail-fast: nothing after the failing job was run.
        assert report.n_completed == RAISING_SEEDS[0] + 1

    def test_retry_succeeds_second_attempt(self, seeded_jobs, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_TEST_FLAKY_MARKER", str(tmp_path / "marker")
        )
        runner = ExperimentRunner(workers=1, max_retries=1)
        report = runner.run_suite(seeded_jobs[:1], job_fn=flaky_once_job_fn)
        assert report.ok
        assert report.retries == 1
        assert same_result(report.results[0], run_job(seeded_jobs[0]))

    @pytest.mark.parametrize(
        "workers, job_fn, bad_seed, job_timeout",
        [
            pytest.param(1, chaotic_job_fn, RAISING_SEEDS[0], None, id="raise-inline"),
            pytest.param(2, chaotic_job_fn, RAISING_SEEDS[0], None, id="raise-pooled"),
            pytest.param(2, self_killing_job_fn, KILLED_SEEDS[0], None, id="crash-pooled"),
            pytest.param(2, chaotic_job_fn, SLEEPING_SEEDS[0], 0.2, id="timeout-pooled"),
        ],
    )
    def test_retries_exhausted_counts_attempts(
        self, seeded_jobs, workers, job_fn, bad_seed, job_timeout
    ):
        """However a job fails for good (in-worker raise, worker crash,
        per-job timeout), every attempt shows in its ``attempts`` and in
        the suite's ``retries``."""
        jobs = seeded_jobs[bad_seed - 1:bad_seed + 2]
        runner = ExperimentRunner(
            workers=workers, max_retries=2, job_timeout=job_timeout,
            on_error="collect",
        )
        report = runner.run_suite(jobs, job_fn=job_fn)
        assert [f.index for f in report.failures] == [1]
        assert report.failures[0].attempts == 3
        assert report.retries == sum(f.attempts - 1 for f in report.failures) == 2

    def test_crash_then_raise_shares_one_budget(
        self, seeded_jobs, tmp_path, monkeypatch
    ):
        """A worker crash and a later raise draw on the same
        ``max_retries``: each job is tried exactly ``max_retries + 1``
        times, and its attempts are its submissions."""
        monkeypatch.setenv("REPRO_TEST_CRASH_DIR", str(tmp_path))
        runner = ExperimentRunner(workers=2, max_retries=1, on_error="collect")
        report = runner.run_suite(seeded_jobs[:2], job_fn=crash_then_raise_job_fn)
        assert [f.index for f in report.failures] == [0, 1]
        for failure in report.failures:
            assert failure.error_type == "ValueError"
            assert failure.attempts == 2
        assert report.retries == 2
        assert report.resilience["suite.worker_crashes"] == 2
        assert report.resilience["suite.resubmissions"] == 2

    def test_inline_timeout_counts_the_attempts_it_used(
        self, seeded_jobs, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_TEST_FLAKY_MARKER", str(tmp_path / "marker")
        )
        runner = ExperimentRunner(
            workers=1, max_retries=1, job_timeout=0.05, on_error="collect"
        )
        report = runner.run_suite(
            seeded_jobs[:1], job_fn=flaky_then_napping_job_fn
        )
        assert report.failures[0].error_type == "TimeoutError"
        assert report.failures[0].attempts == 2
        assert report.retries == 1

    def test_unsendable_job_fails_without_hanging(self, seeded_jobs):
        runner = ExperimentRunner(workers=2, on_error="collect")
        start = time.monotonic()
        report = runner.run_suite(seeded_jobs[:2], job_fn=UNSENDABLE_JOB_FNS[0])
        assert time.monotonic() - start < 10.0
        assert [f.index for f in report.failures] == [0, 1]
        for failure in report.failures:
            assert failure.error_type == "PicklingError"
            assert "job could not be sent to a worker" in failure.message
            assert failure.attempts == 1

    def test_unsendable_result_becomes_a_failure(self, seeded_jobs):
        runner = ExperimentRunner(workers=2, on_error="collect")
        report = runner.run_suite(seeded_jobs[:2], job_fn=lock_returning_job_fn)
        assert [f.index for f in report.failures] == [0, 1]
        for failure in report.failures:
            assert "job result could not be sent back" in failure.message
            assert failure.label == seeded_jobs[failure.index].label

    def test_inline_timeout_post_hoc(self, seeded_jobs):
        runner = ExperimentRunner(
            workers=1, job_timeout=0.05, on_error="collect"
        )
        report = runner.run_suite(seeded_jobs[:1], job_fn=napping_job_fn)
        assert len(report.failures) == 1
        assert report.failures[0].error_type == "TimeoutError"
        assert report.failures[0].index == 0

    def test_inline_capture_matches_pool(self, seeded_jobs):
        jobs = seeded_jobs[:6]
        inline = ExperimentRunner(workers=1, on_error="collect").run_suite(
            jobs, job_fn=chaotic_job_fn
        )
        pooled = ExperimentRunner(workers=3, on_error="collect").run_suite(
            jobs, job_fn=chaotic_job_fn
        )
        assert [r.label for r in inline.results] == [r.label for r in pooled.results]
        assert [f.index for f in inline.failures] == [f.index for f in pooled.failures]
        assert [f.error_type for f in inline.failures] == [
            f.error_type for f in pooled.failures
        ]

    def test_progress_callback_sees_every_job(self, seeded_jobs):
        jobs = seeded_jobs[:6]
        seen = []
        runner = ExperimentRunner(workers=1, on_error="collect")
        runner.run_suite(
            jobs,
            progress=lambda done, total, outcome: seen.append((done, total, outcome)),
            job_fn=chaotic_job_fn,
        )
        assert [d for d, _, _ in seen] == list(range(1, 7))
        assert all(t == 6 for _, t, _ in seen)
        kinds = [type(o) for _, _, o in seen]
        assert kinds.count(JobFailure) == 1  # only seed 3 raises within jobs[:6]
