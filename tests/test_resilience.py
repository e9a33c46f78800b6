"""Crash-safety end to end: resume-after-SIGKILL, suite deadlines, and
the RSS watchdog."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.chaos import ChaosPolicy
from repro.core.journal import SuiteJournal
from repro.core.runner import (
    ExperimentJob,
    ExperimentRunner,
    _rss_bytes,
    run_job,
)
from repro.errors import ResourceGuardError
from repro.synth.profiles import get_profile

# Module-level job functions so worker processes can unpickle them.


def napping_job_fn(job):
    time.sleep(0.3)
    return run_job(job)


_BLOAT = []


def bloating_job_fn(job):
    """Inflate this worker's RSS by ~64 MiB and keep it resident."""
    _BLOAT.append(np.ones(8 * 1024 * 1024))  # 64 MiB of touched pages
    return run_job(job)


def _suite_jobs(tiny_spec, n=4):
    return [
        ExperimentJob(
            profile=get_profile("web"),
            drive=tiny_spec,
            seed=seed,
            span=2.0,
        )
        for seed in range(n)
    ]


# The same four jobs, built in a separate process (literals match the
# tiny_spec fixture in conftest.py).
_CHILD_PRELUDE = """\
import os, signal, sys
from repro.core.journal import SuiteJournal
from repro.core.runner import ExperimentJob, ExperimentRunner
from repro.synth.profiles import get_profile
from repro.disk.drive import DriveSpec
from repro.units import ms

spec = DriveSpec(name="tiny", rpm=10_000, heads=2, cylinders=2_000,
                 nzones=4, outer_spt=300, inner_spt=200,
                 single_cylinder_seek=ms(0.5), full_stroke_seek=ms(5.0))
jobs = [
    ExperimentJob(profile=get_profile("web"), drive=spec, seed=s, span=2.0)
    for s in range(4)
]
"""

_CRASHING_SUITE = _CHILD_PRELUDE + """\
journal = SuiteJournal.open(sys.argv[1], jobs)

def die_after_two(done, total, outcome):
    if done == 2:
        os.kill(os.getpid(), signal.SIGKILL)

ExperimentRunner(workers=1).run_suite(
    jobs, progress=die_after_two, journal=journal
)
"""


def _run_child(script_path, *argv):
    return subprocess.run(
        [sys.executable, str(script_path), *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd="/root/repo",
        timeout=300,
    )


class TestResumeAfterSigkill:
    def test_resumed_report_is_bit_identical(self, tiny_spec, tmp_path):
        # 1. A suite process is SIGKILLed after two journaled jobs.
        script = tmp_path / "crashing_suite.py"
        script.write_text(_CRASHING_SUITE)
        journal_path = tmp_path / "suite.jsonl"
        proc = _run_child(script, str(journal_path))
        assert proc.returncode == -signal.SIGKILL, proc.stderr

        lines = journal_path.read_text().splitlines()
        assert len(lines) == 1 + 2  # header + exactly the two fsync'd jobs

        # 2. Resume in this process: only the remaining jobs execute.
        jobs = _suite_jobs(tiny_spec)
        with SuiteJournal.open(journal_path, jobs, resume=True) as journal:
            resumed = ExperimentRunner(workers=1).run_suite(
                jobs, journal=journal
            )
            assert journal.n_recorded == 2  # the two jobs the crash lost

        # 3. The merged report is canonically bit-identical to a clean,
        #    uninterrupted run of the same suite.
        clean = ExperimentRunner(workers=1).run_suite(jobs)
        assert resumed.ok
        assert resumed.canonical_json() == clean.canonical_json()
        assert resumed.resilience["journal.resumed_jobs"] == 2

        # 4. No job executed twice: one result record per fingerprint.
        records = [json.loads(line) for line in journal_path.read_text().splitlines()]
        fingerprints = [r["fingerprint"] for r in records if r["kind"] == "result"]
        assert len(fingerprints) == len(jobs)
        assert len(set(fingerprints)) == len(jobs)

    def test_fully_journaled_suite_runs_nothing(self, tiny_spec, tmp_path):
        jobs = _suite_jobs(tiny_spec, 2)
        path = tmp_path / "done.jsonl"
        with SuiteJournal.open(path, jobs) as journal:
            first = ExperimentRunner(workers=1).run_suite(jobs, journal=journal)
        def explode(job):
            raise AssertionError("a journaled job was re-executed")
        with SuiteJournal.open(path, jobs, resume=True) as journal:
            second = ExperimentRunner(workers=1).run_suite(
                jobs, job_fn=explode, journal=journal
            )
            assert journal.n_recorded == 0
        assert second.canonical_json() == first.canonical_json()


class TestSuiteDeadline:
    def test_deadline_returns_partial_then_resume_completes(
        self, tiny_spec, tmp_path
    ):
        jobs = _suite_jobs(tiny_spec)
        path = tmp_path / "deadline.jsonl"
        with SuiteJournal.open(path, jobs) as journal:
            partial = ExperimentRunner(
                workers=1, suite_deadline=0.45
            ).run_suite(jobs, job_fn=napping_job_fn, journal=journal)
        assert partial.deadline_exceeded
        assert partial.ok  # abandoned jobs are unresolved, not failures
        assert 0 < len(partial.results) < len(jobs)
        assert partial.resilience["suite.deadline_hits"] == 1

        with SuiteJournal.open(path, jobs, resume=True) as journal:
            finished = ExperimentRunner(workers=1).run_suite(
                jobs, job_fn=napping_job_fn, journal=journal
            )
        clean = ExperimentRunner(workers=1).run_suite(
            jobs, job_fn=napping_job_fn
        )
        assert not finished.deadline_exceeded
        assert finished.canonical_json() == clean.canonical_json()

    def test_pool_deadline_kills_in_flight_workers(self, tiny_spec):
        jobs = _suite_jobs(tiny_spec)
        report = ExperimentRunner(workers=2, suite_deadline=0.4).run_suite(
            jobs, job_fn=napping_job_fn
        )
        assert report.deadline_exceeded
        assert report.n_completed < len(jobs)

    def test_deadline_during_chaos_stall_leaks_no_worker(self, tiny_spec):
        """A deadline that expires while chaos holds workers SIGSTOPped
        returns promptly and leaves no stopped child behind."""
        runner = ExperimentRunner(
            workers=2,
            chaos=ChaosPolicy(stall_prob=1.0, stall_seconds=30.0),
            suite_deadline=0.5,
        )
        start = time.perf_counter()
        try:
            report = runner.run_suite(_suite_jobs(tiny_spec), job_fn=napping_job_fn)
            wall = time.perf_counter() - start
            leftover = multiprocessing.active_children()
        finally:
            # Never leave a stopped child to hang the interpreter at exit.
            for child in multiprocessing.active_children():
                try:
                    os.kill(child.pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass
                child.kill()
                child.join(5.0)
        assert report.deadline_exceeded
        assert report.resilience["chaos.stalls"] >= 1
        assert leftover == []
        assert wall < 1.5

    def test_validation(self):
        with pytest.raises(ResourceGuardError, match="suite_deadline"):
            ExperimentRunner(suite_deadline=0.0)
        with pytest.raises(ResourceGuardError, match="rss_limit_mb"):
            ExperimentRunner(rss_limit_mb=-1.0)


class TestRssWatchdog:
    def test_bloated_workers_are_recycled(self, tiny_spec):
        # Limit sits above this process's baseline (workers fork from an
        # equivalent image) but below baseline + the 64 MiB the job pins.
        limit_mb = _rss_bytes() / (1024 * 1024) + 32
        jobs = _suite_jobs(tiny_spec, 3)
        report = ExperimentRunner(
            workers=2, rss_limit_mb=limit_mb
        ).run_suite(jobs, job_fn=bloating_job_fn)
        assert report.ok
        assert report.resilience["guard.workers_recycled"] >= 1

    def test_rss_probe_reports_something(self):
        assert _rss_bytes() > 0
