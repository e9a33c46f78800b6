"""End-to-end observability tests: wiring, bit-identity, reconstruction.

The contract under test (see :mod:`repro.obs`): attaching an observer at
*any* level never changes a run's results — same engine selection, same
RNG draws, same arrays — while ``metrics`` fills the registry post-hoc
and ``trace`` additionally records replayable events.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.runner import ExperimentJob, ExperimentRunner, run_job
from repro.core.streaming import characterize_events
from repro.core.summary import summarize_trace
from repro.core.timescales import run_millisecond_study
from repro.disk.faults import light_faults
from repro.disk.simulator import DiskSimulator
from repro.errors import SimulationError
from repro.obs import Observer, load_events_jsonl, request_trace_from_events, timeline_from_events
from repro.synth.profiles import get_profile


def _engines(tiny_spec, tiny_spec_nocache):
    """One (name, spec, scheduler, faults) per replay engine."""
    return [
        ("fcfs-vectorized", tiny_spec_nocache, "fcfs", None),
        ("fcfs-sequential", tiny_spec, "fcfs", None),
        ("sstf-sorted", tiny_spec, "sstf", None),
        ("faulted-event-loop", tiny_spec, "fcfs", light_faults()),
    ]


class TestBitIdentity:
    def test_metrics_level_is_bit_identical_on_vectorized_fcfs(
        self, tiny_spec_nocache, web_trace
    ):
        """The acceptance assert: obs='metrics' vs obs=None on the fast
        path — exactly equal arrays, not approximately."""
        baseline = DiskSimulator(tiny_spec_nocache, scheduler="fcfs", seed=3).run(web_trace)
        observed = DiskSimulator(
            tiny_spec_nocache, scheduler="fcfs", seed=3, obs=Observer("metrics")
        ).run(web_trace)
        assert np.array_equal(baseline.start_times, observed.start_times)
        assert np.array_equal(baseline.service_times, observed.service_times)

    def test_every_level_is_bit_identical_on_every_engine(
        self, tiny_spec, tiny_spec_nocache, web_trace
    ):
        for name, spec, scheduler, faults in _engines(tiny_spec, tiny_spec_nocache):
            baseline = DiskSimulator(
                spec, scheduler=scheduler, seed=3, faults=faults
            ).run(web_trace)
            for level in ("off", "metrics", "trace"):
                observed = DiskSimulator(
                    spec, scheduler=scheduler, seed=3, faults=faults,
                    obs=Observer(level),
                ).run(web_trace)
                assert np.array_equal(
                    baseline.start_times, observed.start_times
                ), (name, level)
                assert np.array_equal(
                    baseline.service_times, observed.service_times
                ), (name, level)

    def test_rejects_non_observer(self, tiny_spec):
        with pytest.raises(SimulationError):
            DiskSimulator(tiny_spec, obs="metrics")


class TestMetricsContent:
    def test_counters_and_histograms_match_result(self, tiny_spec, web_trace):
        obs = Observer("metrics")
        result = DiskSimulator(tiny_spec, scheduler="fcfs", seed=3, obs=obs).run(web_trace)
        counters = obs.metrics.counters
        assert counters["sim.requests"].value == len(web_trace)
        assert counters["sim.reads"].value + counters["sim.writes"].value == len(web_trace)
        assert counters["sim.sectors"].value == int(web_trace.nsectors.sum())
        assert obs.metrics.gauges["sim.utilization"].last == pytest.approx(
            result.utilization
        )
        for name in ("sim.service_time", "sim.response_time", "sim.wait_time"):
            assert obs.metrics.histograms[name].n == len(web_trace)
        assert obs.metrics.histograms["sim.service_time"].moments.mean == pytest.approx(
            float(result.service_times.mean())
        )

    def test_fault_counters(self, tiny_spec, web_trace):
        obs = Observer("metrics")
        result = DiskSimulator(
            tiny_spec, seed=3, faults=light_faults(), obs=obs
        ).run(web_trace)
        counters = obs.metrics.counters
        assert result.n_faulted > 0  # light profile on 30 s must fire
        retried = [e for e in result.fault_events if e.retries > 0]
        expected_retries = sum(e.retries for e in retried)
        def value(name):
            counter = counters.get(name)
            return 0 if counter is None else counter.value

        if expected_retries:
            assert value("faults.retries") == expected_retries
            assert (
                value("faults.recovered") + value("faults.hard_failures")
                == len(retried)
            )


class TestEventStream:
    def test_per_source_streams_are_time_ordered(self, tiny_spec, web_trace):
        obs = Observer("trace")
        DiskSimulator(tiny_spec, scheduler="sstf", seed=3, obs=obs).run(web_trace)
        by_source = {}
        for event in obs.events:
            by_source.setdefault(event.source, []).append(event.time)
        assert set(by_source) >= {"sim", "queue", "drive"}
        for source, times in by_source.items():
            assert times == sorted(times), source

    def test_serve_events_cover_every_request_and_run_end_closes(
        self, tiny_spec, web_trace
    ):
        obs = Observer("trace")
        result = DiskSimulator(tiny_spec, scheduler="fcfs", seed=3, obs=obs).run(web_trace)
        kinds = [e.kind for e in obs.events]
        assert kinds.count("serve") == len(web_trace)
        assert kinds[-1] == "run_end"
        run_end = obs.events.events()[-1]
        assert run_end.time == pytest.approx(result.timeline.span)
        assert run_end.data["n_requests"] == len(web_trace)

    def test_vectorized_path_has_no_seek_events(self, tiny_spec_nocache, web_trace):
        """Documented trade-off: the vectorized FCFS engine records
        serve/queue events post-hoc but no per-request seeks."""
        obs = Observer("trace")
        DiskSimulator(tiny_spec_nocache, scheduler="fcfs", seed=3, obs=obs).run(web_trace)
        kinds = {e.kind for e in obs.events}
        assert "serve" in kinds and "seek_start" not in kinds

    def test_trace_and_timeline_reconstruction(self, tiny_spec, web_trace):
        obs = Observer("trace", event_capacity=1 << 18)
        result = DiskSimulator(tiny_spec, scheduler="fcfs", seed=3, obs=obs).run(web_trace)
        rebuilt = request_trace_from_events(obs.events.events(), label="rebuilt")
        assert np.array_equal(rebuilt.times, web_trace.times)
        assert np.array_equal(rebuilt.lbas, web_trace.lbas)
        assert np.array_equal(rebuilt.nsectors, web_trace.nsectors)
        assert np.array_equal(rebuilt.is_write, web_trace.is_write)
        timeline = timeline_from_events(obs.events.events())
        assert timeline.utilization == pytest.approx(
            result.timeline.utilization, abs=1e-12
        )
        assert np.array_equal(timeline.starts, result.timeline.starts)
        assert np.array_equal(timeline.ends, result.timeline.ends)
        assert timeline.span == result.timeline.span


class TestStreamingInterplay:
    def test_dumped_events_match_batch_characterization(
        self, tiny_spec, web_trace, tmp_path
    ):
        """The satellite criterion: JSONL events fed back through the
        streaming characterizer agree with batch summarize_trace to 1e-9."""
        obs = Observer("trace", event_capacity=1 << 18)
        DiskSimulator(tiny_spec, scheduler="fcfs", seed=3, obs=obs).run(web_trace)
        path = tmp_path / "events.jsonl"
        obs.events.dump_jsonl(str(path))
        streamed = characterize_events(load_events_jsonl(str(path))).summary()
        batch = summarize_trace(web_trace)
        for field in (
            "n_requests", "span_seconds", "request_rate", "byte_rate",
            "write_request_fraction", "write_byte_fraction",
            "mean_request_kib", "sequentiality", "interarrival_cv",
        ):
            assert getattr(streamed, field) == pytest.approx(
                getattr(batch, field), abs=1e-9, rel=1e-9
            ), field

    def test_study_runs_on_reconstructed_trace(self, tiny_spec, web_trace):
        """Closing the loop: a simulated run's event dump is itself a
        trace run_millisecond_study accepts."""
        obs = Observer("trace", event_capacity=1 << 18)
        DiskSimulator(tiny_spec, scheduler="fcfs", seed=3, obs=obs).run(web_trace)
        rebuilt = request_trace_from_events(obs.events.events())
        study = run_millisecond_study(rebuilt, tiny_spec, seed=3)
        assert study.summary.n_requests == len(web_trace)


class TestRunnerWiring:
    def _job(self, tiny_spec, obs_level):
        return ExperimentJob(
            profile=get_profile("web"),
            drive=tiny_spec,
            scheduler="fcfs",
            seed=11,
            span=10.0,
            obs_level=obs_level,
        )

    def test_run_job_off_leaves_obs_fields_none(self, tiny_spec):
        result = run_job(self._job(tiny_spec, "off"))
        assert result.phase_wall is None
        assert result.metrics is None
        assert result.trace_events is None

    def test_run_job_metrics_fills_phases_and_registry(self, tiny_spec):
        result = run_job(self._job(tiny_spec, "metrics"))
        assert set(result.phase_wall) >= {"synthesize", "simulate", "describe"}
        assert result.metrics["counters"]["sim.requests"] == result.n_requests
        assert result.trace_events is None

    def test_suite_report_merges_shards(self, tiny_spec):
        jobs = [self._job(tiny_spec, "metrics"),
                dataclasses.replace(self._job(tiny_spec, "metrics"), seed=12)]
        report = ExperimentRunner(workers=1).run_suite(jobs)
        breakdown = report.phase_breakdown()
        assert breakdown["simulate"]["jobs"] == 2
        merged = report.merged_metrics()
        assert merged.counters["sim.requests"].value == sum(
            r.n_requests for r in report.results
        )

    def test_obs_results_identical_to_unobserved_job(self, tiny_spec):
        plain = run_job(self._job(tiny_spec, "off"))
        observed = run_job(self._job(tiny_spec, "trace"))
        assert observed.n_requests == plain.n_requests
        assert observed.mean_response == plain.mean_response
        assert observed.p95_response == plain.p95_response
        assert observed.utilization == plain.utilization
