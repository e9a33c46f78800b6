"""Drive-level fault injection and degraded-mode simulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.background import plan_media_scrub, scrub_latent_regions
from repro.core.latency import analyze_degraded_tail, tail_inflation
from repro.core.runner import ExperimentJob, ExperimentRunner, experiment_matrix
from repro.disk.drive import DiskDrive
from repro.disk.faults import (
    FaultModel,
    FaultProfile,
    available_fault_profiles,
    get_fault_profile,
    light_faults,
    moderate_faults,
    severe_faults,
)
from repro.disk.simulator import DiskSimulator
from repro.disk.timeline import BusyIdleTimeline
from repro.errors import FaultInjectionError
from repro.synth.profiles import get_profile
from repro.traces.millisecond import RequestTrace
from repro.units import ms

SPAN = 8.0
#: Safe LBA ceiling for generated workloads: well inside the tiny drive.
LBA_CEILING = 400_000


@pytest.fixture(scope="module")
def geometry(tiny_spec):
    return tiny_spec.geometry()


@pytest.fixture(scope="module")
def short_trace(tiny_spec):
    return get_profile("web").synthesize(
        span=SPAN, capacity_sectors=tiny_spec.capacity_sectors, seed=21
    )


class TestProfileValidation:
    def test_bad_region_sectors(self):
        with pytest.raises(FaultInjectionError):
            FaultProfile(region_sectors=0)

    def test_negative_region_counts(self):
        with pytest.raises(FaultInjectionError):
            FaultProfile(latent_region_count=-1)
        with pytest.raises(FaultInjectionError):
            FaultProfile(slow_region_count=-1)

    def test_probability_bounds(self):
        with pytest.raises(FaultInjectionError):
            FaultProfile(transient_error_prob=1.5)
        with pytest.raises(FaultInjectionError):
            FaultProfile(retry_success_prob=-0.1)

    def test_recovery_parameters(self):
        with pytest.raises(FaultInjectionError):
            FaultProfile(slow_factor=0.9)
        with pytest.raises(FaultInjectionError):
            FaultProfile(max_retries=0)
        with pytest.raises(FaultInjectionError):
            FaultProfile(retry_penalty=-1.0)
        with pytest.raises(FaultInjectionError):
            FaultProfile(backoff_factor=0.5)

    def test_active_flag(self):
        assert not FaultProfile().active
        assert FaultProfile(transient_error_prob=0.1).active
        assert FaultProfile(latent_region_count=1).active
        assert FaultProfile(slow_region_count=1).active


class TestProfileRegistry:
    def test_builtin_names(self):
        assert set(available_fault_profiles()) == {"light", "moderate", "severe"}

    def test_lookup_by_name(self):
        for name in ("light", "moderate", "severe"):
            profile = get_fault_profile(name)
            assert profile.name == name
            assert profile.active

    def test_unknown_name_rejected(self):
        with pytest.raises(FaultInjectionError):
            get_fault_profile("pristine")

    def test_severity_ordering(self):
        light, moderate, severe = light_faults(), moderate_faults(), severe_faults()
        assert light.latent_region_count < moderate.latent_region_count
        assert moderate.latent_region_count < severe.latent_region_count
        assert light.transient_error_prob < severe.transient_error_prob


class TestLayout:
    def test_same_seed_same_layout(self, geometry):
        a = FaultModel(severe_faults(), geometry, seed=1)
        b = FaultModel(severe_faults(), geometry, seed=1)
        assert a.latent_regions() == b.latent_regions()
        assert a.slow_regions() == b.slow_regions()

    def test_different_seed_different_layout(self, geometry):
        a = FaultModel(severe_faults(), geometry, seed=1)
        b = FaultModel(severe_faults(), geometry, seed=2)
        assert a.latent_regions() != b.latent_regions()

    def test_profile_seed_overrides_simulator_seed(self, geometry):
        pinned = FaultProfile(
            name="pinned", latent_region_count=4, seed=99
        )
        a = FaultModel(pinned, geometry, seed=1)
        b = FaultModel(pinned, geometry, seed=2)
        assert a.latent_regions() == b.latent_regions()

    def test_counts_match_profile(self, geometry):
        model = FaultModel(moderate_faults(), geometry, seed=0)
        profile = moderate_faults()
        assert len(model.latent_regions()) == profile.latent_region_count
        assert len(model.slow_regions()) == profile.slow_region_count
        assert not set(model.latent_regions()) & set(model.slow_regions())

    def test_region_sectors_beyond_capacity_rejected(self, geometry):
        with pytest.raises(FaultInjectionError):
            FaultModel(
                FaultProfile(region_sectors=geometry.capacity_sectors * 2),
                geometry,
            )

    def test_too_many_faulty_regions_rejected(self, geometry):
        # Two regions total, both wanted latent: no drawable region is
        # left outside the spare tail.
        profile = FaultProfile(
            latent_region_count=2,
            region_sectors=geometry.capacity_sectors // 2,
        )
        with pytest.raises(FaultInjectionError):
            FaultModel(profile, geometry)


def _single_latent_model(geometry, **overrides):
    params = dict(
        name="one-latent",
        latent_region_count=1,
        retry_success_prob=1.0,
        retry_penalty=ms(5.0),
    )
    params.update(overrides)
    return FaultModel(FaultProfile(**params), geometry, seed=3)


class TestFaultSemantics:
    BASE = 0.005

    def test_clean_access_untouched(self, geometry):
        model = _single_latent_model(geometry)
        region = model.latent_regions()[0]
        clean_lba = (region + 1) * model.profile.region_sectors
        service, event = model.on_media_access(clean_lba, 8, self.BASE, 0.0)
        assert service == self.BASE
        assert event is None

    def test_latent_recovery_and_reassignment(self, geometry):
        model = _single_latent_model(geometry)
        region = model.latent_regions()[0]
        lba = region * model.profile.region_sectors
        service, event = model.on_media_access(lba, 8, self.BASE, 0.0)
        assert event.kind == "latent"
        assert event.retries == 1 and event.recovered and event.reassigned
        assert service == pytest.approx(self.BASE + model.profile.retry_penalty)
        assert event.penalty == pytest.approx(model.profile.retry_penalty)
        # The region now lives in the spare area near the spindle...
        assert model.effective_lba(lba) != lba
        # ...and does not fire again.
        _, second = model.on_media_access(lba, 8, self.BASE, 1.0)
        assert second is None

    def test_reassignment_changes_seek_geometry(self, tiny_spec, geometry):
        model = _single_latent_model(geometry)
        region = model.latent_regions()[0]
        lba = region * model.profile.region_sectors
        drive = DiskDrive(tiny_spec, seed=0, faults=model)
        before = drive.cylinder_of(lba)
        drive.service_time(lba, 8, False, 0.0)
        after = drive.cylinder_of(lba)
        assert after != before
        # Spare slots sit on the innermost cylinders.
        assert after == geometry.total_cylinders - 1

    def test_retry_ladder_escalates(self, geometry):
        model = _single_latent_model(
            geometry, retry_success_prob=0.0, max_retries=3, backoff_factor=2.0
        )
        region = model.latent_regions()[0]
        lba = region * model.profile.region_sectors
        service, event = model.on_media_access(lba, 8, self.BASE, 0.0)
        assert event.retries == 3 and not event.recovered and not event.reassigned
        penalty = model.profile.retry_penalty * (1 + 2 + 4)
        assert service == pytest.approx(self.BASE + penalty)

    def test_transient_certain(self, geometry):
        profile = FaultProfile(
            name="noisy", transient_error_prob=1.0, retry_success_prob=1.0
        )
        model = FaultModel(profile, geometry, seed=0)
        service, event = model.on_media_access(0, 8, self.BASE, 0.0)
        assert event.kind == "transient"
        assert event.recovered and not event.reassigned
        assert service > self.BASE

    def test_slow_region_stretch(self, geometry):
        profile = FaultProfile(
            name="weak-head", slow_region_count=1, slow_factor=2.5
        )
        model = FaultModel(profile, geometry, seed=4)
        region = model.slow_regions()[0]
        lba = region * profile.region_sectors
        service, event = model.on_media_access(lba, 8, self.BASE, 0.0)
        assert event.kind == "slow"
        assert service == pytest.approx(self.BASE * 2.5)

    def test_reset_rewinds_access_state(self, geometry):
        model = _single_latent_model(geometry)
        region = model.latent_regions()[0]
        lba = region * model.profile.region_sectors
        first = model.on_media_access(lba, 8, self.BASE, 0.0)
        model.reset()
        again = model.on_media_access(lba, 8, self.BASE, 0.0)
        assert first == again

    def test_repair_silences_region_from_its_time(self, geometry):
        model = _single_latent_model(geometry)
        region = model.latent_regions()[0]
        lba = region * model.profile.region_sectors
        model.schedule_repairs({region: 5.0})
        # Before the repair time the latent error still fires...
        _, early = model.on_media_access(lba, 8, self.BASE, 1.0)
        assert early is not None and early.kind == "latent"
        model.reset()
        # ...after it the region reads clean (repairs survive reset).
        _, late = model.on_media_access(lba, 8, self.BASE, 6.0)
        assert late is None
        assert model.unrepaired_latent_regions() == ()

    def test_repair_validation(self, geometry):
        model = _single_latent_model(geometry)
        region = model.latent_regions()[0]
        with pytest.raises(FaultInjectionError):
            model.schedule_repairs({region + 1: 0.0})
        with pytest.raises(FaultInjectionError):
            model.schedule_repairs({region: -1.0})


class TestSimulatorIntegration:
    @pytest.mark.parametrize("scheduler", ["fcfs", "sstf"])
    def test_inactive_profile_is_noop(self, tiny_spec, short_trace, scheduler):
        plain = DiskSimulator(tiny_spec, scheduler=scheduler, seed=5).run(short_trace)
        gated = DiskSimulator(
            tiny_spec, scheduler=scheduler, seed=5, faults=FaultProfile()
        ).run(short_trace)
        np.testing.assert_array_equal(plain.service_times, gated.service_times)
        np.testing.assert_allclose(
            plain.start_times, gated.start_times, rtol=0.0, atol=1e-9
        )
        assert gated.fault_events == ()
        assert gated.n_failed == 0

    def test_inactive_profile_nocache_fast_path(self, tiny_spec_nocache, short_trace):
        # faults=None takes the vectorized FCFS path; an inactive profile
        # forces the sequential fallback, which must agree.
        plain = DiskSimulator(tiny_spec_nocache, scheduler="fcfs", seed=5).run(
            short_trace
        )
        gated = DiskSimulator(
            tiny_spec_nocache, scheduler="fcfs", seed=5, faults=FaultProfile()
        ).run(short_trace)
        np.testing.assert_array_equal(plain.service_times, gated.service_times)
        np.testing.assert_allclose(
            plain.start_times, gated.start_times, rtol=0.0, atol=1e-9
        )

    @pytest.mark.parametrize("scheduler", ["fcfs", "sstf"])
    def test_same_seed_bit_identical(self, tiny_spec, short_trace, scheduler):
        sim = DiskSimulator(
            tiny_spec, scheduler=scheduler, seed=5, faults=severe_faults()
        )
        first = sim.run(short_trace)
        second = sim.run(short_trace)
        np.testing.assert_array_equal(first.service_times, second.service_times)
        np.testing.assert_array_equal(first.start_times, second.start_times)
        assert first.fault_events == second.fault_events

    def test_severe_profile_degrades_and_conserves(self, tiny_spec, short_trace):
        result = DiskSimulator(
            tiny_spec, scheduler="fcfs", seed=5, faults=severe_faults()
        ).run(short_trace)
        assert result.n_faulted > 0
        assert result.fault_penalty_seconds > 0.0
        assert result.completed_requests + result.n_failed == len(short_trace)
        summary = result.fault_summary()
        assert summary["n_requests"] == len(short_trace)
        assert summary["n_faulted"] == result.n_faulted
        assert sum(summary["events_by_kind"].values()) == len(result.fault_events)

    def test_guaranteed_hard_failures(self, tiny_spec_nocache, short_trace):
        # Without a cache every request is a media access, so a certain
        # transient error with hopeless retries fails all of them.
        doomed = FaultProfile(
            name="doomed", transient_error_prob=1.0, retry_success_prob=0.0
        )
        result = DiskSimulator(
            tiny_spec_nocache, scheduler="fcfs", seed=5, faults=doomed
        ).run(short_trace)
        assert result.n_failed == len(short_trace)
        assert result.completed_requests == 0
        assert bool(result.failed.all())

    def test_shared_model_resets_between_runs(self, tiny_spec, short_trace):
        model = FaultModel(severe_faults(), tiny_spec.geometry(), seed=5)
        sim = DiskSimulator(tiny_spec, scheduler="fcfs", seed=5, faults=model)
        first = sim.run(short_trace)
        second = sim.run(short_trace)
        np.testing.assert_array_equal(first.service_times, second.service_times)
        assert first.fault_events == second.fault_events


@st.composite
def raw_traces(draw):
    n = draw(st.integers(1, 40))
    times = sorted(draw(st.lists(
        st.floats(0.0, SPAN - 0.01, allow_nan=False), min_size=n, max_size=n)))
    sizes = draw(st.lists(st.integers(1, 64), min_size=n, max_size=n))
    lbas = [draw(st.integers(0, LBA_CEILING - s)) for s in sizes]
    writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return RequestTrace(times, lbas, sizes, writes, span=SPAN)


class TestFaultProperties:
    @settings(deadline=None, max_examples=25)
    @given(raw_traces())
    def test_faults_none_matches_inactive_profile(self, tiny_spec, trace):
        plain = DiskSimulator(tiny_spec, scheduler="fcfs", seed=9).run(trace)
        gated = DiskSimulator(
            tiny_spec, scheduler="fcfs", seed=9, faults=FaultProfile()
        ).run(trace)
        np.testing.assert_array_equal(plain.service_times, gated.service_times)
        np.testing.assert_allclose(
            plain.start_times, gated.start_times, rtol=0.0, atol=1e-9
        )
        assert gated.fault_events == ()

    @settings(deadline=None, max_examples=25)
    @given(raw_traces(), st.integers(0, 2**31 - 1))
    def test_request_conservation(self, tiny_spec, trace, seed):
        result = DiskSimulator(
            tiny_spec, scheduler="fcfs", seed=seed, faults=severe_faults()
        ).run(trace)
        assert result.completed_requests + result.n_failed == len(trace)
        assert result.n_failed <= result.n_faulted <= len(trace)
        assert all(0 <= e.index < len(trace) for e in result.fault_events)

    @settings(deadline=None, max_examples=15)
    @given(raw_traces(), st.integers(0, 2**31 - 1))
    def test_same_seed_runs_identical(self, tiny_spec, trace, seed):
        runs = [
            DiskSimulator(
                tiny_spec, scheduler="fcfs", seed=seed, faults=moderate_faults()
            ).run(trace)
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0].service_times, runs[1].service_times)
        assert runs[0].fault_events == runs[1].fault_events


class TestRunnerIntegration:
    def test_label_names_fault_profile(self, tiny_spec):
        job = ExperimentJob(
            profile=get_profile("web"), drive=tiny_spec, span=2.0,
            faults=moderate_faults(),
        )
        assert job.label.endswith("/faults=moderate")

    def test_worker_count_does_not_change_faults(self, tiny_spec):
        jobs = experiment_matrix(
            [get_profile("web"), get_profile("database")], tiny_spec,
            span=2.0, base_seed=13, faults=moderate_faults(),
        )
        inline = ExperimentRunner(workers=1).run(jobs)
        parallel = ExperimentRunner(workers=2).run(jobs)
        for a, b in zip(inline, parallel):
            assert a.label == b.label
            assert a.n_faulted == b.n_faulted
            assert a.n_failed == b.n_failed
            assert a.fault_penalty_seconds == b.fault_penalty_seconds
            assert a.mean_response == b.mean_response
            assert a.p99_response == b.p99_response

    def test_suite_report_aggregates_faults(self, tiny_spec):
        jobs = experiment_matrix(
            [get_profile("web")], tiny_spec, span=2.0, base_seed=13,
            faults=severe_faults(),
        )
        report = ExperimentRunner(workers=1).run_suite(jobs)
        assert report.n_faulted == sum(r.n_faulted for r in report.results)
        assert report.n_faulted > 0
        payload = report.as_dict()
        assert payload["fault_summary"]["n_faulted"] == report.n_faulted
        assert payload["fault_summary"]["n_failed_requests"] == report.n_failed_requests


class TestDegradedTail:
    def test_tail_ordering(self, web_result):
        tail = analyze_degraded_tail(web_result)
        assert tail.n_requests == len(web_result.trace)
        assert tail.n_faulted == 0 and tail.n_failed == 0
        assert tail.mean_response <= tail.p99_response
        assert tail.p99_response <= tail.p999_response <= tail.max_response

    def test_empty_trace_yields_empty_analysis(self, tiny_spec):
        # A zero-request run is analyzable: zero counters, NaN response
        # statistics — sweep cells never blow up on an empty trace.
        empty = DiskSimulator(tiny_spec, scheduler="fcfs", seed=0).run(
            RequestTrace.empty(span=1.0)
        )
        tail = analyze_degraded_tail(empty)
        assert tail.n_requests == 0
        assert tail.n_faulted == 0 and tail.n_failed == 0
        assert tail.completed_requests == 0
        assert tail.fault_penalty_seconds == 0.0
        for stat in (
            tail.mean_response, tail.p99_response,
            tail.p999_response, tail.max_response,
        ):
            assert np.isnan(stat)
        # Inflation against a real baseline degrades to NaN, not a crash.
        inflation = tail_inflation(tail, tail)
        assert all(np.isnan(v) for v in inflation.values())

    def test_inflation_ratios(self, tiny_spec, short_trace):
        healthy = analyze_degraded_tail(
            DiskSimulator(tiny_spec, scheduler="fcfs", seed=5).run(short_trace)
        )
        degraded = analyze_degraded_tail(
            DiskSimulator(
                tiny_spec, scheduler="fcfs", seed=5, faults=severe_faults()
            ).run(short_trace)
        )
        inflation = tail_inflation(healthy, degraded)
        assert set(inflation) == {"mean", "p99", "p999", "max"}
        assert inflation["p99"] > 1.0


class TestScrubWorkflow:
    def test_scrub_then_rerun_removes_latent_hits(self, tiny_spec, short_trace):
        model = FaultModel(severe_faults(), tiny_spec.geometry(), seed=5)
        sim = DiskSimulator(tiny_spec, scheduler="fcfs", seed=5, faults=model)
        degraded = sim.run(short_trace)
        # Scrub everything instantly in a fully idle window.
        plan = scrub_latent_regions(
            BusyIdleTimeline([], span=1.0), model,
            seconds_per_region=1e-6,
        )
        assert plan.completion_fraction == 1.0
        scrubbed = sim.run(short_trace)
        before = sum(1 for e in degraded.fault_events if e.kind == "latent")
        after = sum(1 for e in scrubbed.fault_events if e.kind == "latent")
        assert after == 0
        assert before > 0

    def test_plan_does_not_mutate_model(self, tiny_spec):
        model = FaultModel(severe_faults(), tiny_spec.geometry(), seed=5)
        plan = plan_media_scrub(
            BusyIdleTimeline([], span=10.0), model, seconds_per_region=0.01
        )
        assert plan.regions_scrubbed == plan.regions_total
        assert len(model.unrepaired_latent_regions()) == plan.regions_total


class TestFaultCli:
    def run(self, capsys, *argv):
        from repro.cli.main import main
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    def test_study_prints_fault_section(self, capsys):
        code, out = self.run(
            capsys, "study", "--profile", "web", "--span", "10",
            "--fault-profile", "severe",
        )
        assert code == 0
        assert "Fault injection" in out

    def test_run_suite_json_carries_fault_summary(self, tmp_path, capsys):
        payload_path = tmp_path / "suite.json"
        code, out = self.run(
            capsys, "run-suite", "--profiles", "web", "--span", "5",
            "--workers", "1", "--fault-profile", "light",
            "--json", str(payload_path),
        )
        assert code == 0
        assert "faults=light" in out
        import json
        payload = json.loads(payload_path.read_text())
        assert payload["fault_profile"] == "light"
        assert "fault_summary" in payload
