"""Background-task execution in idle time."""

import numpy as np
import pytest

from repro.core.background import (
    BackgroundTask,
    chunk_size_sweep,
    plan_media_scrub,
    run_in_idle,
    scrub_latent_regions,
)
from repro.disk.faults import FaultModel, FaultProfile
from repro.disk.timeline import BusyIdleTimeline
from repro.errors import AnalysisError, FaultInjectionError


@pytest.fixture
def timeline():
    # Idle intervals: [0,5], [10,12], [20,60] within a 60 s window.
    return BusyIdleTimeline([(5.0, 10.0), (12.0, 20.0)], span=60.0)


class TestIdleIntervals:
    def test_positions(self, timeline):
        intervals = timeline.idle_intervals()
        assert intervals.tolist() == [[0.0, 5.0], [10.0, 12.0], [20.0, 60.0]]

    def test_lengths_match_idle_periods(self, timeline):
        intervals = timeline.idle_intervals()
        lengths = sorted((intervals[:, 1] - intervals[:, 0]).tolist())
        assert lengths == sorted(timeline.idle_periods().tolist())

    def test_all_idle(self):
        t = BusyIdleTimeline([], span=7.0)
        assert t.idle_intervals().tolist() == [[0.0, 7.0]]

    def test_fully_busy(self):
        t = BusyIdleTimeline([(0.0, 4.0)], span=4.0)
        assert t.idle_intervals().size == 0


class TestTaskValidation:
    def test_bad_params_rejected(self):
        with pytest.raises(AnalysisError):
            BackgroundTask("t", total_work=0.0, chunk_seconds=1.0)
        with pytest.raises(AnalysisError):
            BackgroundTask("t", total_work=1.0, chunk_seconds=0.0)
        with pytest.raises(AnalysisError):
            BackgroundTask("t", total_work=1.0, chunk_seconds=1.0, setup_seconds=-1.0)


class TestRunInIdle:
    def test_completes_small_job(self, timeline):
        task = BackgroundTask("scan", total_work=3.0, chunk_seconds=1.0)
        report = run_in_idle(timeline, task)
        assert report.completion_fraction == 1.0
        assert report.completed_work == pytest.approx(3.0)
        # Finishes inside the first 5 s idle interval.
        assert report.completion_time == pytest.approx(3.0)
        assert report.resumptions == 1

    def test_spans_multiple_intervals(self, timeline):
        task = BackgroundTask("scan", total_work=10.0, chunk_seconds=1.0)
        report = run_in_idle(timeline, task)
        assert report.completion_fraction == 1.0
        # 5 s in interval 1, 2 s in interval 2, 3 s into interval 3.
        assert report.resumptions == 3
        assert report.completion_time == pytest.approx(23.0)

    def test_incomplete_job(self, timeline):
        task = BackgroundTask("huge", total_work=100.0, chunk_seconds=1.0)
        report = run_in_idle(timeline, task)
        assert report.completion_time is None
        # All 47 idle seconds harvested with 1 s chunks and no setup.
        assert report.completed_work == pytest.approx(47.0)
        assert report.completion_fraction == pytest.approx(0.47)

    def test_setup_cost_charged_per_resumption(self, timeline):
        task = BackgroundTask("scan", total_work=40.0, chunk_seconds=1.0, setup_seconds=1.0)
        report = run_in_idle(timeline, task)
        # Intervals fit 4, 1 and 39 chunks after setup.
        assert report.completed_work == pytest.approx(40.0)
        assert report.resumptions == 3
        assert report.setup_overhead == pytest.approx(3.0)

    def test_chunks_too_large_for_short_intervals(self, timeline):
        task = BackgroundTask("big-chunks", total_work=50.0, chunk_seconds=10.0)
        report = run_in_idle(timeline, task)
        # Only the 40 s interval fits 10 s chunks.
        assert report.resumptions == 1
        assert report.completed_work == pytest.approx(40.0)

    def test_chunk_never_overruns_interval(self, timeline):
        task = BackgroundTask("t", total_work=100.0, chunk_seconds=3.0)
        report = run_in_idle(timeline, task)
        # 5 s fits one 3 s chunk, 2 s fits none, 40 s fits 13.
        assert report.completed_work == pytest.approx((1 + 0 + 13) * 3.0)

    def test_saturated_timeline_no_progress(self):
        t = BusyIdleTimeline([(0.0, 10.0)], span=10.0)
        report = run_in_idle(t, BackgroundTask("t", 5.0, 1.0))
        assert report.completed_work == 0.0
        assert report.completion_time is None

    def test_idle_used_fraction(self, timeline):
        task = BackgroundTask("t", total_work=10.0, chunk_seconds=1.0)
        report = run_in_idle(timeline, task)
        assert report.idle_time_used_fraction == pytest.approx(10.0 / 47.0)


class TestChunkSweep:
    def test_granularity_tradeoff(self, timeline):
        reports = chunk_size_sweep(
            timeline, total_work=100.0, chunk_sizes=[0.5, 5.0, 30.0],
            setup_seconds=0.5,
        )
        assert set(reports) == {0.5, 5.0, 30.0}
        # Small chunks harvest the most idle time...
        assert reports[0.5].completed_work >= reports[5.0].completed_work
        # ...huge chunks only fit the single long interval.
        assert reports[30.0].resumptions == 1

    def test_real_workload_scan(self, web_result):
        # A 5-second scan job on the web trace's idle structure.
        report = run_in_idle(
            web_result.timeline,
            BackgroundTask("scan", total_work=5.0, chunk_seconds=0.05,
                           setup_seconds=0.005),
        )
        assert report.completion_fraction == 1.0
        assert report.completion_time is not None


class _DuckTimeline:
    """A duck-typed timeline handing back raw interval pairs verbatim."""

    def __init__(self, intervals):
        self._intervals = intervals

    def idle_intervals(self):
        return self._intervals


class TestDuckTypedTimelines:
    def test_unsorted_intervals_are_reordered(self):
        # Regression: an unsorted interval list used to mis-order
        # resumptions and report a completion time from the wrong interval.
        duck = _DuckTimeline([(20.0, 30.0), (0.0, 4.0)])
        report = run_in_idle(duck, BackgroundTask("t", total_work=6.0, chunk_seconds=1.0))
        assert report.completion_fraction == 1.0
        assert report.resumptions == 2
        # 4 s in [0, 4], the remaining 2 s finish at 22.0 — not 26.0.
        assert report.completion_time == pytest.approx(22.0)

    def test_zero_length_intervals_ignored(self):
        duck = _DuckTimeline([(5.0, 5.0), (1.0, 1.0)])
        report = run_in_idle(duck, BackgroundTask("t", total_work=1.0, chunk_seconds=0.5))
        assert report.completed_work == 0.0
        assert report.resumptions == 0

    def test_mixed_degenerate_and_real_intervals(self):
        duck = _DuckTimeline([(9.0, 9.0), (2.0, 6.0)])
        report = run_in_idle(duck, BackgroundTask("t", total_work=3.0, chunk_seconds=1.0))
        assert report.completed_work == pytest.approx(3.0)
        assert report.completion_time == pytest.approx(5.0)


class TestChunksAvailable:
    def test_bounds_run_in_idle(self, timeline):
        # The capacity bound is exactly what a huge task can harvest.
        report = run_in_idle(
            timeline, BackgroundTask("t", total_work=1e6, chunk_seconds=3.0,
                                     setup_seconds=0.5)
        )
        usable = np.maximum(timeline.idle_periods() - 0.5, 0.0)
        bound = np.floor(usable / 3.0).sum()
        assert report.completed_work == pytest.approx(bound * 3.0)


@pytest.fixture
def latent_model(tiny_spec):
    profile = FaultProfile(name="latent-only", latent_region_count=6)
    return FaultModel(profile, tiny_spec.geometry(), seed=1)


class TestScrubPlanning:
    def test_nothing_to_scrub(self, timeline, tiny_spec):
        clean = FaultModel(FaultProfile(), tiny_spec.geometry(), seed=0)
        plan = plan_media_scrub(timeline, clean, seconds_per_region=1.0)
        assert plan.task is None
        assert plan.regions_total == 0
        assert plan.completion_fraction == 1.0
        assert plan.repair_times == {}

    def test_full_pass_records_ordered_repair_times(self, timeline, latent_model):
        plan = plan_media_scrub(
            timeline, latent_model, seconds_per_region=1.0, setup_seconds=0.5
        )
        assert plan.regions_scrubbed == plan.regions_total == 6
        assert set(plan.repair_times) == set(latent_model.latent_regions())
        # Regions are verified in LBA order at strictly increasing times.
        ordered = [plan.repair_times[r] for r in sorted(plan.repair_times)]
        assert ordered == sorted(ordered)
        assert plan.completion_time == max(plan.repair_times.values())
        assert plan.scrub_seconds == pytest.approx(6.0)

    def test_partial_pass_when_idle_time_runs_out(self, latent_model):
        cramped = BusyIdleTimeline([(3.0, 10.0)], span=10.0)  # 3 s idle
        plan = plan_media_scrub(cramped, latent_model, seconds_per_region=1.0)
        assert plan.regions_scrubbed == 3
        assert plan.completion_time is None
        assert plan.completion_fraction == pytest.approx(0.5)

    def test_plan_leaves_model_untouched(self, timeline, latent_model):
        plan_media_scrub(timeline, latent_model, seconds_per_region=1.0)
        assert len(latent_model.unrepaired_latent_regions()) == 6

    def test_scrub_latent_regions_applies_plan(self, timeline, latent_model):
        plan = scrub_latent_regions(timeline, latent_model, seconds_per_region=1.0)
        assert plan.regions_scrubbed == 6
        assert latent_model.unrepaired_latent_regions() == ()
        # A second pass finds nothing outstanding.
        again = plan_media_scrub(timeline, latent_model, seconds_per_region=1.0)
        assert again.regions_total == 0

    def test_partial_scrub_can_resume(self, latent_model):
        cramped = BusyIdleTimeline([(3.0, 10.0)], span=10.0)
        first = scrub_latent_regions(cramped, latent_model, seconds_per_region=1.0)
        assert first.regions_scrubbed == 3
        second = scrub_latent_regions(cramped, latent_model, seconds_per_region=1.0)
        assert second.regions_total == 3
        assert latent_model.unrepaired_latent_regions() == ()

    def test_validation(self, timeline, latent_model):
        with pytest.raises(AnalysisError):
            plan_media_scrub(timeline, latent_model, seconds_per_region=0.0)
        with pytest.raises(AnalysisError):
            plan_media_scrub(
                timeline, latent_model, seconds_per_region=1.0, setup_seconds=-1.0
            )

    def test_bad_repair_times_rejected_by_model(self, latent_model):
        with pytest.raises(FaultInjectionError):
            latent_model.schedule_repairs({-1: 0.0})
