"""End-to-end integration: the paper's findings emerge from the full
pipeline (synthesize -> simulate -> characterize) on the preset drive."""

import numpy as np
import pytest

from repro.core.busyness import analyze_busyness
from repro.core.idleness import analyze_idleness, idle_time_usability
from repro.core.timescales import lifetime_from_hourly, run_millisecond_study
from repro.core.hour_analysis import analyze_hour_scale
from repro.core.lifetime_analysis import analyze_family
from repro.disk.simulator import DiskSimulator
from repro.synth.hourly import HourlyWorkloadModel
from repro.synth.profiles import available_profiles, get_profile
from repro.traces.ingest import get_parser
from repro.traces.io import write_request_trace


SPAN = 60.0


@pytest.fixture(scope="module")
def studies(tiny_spec):
    profiles = ["web", "email", "database"]
    return {
        name: run_millisecond_study(get_profile(name), tiny_spec, span=SPAN, seed=17)
        for name in profiles
    }


def test_finding_moderate_utilization(studies):
    for name, study in studies.items():
        assert 0.005 < study.utilization.overall < 0.6, name


def test_finding_long_idle_stretches(studies):
    for name, study in studies.items():
        idleness = study.idleness
        assert idleness is not None, name
        assert idleness.idle_fraction > 0.4, name
        assert idleness.top_decile_time_share > 0.4, name


def test_finding_bursty_across_scales(studies):
    bursty = [s.burstiness for s in studies.values() if s.burstiness is not None]
    assert bursty, "at least one workload dense enough for the analysis"
    assert any(b.is_bursty_across_scales for b in bursty)
    assert all(b.interarrival_cv > 1.2 for b in bursty)


def test_finding_write_leaning_mix(studies):
    for name, study in studies.items():
        assert study.traffic.mean_write_fraction > 0.45, name


def test_backup_saturates_for_stretches(tiny_spec):
    study = run_millisecond_study(get_profile("backup"), tiny_spec, span=SPAN, seed=17)
    assert study.utilization.overall > 0.7
    saturated = study.simulation.timeline.utilization_series(1.0) >= 0.9
    longest = current = 0
    for flag in saturated:
        current = current + 1 if flag else 0
        longest = max(longest, current)
    assert longest >= 5  # one-second windows


def test_synthesized_traces_valid_against_drive(tiny_spec):
    for name, profile in available_profiles().items():
        trace = profile.synthesize(10.0, tiny_spec.capacity_sectors, seed=23)
        assert np.isfinite(trace.span), name
        assert np.isfinite(trace.times).all(), name
        assert (np.diff(trace.times) >= 0).all(), name
        if len(trace):
            assert trace.times[-1] <= trace.span, name
        assert (trace.lbas + trace.nsectors <= tiny_spec.capacity_sectors).all(), name


def test_trace_file_roundtrip_preserves_simulation(tmp_path, tiny_spec, web_trace):
    path = tmp_path / "w.csv"
    write_request_trace(web_trace, path)
    reloaded = get_parser("native").parse(path)
    a = DiskSimulator(tiny_spec, seed=1).run(web_trace)
    b = DiskSimulator(tiny_spec, seed=1).run(reloaded)
    np.testing.assert_allclose(a.service_times, b.service_times)
    assert a.utilization == pytest.approx(b.utilization)


def test_scheduler_changes_performance_not_workload(tiny_spec):
    # A queue-heavy burst: SSTF should not *increase* total busy time.
    trace = get_profile("database").with_rate(400.0).synthesize(
        10.0, tiny_spec.capacity_sectors, seed=5
    )
    fcfs = DiskSimulator(tiny_spec, scheduler="fcfs", seed=2).run(trace)
    sstf = DiskSimulator(tiny_spec, scheduler="sstf", seed=2).run(trace)
    assert sstf.timeline.total_busy <= fcfs.timeline.total_busy * 1.10
    assert len(sstf.trace) == len(fcfs.trace)


def test_hour_to_lifetime_consistency():
    model = HourlyWorkloadModel()
    hourly = model.generate(n_drives=30, weeks=2, seed=31)
    family = lifetime_from_hourly(hourly)
    hour_analysis = analyze_hour_scale(hourly, bandwidth=model.bandwidth)
    family_analysis = analyze_family(family, bandwidth=model.bandwidth)
    assert family_analysis.n_drives == hour_analysis.n_drives
    # Lifetime-average throughput per drive equals the hour-trace mean.
    np.testing.assert_allclose(
        np.sort(family.mean_throughputs()),
        np.sort(hourly.mean_throughputs()),
        rtol=1e-9,
    )


def test_idleness_supports_background_work(studies):
    # Background tasks needing 10 ms windows find most idle time usable;
    # even 100 ms windows are not starved, despite mean gaps far shorter.
    for name, study in studies.items():
        durations, fractions = idle_time_usability(
            study.simulation.timeline, durations=[0.01, 0.1]
        )
        assert fractions[0] > 0.5, name
        assert fractions[1] > 0.1, name


def test_busy_periods_complement_idle(studies):
    for study in studies.values():
        timeline = study.simulation.timeline
        busyness = analyze_busyness(timeline)
        idleness = analyze_idleness(timeline)
        total = busyness.busy_fraction + idleness.idle_fraction
        assert total == pytest.approx(1.0, abs=1e-9)
