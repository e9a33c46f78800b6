"""The fast replay paths against the reference event loop.

Every specialized execution in :mod:`repro.disk.simulator` must produce
the same scheduling results as the reference event loop
(``fast_path=False``): bit-identical for the columnar loop in both its
bare and hook modes (same decisions and RNG draws in the same order),
and within 1e-9 for the vectorized FCFS path (the start-time recurrence
reassociates float additions).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.simulator import DiskSimulator
from repro.disk.timeline import BusyIdleTimeline
from repro.synth.profiles import get_profile
from repro.synth.workload import ArrivalSpec, WorkloadProfile
from repro.traces.millisecond import RequestTrace


@pytest.fixture(scope="module")
def heavy_trace(tiny_spec):
    # Heavy enough that queues build far past any NCQ window.
    return get_profile("database").with_rate(400.0).synthesize(
        8.0, tiny_spec.capacity_sectors, seed=99
    )


@pytest.fixture(scope="module")
def prop_trace(tiny_spec):
    # Small but bursty: enough contention to fill an NCQ window without
    # making 20 hypothesis examples x 2 replays expensive.
    return get_profile("database").with_rate(250.0).synthesize(
        2.0, tiny_spec.capacity_sectors, seed=41
    )


def both_paths(spec, trace, scheduler, queue_depth=None, seed=1):
    fast = DiskSimulator(
        spec, scheduler=scheduler, seed=seed, queue_depth=queue_depth
    ).run(trace)
    reference = DiskSimulator(
        spec, scheduler=scheduler, seed=seed, queue_depth=queue_depth,
        fast_path=False,
    ).run(trace)
    return fast, reference


class TestFastPathEquivalence:
    def test_fcfs_sequential_bit_identical(self, tiny_spec, heavy_trace):
        fast, reference = both_paths(tiny_spec, heavy_trace, "fcfs")
        np.testing.assert_array_equal(fast.start_times, reference.start_times)
        np.testing.assert_array_equal(fast.service_times, reference.service_times)

    def test_fcfs_vectorized_matches_event_loop(self, tiny_spec_nocache, heavy_trace):
        fast, reference = both_paths(tiny_spec_nocache, heavy_trace, "fcfs")
        # Service times are one batched computation with the exact scalar
        # arithmetic: bit-identical. Start times reassociate: 1e-9.
        np.testing.assert_array_equal(fast.service_times, reference.service_times)
        np.testing.assert_allclose(
            fast.start_times, reference.start_times, rtol=0, atol=1e-9
        )
        assert np.all(fast.start_times >= heavy_trace.times)

    def test_sstf_sorted_bit_identical(self, tiny_spec, heavy_trace):
        fast, reference = both_paths(tiny_spec, heavy_trace, "sstf")
        np.testing.assert_array_equal(fast.start_times, reference.start_times)
        np.testing.assert_array_equal(fast.service_times, reference.service_times)

    def test_sstf_sorted_bit_identical_nocache(self, tiny_spec_nocache, heavy_trace):
        fast, reference = both_paths(tiny_spec_nocache, heavy_trace, "sstf")
        np.testing.assert_array_equal(fast.start_times, reference.start_times)
        np.testing.assert_array_equal(fast.service_times, reference.service_times)

    @pytest.mark.parametrize("scheduler", ["fcfs", "sstf", "scan"])
    @pytest.mark.parametrize("depth", [1, 4, 32])
    def test_windowed_scheduling_unchanged(
        self, tiny_spec, heavy_trace, scheduler, depth
    ):
        # Regression for the per-decision sort of an already-sorted NCQ
        # queue: the O(queue_depth) slice must schedule identically.
        fast, reference = both_paths(
            tiny_spec, heavy_trace, scheduler, queue_depth=depth
        )
        np.testing.assert_array_equal(fast.start_times, reference.start_times)
        np.testing.assert_array_equal(fast.service_times, reference.service_times)


class CountingScheduler:
    """Wraps a scheduler, recording the queue size of every decision."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.seen_sizes = []

    def pick(self, queue, head_cylinder):
        self.seen_sizes.append(len(queue))
        return self.inner.pick(queue, head_cylinder)


def test_windowed_decisions_are_queue_depth_bounded(tiny_spec, heavy_trace):
    # The scheduler must never be shown more than queue_depth entries,
    # i.e. per-decision work is O(queue_depth), not O(pending).
    from repro.disk.scheduler import SstfScheduler

    depth = 4
    counting = CountingScheduler(SstfScheduler())
    DiskSimulator(tiny_spec, scheduler=counting, seed=1, queue_depth=depth).run(
        heavy_trace
    )
    assert len(counting.seen_sizes) == len(heavy_trace)
    assert max(counting.seen_sizes) <= depth
    # The trace is bursty enough that the window actually fills.
    assert max(counting.seen_sizes) == depth


class TestVectorizedFcfsProperty:
    """Property: the vectorized FCFS path equals the event loop across
    random workload shapes, rates, spans and seeds."""

    @given(
        model=st.sampled_from(["poisson", "bmodel", "onoff"]),
        rate=st.floats(min_value=5.0, max_value=800.0),
        span=st.floats(min_value=0.5, max_value=6.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        sim_seed=st.integers(min_value=0, max_value=2**31 - 1),
        queue_depth=st.sampled_from([None, 1, 7]),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_event_loop(
        self, tiny_spec_nocache, model, rate, span, seed, sim_seed, queue_depth
    ):
        profile = WorkloadProfile(
            name="prop", rate=rate, arrival=ArrivalSpec(model), spatial="zipf"
        )
        trace = profile.synthesize(
            span=span, capacity_sectors=tiny_spec_nocache.capacity_sectors,
            seed=seed,
        )
        fast = DiskSimulator(
            tiny_spec_nocache, scheduler="fcfs", seed=sim_seed,
            queue_depth=queue_depth,
        ).run(trace)
        reference = DiskSimulator(
            tiny_spec_nocache, scheduler="fcfs", seed=sim_seed,
            queue_depth=queue_depth, fast_path=False,
        ).run(trace)
        np.testing.assert_allclose(
            fast.start_times, reference.start_times, rtol=0, atol=1e-9
        )
        np.testing.assert_allclose(
            fast.finish_times, reference.finish_times, rtol=0, atol=1e-9
        )
        # Scheduling invariants hold on the fast path directly.
        assert np.all(fast.start_times >= trace.times)
        if len(trace) > 1:
            order = np.argsort(fast.start_times, kind="stable")
            assert np.all(
                fast.start_times[order][1:]
                >= fast.finish_times[order][:-1] - 1e-9
            )


class TestEngineMatrixProperty:
    """Property: whatever engine the simulator selects for a
    configuration — the columnar loop (bare or hook mode), the vectorized
    FCFS path, or the event loop itself — the replay matches the
    reference event loop across scheduler x queue depth x cache x faults
    x tier x observability x seed."""

    @given(
        scheduler=st.sampled_from(["fcfs", "sstf", "scan"]),
        queue_depth=st.sampled_from([None, 4]),
        cached=st.booleans(),
        faulty=st.booleans(),
        tier=st.sampled_from([None, "wt", "wb"]),
        traced=st.booleans(),
        sim_seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_selected_engine_matches_reference(
        self, tiny_spec, tiny_spec_nocache, prop_trace,
        scheduler, queue_depth, cached, faulty, tier, traced, sim_seed,
    ):
        from repro.disk.faults import moderate_faults
        from repro.obs import Observer
        from repro.tier import TierConfig

        spec = tiny_spec if cached else tiny_spec_nocache
        faults = moderate_faults() if faulty else None
        tier_config = (
            None if tier is None else TierConfig(
                mode=tier, capacity_bytes=1 << 22, chunk_sectors=256,
                flush_interval=0.5, migrate_interval=1.0,
            )
        )

        def replay(fast_path):
            obs = Observer("trace") if traced else None
            result = DiskSimulator(
                spec, scheduler=scheduler, seed=sim_seed,
                queue_depth=queue_depth, faults=faults, tier=tier_config,
                obs=obs, fast_path=fast_path,
            ).run(prop_trace)
            return result, obs

        (fast, fast_obs), (reference, reference_obs) = replay(True), replay(False)
        vectorized = (
            scheduler == "fcfs" and not cached and not faulty and tier is None
        )
        if vectorized:
            # The vectorized engine reassociates the start-time
            # recurrence; everything else is decision-for-decision exact.
            np.testing.assert_allclose(
                fast.start_times, reference.start_times, rtol=0, atol=1e-9
            )
            np.testing.assert_allclose(
                fast.service_times, reference.service_times, rtol=0, atol=1e-9
            )
        else:
            np.testing.assert_array_equal(fast.start_times, reference.start_times)
            np.testing.assert_array_equal(
                fast.service_times, reference.service_times
            )
            if traced:
                # Hook mode fires the same per-access events (seeks,
                # absorbed writes, retries, tier epochs) in the same order.
                assert [e.as_dict() for e in fast_obs.events] == [
                    e.as_dict() for e in reference_obs.events
                ]
        np.testing.assert_array_equal(fast.failed, reference.failed)
        assert fast.fault_events == reference.fault_events
        if tier is None:
            assert fast.tier_hits is None and reference.tier_hits is None
        else:
            np.testing.assert_array_equal(fast.tier_hits, reference.tier_hits)
            assert fast.tier_summary == reference.tier_summary


class TestZeroRequestPipeline:
    """synthesize -> run -> timeline must tolerate n = 0 end to end."""

    def bmodel_profile(self):
        # A rate low enough that a Poisson draw of the request count can
        # (and for seed 0 does) come out as zero.
        return WorkloadProfile(
            name="quiet", rate=0.001, arrival=ArrivalSpec("bmodel")
        )

    def test_bmodel_can_draw_zero_requests(self, tiny_spec):
        profile = self.bmodel_profile()
        trace = profile.synthesize(
            span=5.0, capacity_sectors=tiny_spec.capacity_sectors, seed=0
        )
        assert len(trace) == 0
        assert trace.span == 5.0

    @pytest.mark.parametrize("scheduler", ["fcfs", "sstf", "scan"])
    @pytest.mark.parametrize("fast_path", [True, False])
    def test_empty_trace_simulates_cleanly(self, tiny_spec, scheduler, fast_path):
        profile = self.bmodel_profile()
        trace = profile.synthesize(
            span=5.0, capacity_sectors=tiny_spec.capacity_sectors, seed=0
        )
        result = DiskSimulator(
            tiny_spec, scheduler=scheduler, fast_path=fast_path
        ).run(trace)
        assert result.utilization == 0.0
        assert result.timeline.span == 5.0
        assert result.timeline.n_busy_periods == 0
        assert result.timeline.idle_periods().sum() == pytest.approx(5.0)

    def test_empty_trace_timeline_direct(self):
        timeline = BusyIdleTimeline([], span=4.0)
        assert timeline.utilization == 0.0
        assert timeline.total_busy == 0.0

    @pytest.mark.parametrize(
        "model", ["poisson", "bmodel", "onoff", "mmpp", "superposed", "fgn"]
    )
    def test_every_arrival_model_synthesizes_at_low_rate(self, tiny_spec, model):
        profile = WorkloadProfile(
            name="quiet", rate=0.001, arrival=ArrivalSpec(model)
        )
        trace = profile.synthesize(
            span=2.0, capacity_sectors=tiny_spec.capacity_sectors, seed=0
        )
        result = DiskSimulator(tiny_spec).run(trace)
        assert len(result.trace) == len(trace)

    def test_empty_trace_remap_path(self, tiny_spec):
        result = DiskSimulator(tiny_spec, remap_lbas=True).run(
            RequestTrace.empty(span=1.0)
        )
        assert result.utilization == 0.0
