"""Event-driven trace replay through the drive model.

:class:`DiskSimulator` replays a :class:`~repro.traces.RequestTrace`
against a :class:`~repro.disk.drive.DiskDrive` as a single-server queue
with a pluggable scheduling discipline, producing per-request timings and
the busy/idle timeline. This is the substitute for the measurement
infrastructure the paper had on real drives: instead of observing busy
and idle on hardware, we observe it on the model.

The replay engine has three executions of the same queueing model,
picked per run so heavy traces replay as fast as the discipline allows:

* a **vectorized FCFS path** — with FCFS the serve order *is* the arrival
  order, so when the drive's cache is disabled the whole run collapses to
  one batched service-time computation plus the classic
  ``finish[i] = max(arrival[i], finish[i-1]) + service[i]`` recurrence,
  evaluated with ``np.maximum.accumulate`` over cumulative sums — no
  Python loop at all. It needs a bare drive (no faults, no tier);
* the **columnar loop** (:func:`repro.disk.columnar.replay_columnar`) —
  FCFS and SSTF at any queue depth over the structured-array request
  representation (:data:`~repro.traces.millisecond.REQUEST_DTYPE`, built
  once per replay), SSTF decisions served by the shared
  :func:`~repro.disk.scheduler.pick_from_sorted` bisect kernel. A bare
  drive is served with its decision logic inlined; a device that needs
  per-access hooks (a tier, a fault model, a trace-level observer) is
  called once per request (*hook mode*). Both modes are bit-identical
  to the reference loop;
* the **event loop** — the reference oracle, and the path for SCAN and
  any scheduler instance other than the built-in FCFS/SSTF: the queue is
  kept in arrival order and windowed runs slice the oldest
  ``queue_depth`` entries in O(queue_depth).

``fast_path=False`` forces every run through the reference event loop;
the equivalence of the fast paths is asserted against it in the test
suite.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.disk.columnar import replay_columnar
from repro.disk.drive import DiskDrive, DriveSpec
from repro.disk.faults import FaultEvent, FaultModel, FaultProfile
from repro.disk.scheduler import (
    FcfsScheduler,
    Scheduler,
    SstfScheduler,
    make_scheduler,
)
from repro.disk.timeline import BusyIdleTimeline
from repro.errors import SimulationError
from repro.obs import Observer
from repro.stats.moments import describe, SampleDescription
from repro.tier import TierConfig, TieredDevice
from repro.traces.millisecond import RequestTrace, build_request_columns


class SimulationResult:
    """Per-request timings and derived views of one simulation run.

    All arrays are aligned with the input trace's request order.
    ``fault_events`` is empty for a healthy run; with a fault model
    attached it holds one :class:`~repro.disk.faults.FaultEvent` per
    degraded media access, and requests whose recovery failed are marked
    in the ``failed`` mask instead of crashing the run.
    """

    def __init__(
        self,
        trace: RequestTrace,
        start_times: np.ndarray,
        service_times: np.ndarray,
        drive_name: str,
        scheduler_name: str,
        fault_events: Sequence[FaultEvent] = (),
        tier_hits: Optional[np.ndarray] = None,
        tier_summary: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.trace = trace
        self.start_times = start_times
        self.service_times = service_times
        self.drive_name = drive_name
        self.scheduler_name = scheduler_name
        self.finish_times = start_times + service_times
        span = float(max(trace.span, self.finish_times.max())) if len(trace) else trace.span
        self.timeline = BusyIdleTimeline(
            np.column_stack((self.start_times, self.finish_times)), span=span
        )
        self.fault_events: Tuple[FaultEvent, ...] = tuple(fault_events)
        failed = np.zeros(len(trace), dtype=bool)
        for event in self.fault_events:
            if not event.recovered:
                failed[event.index] = True
        failed.setflags(write=False)
        self.failed = failed
        # Tier views: None on untiered runs (so a tier-less result is
        # indistinguishable from one produced before the tier existed).
        if tier_hits is not None:
            tier_hits = np.asarray(tier_hits, dtype=bool)
            tier_hits.setflags(write=False)
        self.tier_hits = tier_hits
        self.tier_summary = tier_summary

    @property
    def tier_hit_rate(self) -> float:
        """Fraction of requests served at flash speed (nan if untiered)."""
        if self.tier_hits is None or not len(self.tier_hits):
            return float("nan")
        return float(self.tier_hits.mean())

    @property
    def n_failed(self) -> int:
        """Requests whose bounded retries all failed (hard failures)."""
        return int(self.failed.sum())

    @property
    def n_faulted(self) -> int:
        """Requests that hit at least one fault (including slow regions)."""
        return len({event.index for event in self.fault_events})

    @property
    def completed_requests(self) -> int:
        """Requests served successfully; with ``n_failed`` this conserves
        the submitted count: ``completed_requests + n_failed == len(trace)``."""
        return len(self.trace) - self.n_failed

    @property
    def fault_penalty_seconds(self) -> float:
        """Total service time added by faults across the run, seconds."""
        return float(sum(event.penalty for event in self.fault_events))

    def fault_summary(self) -> Dict[str, Any]:
        """Compact degraded-mode accounting for reports and JSON."""
        by_kind: Dict[str, int] = {}
        for event in self.fault_events:
            by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
        return {
            "n_requests": len(self.trace),
            "n_faulted": self.n_faulted,
            "n_failed": self.n_failed,
            "completed_requests": self.completed_requests,
            "n_reassigned": sum(1 for e in self.fault_events if e.reassigned),
            "fault_penalty_seconds": self.fault_penalty_seconds,
            "events_by_kind": by_kind,
        }

    @property
    def wait_times(self) -> np.ndarray:
        """Queueing delay per request: service start minus arrival."""
        return self.start_times - self.trace.times

    @property
    def response_times(self) -> np.ndarray:
        """End-to-end latency per request: completion minus arrival."""
        return self.finish_times - self.trace.times

    @property
    def utilization(self) -> float:
        """Busy fraction of the observation window."""
        return self.timeline.utilization

    def describe_response(self) -> SampleDescription:
        """Headline statistics of the response-time distribution."""
        return describe(self.response_times)

    def describe_service(self) -> SampleDescription:
        """Headline statistics of the service-time distribution."""
        return describe(self.service_times)

    def __repr__(self) -> str:
        return (
            f"SimulationResult(trace={self.trace.label!r}, n={len(self.trace)}, "
            f"drive={self.drive_name!r}, scheduler={self.scheduler_name!r}, "
            f"utilization={self.utilization:.4f})"
        )


class DiskSimulator:
    """Replay traces through a drive with a chosen queueing discipline.

    Parameters
    ----------
    drive:
        A :class:`DriveSpec` (a fresh :class:`DiskDrive` is built per run,
        keeping runs independent and reproducible) or a ready
        :class:`DiskDrive` (reset before each run).
    scheduler:
        Discipline name (``'fcfs'``, ``'sstf'``, ``'scan'``) or a
        scheduler instance. A fresh instance is made per run for named
        disciplines so stateful schedulers (SCAN) do not leak state.
    remap_lbas:
        When true, request LBAs are folded into the drive's capacity with
        a modulo, letting traces generated for a larger address space
        replay on a smaller model. Off by default: out-of-range requests
        raise instead.
    seed:
        Seed for the drive's rotational-latency RNG.
    queue_depth:
        How many queued requests the scheduler can see (NCQ/TCQ depth).
        Only the ``queue_depth`` oldest pending requests are eligible at
        each decision, so seek-aware disciplines degrade gracefully
        toward FCFS as the window shrinks. ``None`` (default) = the
        scheduler sees everything.
    fast_path:
        When true (default) runs use the specialized FCFS/SSTF executions
        where applicable; when false every run goes through the reference
        event loop. Results agree — the flag exists for validation and
        perf-regression measurement.
    faults:
        ``None`` (default) replays against a perfect drive —
        bit-identical to a simulator without the parameter. A
        :class:`~repro.disk.faults.FaultProfile` builds a fresh
        :class:`~repro.disk.faults.FaultModel` against the drive's
        geometry (seeded from ``profile.seed`` or, when that is ``None``,
        this simulator's ``seed``); a ready ``FaultModel`` is attached
        directly and reset before each run (its layout and scheduled
        repairs survive, its access RNG rewinds), so repeated runs are
        bit-identical.
    tier:
        ``None`` (default) replays against the bare drive —
        bit-identical to a simulator without the parameter (asserted by
        property tests and the golden harness). A
        :class:`~repro.tier.TierConfig` materializes a fresh
        :class:`~repro.tier.TieredDevice` around the drive each run, so
        reads that hit flash complete at SSD latency, misses pay the
        drive (plus any synchronous dirty destage), and the result grows
        ``tier_hits`` / ``tier_summary``. The vectorized FCFS path cannot
        consult residency, so a tier replays through the columnar loop in
        hook mode (or the event loop) — bit-identical either way.
    obs:
        ``None`` (default) records nothing and is bit-identical to a
        simulator without the parameter. An
        :class:`~repro.obs.Observer` at level ``"metrics"`` fills its
        registry post-hoc from the result arrays (a few vectorized
        passes; designed for ≤8% overhead on the fast paths); at level
        ``"trace"`` the drive, cache and fault model additionally emit
        typed events into ``obs.events``. Observability never changes
        RNG draws or results — every level is bit-identical to
        ``obs=None`` on every engine (asserted by property tests). Trace
        level does change *how* the columnar loop serves: per-seek and
        absorbed-write events need the per-request drive hooks, so it
        runs in hook mode. The vectorized FCFS path has no such hooks: it
        records serve/queue-depth events (reconstructed post-hoc) but no
        seek events; pass ``fast_path=False`` (or enable the cache / a
        fault model / another discipline) to get them.
    """

    def __init__(
        self,
        drive: Union[DriveSpec, DiskDrive],
        scheduler: Union[str, Scheduler] = "fcfs",
        remap_lbas: bool = False,
        seed: int = 0,
        queue_depth: Optional[int] = None,
        fast_path: bool = True,
        faults: Optional[Union[FaultProfile, FaultModel]] = None,
        tier: Optional[TierConfig] = None,
        obs: Optional[Observer] = None,
    ) -> None:
        if queue_depth is not None and queue_depth < 1:
            raise SimulationError(
                f"queue_depth must be >= 1, got {queue_depth!r}"
            )
        if tier is not None and not isinstance(tier, TierConfig):
            raise SimulationError(
                f"tier must be a TierConfig or None, got {type(tier).__name__}"
            )
        if isinstance(drive, DiskDrive):
            self._spec: Optional[DriveSpec] = None
            self._drive: Optional[DiskDrive] = drive
        else:
            self._spec = drive
            self._drive = None
        self._scheduler_arg = scheduler
        self.remap_lbas = bool(remap_lbas)
        self.seed = int(seed)
        self.queue_depth = queue_depth
        self.fast_path = bool(fast_path)
        self.faults = faults
        self.tier = tier
        if obs is not None and not isinstance(obs, Observer):
            raise SimulationError(
                f"obs must be an Observer or None, got {type(obs).__name__}"
            )
        self.obs = obs

    def _fresh_drive(self) -> DiskDrive:
        if self._drive is not None:
            self._drive.reset()
            return self._drive
        assert self._spec is not None
        return DiskDrive(self._spec, seed=self.seed)

    def _attach_faults(self, drive: DiskDrive) -> None:
        if self.faults is None:
            return
        if isinstance(self.faults, FaultModel):
            model = self.faults
        else:
            model = FaultModel(self.faults, drive.geometry, seed=self.seed)
        model.reset()
        drive.faults = model

    def _fresh_scheduler(self) -> Scheduler:
        if isinstance(self._scheduler_arg, str):
            return make_scheduler(self._scheduler_arg)
        return self._scheduler_arg

    def run(self, trace: RequestTrace) -> SimulationResult:
        """Simulate one trace; returns the per-request timings.

        The simulation is non-preemptive single-server: at each decision
        point every request that has already arrived is eligible and the
        scheduler picks among them.
        """
        drive = self._fresh_drive()
        self._attach_faults(drive)
        scheduler = self._fresh_scheduler()
        n = len(trace)
        capacity = drive.geometry.capacity_sectors
        # A fresh TieredDevice per run keeps runs independent; the
        # engines drive it through the same surface as the bare drive.
        device = TieredDevice(drive, self.tier) if self.tier is not None else drive

        obs = self.obs
        observing = obs is not None and obs.enabled
        tracing = obs is not None and obs.tracing
        # Seek events need the per-request hook, so they are trace-only;
        # cache and fault accounting is cheap enough for metrics level.
        drive.obs = obs if tracing else None
        drive.cache.obs = obs if observing else None
        if drive.faults is not None:
            drive.faults.obs = obs if observing else None
        if device is not drive:
            device.obs = obs if tracing else None

        arrivals = trace.times
        lbas = trace.lbas
        if self.remap_lbas:
            sizes = np.minimum(trace.nsectors, capacity)
            lbas = lbas % np.maximum(capacity - sizes, 1)
        else:
            sizes = trace.nsectors
            ends = lbas + sizes
            if n and int(ends.max()) > capacity:
                raise SimulationError(
                    f"trace {trace.label!r} addresses beyond drive capacity "
                    f"{capacity}; generate against this drive or pass remap_lbas=True"
                )

        if n == 0:
            start_times = np.zeros(0, dtype=np.float64)
            service_times = np.zeros(0, dtype=np.float64)
            fault_events: List[FaultEvent] = []
        elif not self.fast_path or type(scheduler) not in (FcfsScheduler, SstfScheduler):
            start_times, service_times, fault_events = _run_event_loop(
                device, scheduler, arrivals, lbas, sizes, trace.is_write,
                self.queue_depth,
            )
        elif (
            type(scheduler) is FcfsScheduler
            and not drive.spec.cache.read_ahead
            and not drive.spec.cache.write_back
            and drive.faults is None
            and device is drive
        ):
            # FCFS serves in arrival order regardless of queue depth, and
            # with the cache off service times do not depend on the
            # clock. The batched path cannot consult the per-access fault
            # hook or tier residency; either one takes the columnar loop.
            start_times, service_times = _run_fcfs_vectorized(
                drive, arrivals, lbas, sizes
            )
            fault_events = []
        else:
            # Remapping rewrites LBAs/sizes, so only unremapped runs can
            # share the trace's memoized build.
            if lbas is trace.lbas and sizes is trace.nsectors:
                columns = trace.columns()
            else:
                columns = build_request_columns(arrivals, lbas, sizes, trace.is_write)
            start_times, service_times, fault_events, cache_tally = replay_columnar(
                device, columns,
                sstf=type(scheduler) is SstfScheduler,
                queue_depth=self.queue_depth,
            )
            if observing:
                _record_cache_tally(obs, cache_tally)

        drive_name = drive.spec.name
        tier_hits: Optional[np.ndarray] = None
        tier_summary: Optional[Dict[str, Any]] = None
        if device is not drive:
            # The hit log is in service order. Start times are
            # non-decreasing in serve order; two serves share a start only
            # when the first took zero time (a zero-overhead drive-cache
            # hit, never a tier hit: SSD latency is > 0), so ordering by
            # (start, service) recovers the permutation back to trace
            # order wherever it decides a hit flag.
            tier_hits = np.zeros(n, dtype=bool)
            if n:
                tier_hits[_serve_order(start_times, service_times)] = device.hit_array()
            tier_summary = device.summary()
        result = SimulationResult(
            trace=trace,
            start_times=start_times,
            service_times=service_times,
            drive_name=drive_name,
            scheduler_name=getattr(scheduler, "name", type(scheduler).__name__),
            fault_events=fault_events,
            tier_hits=tier_hits,
            tier_summary=tier_summary,
        )
        if observing:
            _record_metrics(obs, result, lbas, sizes)
        if tracing:
            _emit_serve_events(obs, trace, lbas, sizes, start_times, service_times)
            _emit_queue_depth_events(obs, arrivals, start_times)
            obs.emit(
                "run_end", result.timeline.span, "sim",
                n_requests=n,
                utilization=result.utilization,
                drive=drive_name,
                scheduler=result.scheduler_name,
            )
        return result


# ----------------------------------------------------------------------
# Execution strategies
# ----------------------------------------------------------------------

def _run_fcfs_vectorized(
    drive: DiskDrive,
    arrivals: np.ndarray,
    lbas: np.ndarray,
    sizes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """FCFS with caching disabled: one batched drive call plus the
    start-time recurrence, no per-request Python at all.

    ``finish[i] = max(arrival[i], finish[i-1]) + service[i]`` unrolls to
    ``finish = cumsum(service) + running_max(arrival - exclusive_cumsum)``,
    which is two O(n) array passes.
    """
    service_times = drive.media_service_times(lbas, sizes)
    cumulative = np.cumsum(service_times)
    exclusive = np.concatenate(([0.0], cumulative[:-1]))
    slack = np.maximum.accumulate(arrivals - exclusive)
    # Clamp so float reassociation can never start a request before it
    # arrives (the event loop guarantees this exactly).
    start_times = np.maximum(exclusive + slack, arrivals)
    return start_times, service_times


# ----------------------------------------------------------------------
# Post-run observability (never on the hot path)
# ----------------------------------------------------------------------

def _serve_order(start_times: np.ndarray, service_times: np.ndarray) -> np.ndarray:
    """Trace indices in service order: by start time, a zero-time serve
    before the one that starts at the same clock after it, then by trace
    index (stable)."""
    return np.lexsort((service_times, start_times))


def _record_metrics(
    obs: Observer,
    result: SimulationResult,
    lbas: np.ndarray,
    sizes: np.ndarray,
) -> None:
    """Fill the observer's registry from the finished run's arrays.

    A handful of vectorized passes over data the run produced anyway —
    this is what keeps ``obs_level="metrics"`` within the ≤8% overhead
    budget on the fast engines.
    """
    trace = result.trace
    metrics = obs.metrics
    n = len(trace)
    n_writes = int(trace.is_write.sum()) if n else 0
    metrics.counter("sim.requests").inc(n)
    metrics.counter("sim.reads").inc(n - n_writes)
    metrics.counter("sim.writes").inc(n_writes)
    metrics.counter("sim.sectors").inc(int(sizes.sum()) if n else 0)
    metrics.gauge("sim.utilization").set(result.utilization)
    metrics.gauge("sim.span_seconds").set(result.timeline.span)
    if n:
        metrics.histogram("sim.service_time").observe_many(result.service_times)
        metrics.histogram("sim.response_time").observe_many(result.response_times)
        # Zero waits (idle-arrival requests, the common case at low
        # utilization) land in the histogram's underflow bucket.
        metrics.histogram("sim.wait_time").observe_many(result.wait_times)
    if result.tier_summary is not None:
        summary = result.tier_summary
        metrics.counter("tier.requests").inc(summary["requests"])
        metrics.counter("tier.read_hits").inc(summary["read_hits"])
        metrics.counter("tier.write_hits").inc(summary["write_hits"])
        metrics.counter("tier.bytes_to_hdd").inc(summary["bytes_to_hdd"])
        metrics.counter("tier.flushed_bytes").inc(summary["flushed_bytes"])
        metrics.counter("tier.evictions").inc(summary["evictions"])
        metrics.counter("tier.promoted_chunks").inc(summary["promoted_chunks"])
        metrics.counter("tier.demoted_chunks").inc(summary["demoted_chunks"])
        hit_rate = summary["hit_rate"]
        if np.isfinite(hit_rate):
            metrics.gauge("tier.hit_rate").set(hit_rate)
        offload = summary["hdd_offload"]
        if np.isfinite(offload):
            metrics.gauge("tier.hdd_offload").set(offload)


def _record_cache_tally(obs: Observer, tally: Tuple[int, int, int]) -> None:
    """Record the cache counters the columnar loop tallied locally.

    Counters are created only for non-zero counts, matching the lazy
    creation of the cache's own hooks (which never see a zero
    increment) — the observed registry is identical whichever engine
    ran. In hook mode the tally is all zero: the hooks counted.
    """
    read_hits, writes_absorbed, writes_fallthrough = tally
    metrics = obs.metrics
    if read_hits:
        metrics.counter("cache.read_hits").inc(read_hits)
    if writes_absorbed:
        metrics.counter("cache.writes_absorbed").inc(writes_absorbed)
    if writes_fallthrough:
        metrics.counter("cache.writes_fallthrough").inc(writes_fallthrough)


def _emit_serve_events(
    obs: Observer,
    trace: RequestTrace,
    lbas: np.ndarray,
    sizes: np.ndarray,
    start_times: np.ndarray,
    service_times: np.ndarray,
) -> None:
    """One ``serve`` event per request, in service order.

    The payload carries everything needed to rebuild the replayed trace
    (:func:`repro.obs.events.request_trace_from_events`): the original
    arrival, the (possibly remapped) LBA, size, direction and the trace
    index. Emission follows start-time order so the ``sim`` source stays
    time-ordered; the whole batch lands in the ring as one column block.
    """
    order = _serve_order(start_times, service_times)
    obs.emit_columns(
        "serve", "sim", start_times[order],
        index=order,
        arrival=trace.times[order],
        lba=lbas[order],
        nsectors=sizes[order],
        write=trace.is_write[order],
        service=service_times[order],
    )


def _emit_queue_depth_events(
    obs: Observer,
    arrivals: np.ndarray,
    start_times: np.ndarray,
) -> None:
    """Waiting-queue depth changes, reconstructed post-hoc.

    Depth goes +1 at each arrival and -1 when service starts (the
    in-service request no longer waits). Arrivals sort before starts at
    clock ties, matching the engines' admit-then-pick order.
    """
    n = arrivals.size
    if n == 0:
        return
    times = np.concatenate([arrivals, start_times])
    deltas = np.concatenate([
        np.ones(n, dtype=np.int64), -np.ones(n, dtype=np.int64)
    ])
    order = np.lexsort((-deltas, times))
    times = times[order]
    deltas = deltas[order]
    depths = np.cumsum(deltas)
    obs.metrics.gauge("sim.queue_depth_peak").set(int(depths.max()))
    obs.emit_columns("queue_depth", "queue", times, delta=deltas, depth=depths)


def _run_event_loop(
    drive: Union[DiskDrive, TieredDevice],
    scheduler: Scheduler,
    arrivals: np.ndarray,
    lbas: np.ndarray,
    sizes: np.ndarray,
    is_write: np.ndarray,
    queue_depth: Optional[int],
) -> Tuple[np.ndarray, np.ndarray, List[FaultEvent]]:
    """The reference event loop: admit arrivals, let the scheduler pick,
    serve, repeat. Handles any discipline and any queue depth."""
    n = arrivals.size
    start_times = np.empty(n, dtype=np.float64)
    service_times = np.empty(n, dtype=np.float64)
    arrival_list = arrivals.tolist()
    lba_list = lbas.tolist()
    size_list = sizes.tolist()
    write_list = is_write.tolist()
    record_faults = drive.faults is not None
    events: List[FaultEvent] = []

    # Queue entries are (cylinder, arrival_order); the queue is appended
    # to in arrival order and pops preserve relative order, so it stays
    # sorted by arrival order throughout — the oldest queue_depth entries
    # are simply the first queue_depth.
    queue: List[Tuple[int, int]] = []
    next_arrival = 0
    clock = 0.0
    completed = 0

    while completed < n:
        if not queue:
            # Idle: jump to the next arrival.
            arrival = arrival_list[next_arrival]
            if arrival > clock:
                clock = arrival
        while next_arrival < n and arrival_list[next_arrival] <= clock:
            queue.append((drive.cylinder_of(lba_list[next_arrival]), next_arrival))
            next_arrival += 1
        if not queue:
            raise SimulationError("scheduler loop reached an empty queue")
        if queue_depth is not None and len(queue) > queue_depth:
            # NCQ-style visibility: only the oldest queue_depth requests
            # (by arrival order) are dispatched to the drive.
            window = queue[:queue_depth]
            pick = scheduler.pick(window, drive.head_cylinder)
        else:
            pick = scheduler.pick(queue, drive.head_cylinder)
        _, idx = queue.pop(pick)
        service = drive.service_time(
            lba_list[idx], size_list[idx], write_list[idx], clock
        )
        if record_faults:
            event = drive.take_fault_event()
            if event is not None:
                events.append(replace(event, index=idx))
        start_times[idx] = clock
        service_times[idx] = service
        clock += service
        completed += 1
    if record_faults:
        events.sort(key=lambda e: e.index)
    return start_times, service_times, events
