"""Background-task execution in idle time.

The payoff of the idleness characterization: scheduling background work
(media scans, scrubbing, rebuilds) into the idle intervals without
touching foreground requests. :func:`run_in_idle` simulates the standard
non-clairvoyant policy — start a fixed-size chunk whenever the drive has
been idle long enough to pay the setup cost, abandon nothing midway
because chunks are sized to fit — and reports progress, overhead and
completion time against a timeline's idle structure.

The chunk granularity is the knob: small chunks harvest short intervals
but pay setup more often; large chunks only fit the long-interval tail —
which is exactly why the *shape* of the idle-time distribution (not just
its total) matters, the point the paper's idleness analysis makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.disk.timeline import BusyIdleTimeline
from repro.errors import AnalysisError


def _sanitized_idle_intervals(timeline: BusyIdleTimeline) -> List[Tuple[float, float]]:
    """The timeline's idle intervals in time order with degenerate
    (zero- or negative-length) entries dropped.

    :class:`BusyIdleTimeline` already produces sorted positive-length
    intervals, but ``run_in_idle`` accepts any duck-typed timeline (test
    doubles, pre-computed interval lists); without sanitizing, an
    unsorted input mis-orders resumptions and mis-states the completion
    time, and a zero-length interval can divide work by zero downstream.
    """
    pairs = [(float(s), float(e)) for s, e in timeline.idle_intervals()]
    pairs.sort()
    return [(s, e) for s, e in pairs if e > s]


@dataclass(frozen=True)
class BackgroundTask:
    """A divisible background job.

    Attributes
    ----------
    name:
        Label for reports.
    total_work:
        Disk-seconds of work the whole job needs.
    chunk_seconds:
        Atomic unit of execution; a chunk only starts if it fits in the
        remaining idle interval.
    setup_seconds:
        One-time cost on each *resumption* (first chunk in an interval):
        repositioning, state restore.
    """

    name: str
    total_work: float
    chunk_seconds: float
    setup_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.total_work <= 0:
            raise AnalysisError(f"total_work must be > 0, got {self.total_work!r}")
        if self.chunk_seconds <= 0:
            raise AnalysisError(
                f"chunk_seconds must be > 0, got {self.chunk_seconds!r}"
            )
        if self.setup_seconds < 0:
            raise AnalysisError(
                f"setup_seconds must be >= 0, got {self.setup_seconds!r}"
            )


@dataclass(frozen=True)
class BackgroundRunReport:
    """Outcome of running one task over one timeline's idle intervals.

    Attributes
    ----------
    task:
        The task that ran.
    completed_work:
        Disk-seconds of useful work done (excludes setup).
    completion_fraction:
        ``completed_work / total_work``.
    completion_time:
        When the job finished on the timeline clock, or ``None`` if the
        window ended first.
    resumptions:
        Number of idle intervals in which at least one chunk ran.
    setup_overhead:
        Total seconds spent on setup costs.
    idle_time_used_fraction:
        (work + setup) / total idle time — how much of the idle
        capacity the job consumed.
    """

    task: BackgroundTask
    completed_work: float
    completion_fraction: float
    completion_time: Optional[float]
    resumptions: int
    setup_overhead: float
    idle_time_used_fraction: float


def run_in_idle(
    timeline: BusyIdleTimeline,
    task: BackgroundTask,
    budget_seconds: Optional[float] = None,
) -> BackgroundRunReport:
    """Simulate ``task`` running only inside the timeline's idle intervals.

    In each idle interval the task pays ``setup_seconds`` once, then runs
    back-to-back chunks while a whole chunk still fits and work remains.
    Foreground traffic is untouched by construction — work never extends
    past an interval's end.

    ``budget_seconds`` optionally caps the *total* background time (work
    plus setup) the task may consume — the per-drive grant a fleet-level
    allocator hands out (:mod:`repro.fleet.scrub`). ``None`` means
    unbounded and is byte-identical to the historical behavior.
    """
    if budget_seconds is not None and budget_seconds <= 0:
        raise AnalysisError(f"budget_seconds must be > 0, got {budget_seconds!r}")
    remaining = task.total_work
    completed = 0.0
    setup_spent = 0.0
    resumptions = 0
    completion_time: Optional[float] = None

    intervals = _sanitized_idle_intervals(timeline)
    for start, end in intervals:
        if remaining <= 0:
            break
        available = (end - start) - task.setup_seconds
        if available < task.chunk_seconds:
            continue  # interval too short to start even one chunk
        n_fit = int(available // task.chunk_seconds)
        n_needed = int(-(-remaining // task.chunk_seconds))  # ceil
        n_run = min(n_fit, n_needed)
        if budget_seconds is not None:
            budget_left = budget_seconds - completed - setup_spent
            if budget_left < task.setup_seconds + task.chunk_seconds:
                break  # cannot afford even one more chunk anywhere
            n_afford = int((budget_left - task.setup_seconds) // task.chunk_seconds)
            n_run = min(n_run, n_afford)
        if n_run <= 0:
            continue
        resumptions += 1
        # Multiply rather than accumulate: summing setup_seconds drifts
        # off resumptions * setup_seconds in the last bits.
        setup_spent = resumptions * task.setup_seconds
        work_here = min(n_run * task.chunk_seconds, remaining)
        completed += work_here
        remaining -= work_here
        if remaining <= 1e-12:
            remaining = 0.0
            completion_time = start + task.setup_seconds + work_here

    total_idle = float(sum(end - start for start, end in intervals))
    completed = min(completed, task.total_work)  # guard float accumulation
    used = completed + setup_spent
    return BackgroundRunReport(
        task=task,
        completed_work=completed,
        completion_fraction=min(1.0, completed / task.total_work),
        completion_time=completion_time,
        resumptions=resumptions,
        setup_overhead=setup_spent,
        idle_time_used_fraction=used / total_idle if total_idle > 0 else float("nan"),
    )


def chunk_size_sweep(
    timeline: BusyIdleTimeline,
    total_work: float,
    chunk_sizes,
    setup_seconds: float = 0.0,
    name: str = "sweep",
) -> dict:
    """Run the same job at several chunk granularities.

    Returns ``{chunk_seconds: BackgroundRunReport}`` — the input for the
    classic throughput-vs-granularity trade-off curve.
    """
    reports = {}
    for chunk in chunk_sizes:
        task = BackgroundTask(
            name=name, total_work=total_work,
            chunk_seconds=float(chunk), setup_seconds=setup_seconds,
        )
        reports[float(chunk)] = run_in_idle(timeline, task)
    return reports


# ----------------------------------------------------------------------
# Media scrub: background repair of latent sector errors
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScrubPlan:
    """A media-scrub schedule laid into a timeline's idle intervals.

    One scrub pass visits each unrepaired latent region of a
    :class:`~repro.disk.faults.FaultModel` and records *when* each region
    is verified, so the repair times can be fed back into the fault model
    (:meth:`~repro.disk.faults.FaultModel.schedule_repairs`) and a re-run
    of the same workload sees the scrubbed regions as healthy from those
    points on — the scrub-vs-tail-latency trade-off made measurable.

    Attributes
    ----------
    task:
        The equivalent :class:`BackgroundTask` (one chunk per region), or
        ``None`` when there was nothing to scrub.
    repair_times:
        ``{region_index: completion_time_seconds}`` for every region the
        plan reaches within the window.
    regions_total / regions_scrubbed:
        Latent regions outstanding vs. actually reached by the plan.
    scrub_seconds:
        Useful scrub work performed (excludes setup).
    setup_overhead:
        Total seconds spent on per-resumption setup.
    resumptions:
        Idle intervals in which at least one region was scrubbed.
    completion_time:
        Timeline clock at which the last outstanding region was repaired,
        or ``None`` if the window ended with regions still unscrubbed.
    """

    task: Optional[BackgroundTask]
    repair_times: Dict[int, float] = field(default_factory=dict)
    regions_total: int = 0
    regions_scrubbed: int = 0
    scrub_seconds: float = 0.0
    setup_overhead: float = 0.0
    resumptions: int = 0
    completion_time: Optional[float] = None

    @property
    def completion_fraction(self) -> float:
        """Scrubbed fraction of the outstanding regions (1.0 when none
        were outstanding)."""
        if self.regions_total == 0:
            return 1.0
        return self.regions_scrubbed / self.regions_total


def plan_media_scrub(
    timeline: BusyIdleTimeline,
    faults,
    seconds_per_region: float,
    setup_seconds: float = 0.0,
    name: str = "media-scrub",
    obs=None,
) -> ScrubPlan:
    """Lay a scrub of ``faults``' unrepaired latent regions into the
    timeline's idle intervals.

    Uses the same non-clairvoyant policy as :func:`run_in_idle` — pay
    ``setup_seconds`` once per idle interval, then verify whole regions
    back-to-back while the next one still fits — but additionally records
    the completion time of every region, which is what
    :meth:`~repro.disk.faults.FaultModel.schedule_repairs` needs. The
    plan does not mutate ``faults``; see :func:`scrub_latent_regions`
    for the one-call version that does.

    ``obs`` (an :class:`~repro.obs.Observer`, optional) records one
    ``scrub_chunk`` event per verified region at its repair clock, plus
    plan-level counters; the plan itself is unaffected.
    """
    if seconds_per_region <= 0:
        raise AnalysisError(
            f"seconds_per_region must be > 0, got {seconds_per_region!r}"
        )
    if setup_seconds < 0:
        raise AnalysisError(f"setup_seconds must be >= 0, got {setup_seconds!r}")

    pending = sorted(faults.unrepaired_latent_regions())
    if not pending:
        return ScrubPlan(task=None, completion_time=None)

    task = BackgroundTask(
        name=name,
        total_work=len(pending) * seconds_per_region,
        chunk_seconds=seconds_per_region,
        setup_seconds=setup_seconds,
    )

    repair_times: Dict[int, float] = {}
    setup_spent = 0.0
    resumptions = 0
    completion_time: Optional[float] = None
    cursor = 0
    for start, end in _sanitized_idle_intervals(timeline):
        if cursor >= len(pending):
            break
        clock = start + setup_seconds
        if end - clock < seconds_per_region:
            continue  # too short to verify even one region
        resumptions += 1
        setup_spent += setup_seconds
        while cursor < len(pending) and end - clock >= seconds_per_region:
            clock += seconds_per_region
            repair_times[pending[cursor]] = clock
            if obs is not None and obs.tracing:
                obs.emit(
                    "scrub_chunk", clock, "scrub",
                    region=int(pending[cursor]),
                    resumption=resumptions,
                    name=name,
                )
            cursor += 1
        if cursor >= len(pending):
            completion_time = clock

    if obs is not None and obs.enabled:
        obs.metrics.counter("scrub.regions_scrubbed").inc(len(repair_times))
        obs.metrics.counter("scrub.resumptions").inc(resumptions)
        obs.metrics.gauge("scrub.completion_fraction").set(
            len(repair_times) / len(pending)
        )

    return ScrubPlan(
        task=task,
        repair_times=repair_times,
        regions_total=len(pending),
        regions_scrubbed=len(repair_times),
        scrub_seconds=len(repair_times) * seconds_per_region,
        setup_overhead=setup_spent,
        resumptions=resumptions,
        completion_time=completion_time,
    )


def scrub_latent_regions(
    timeline: BusyIdleTimeline,
    faults,
    seconds_per_region: float,
    setup_seconds: float = 0.0,
    name: str = "media-scrub",
    obs=None,
) -> ScrubPlan:
    """Plan a media scrub and feed its repair times into ``faults``.

    After this call a re-run of the same workload against the same fault
    model sees every scrubbed region as healthy from its repair time on;
    only latent errors *hit before* the scrub reached them still fire.
    ``obs`` is forwarded to :func:`plan_media_scrub`.
    """
    plan = plan_media_scrub(
        timeline, faults, seconds_per_region,
        setup_seconds=setup_seconds, name=name, obs=obs,
    )
    if plan.repair_times:
        faults.schedule_repairs(plan.repair_times)
    return plan
