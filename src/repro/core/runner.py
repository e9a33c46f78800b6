"""The parallel experiment runner: fan simulation jobs across cores.

Every figure/table benchmark and every suite-style study boils down to
the same shape of work: synthesize a trace for a (profile, drive,
scheduler, seed) combination, replay it through :class:`DiskSimulator`,
and keep a handful of headline numbers. :class:`ExperimentRunner` runs a
list of such :class:`ExperimentJob` descriptions across
:mod:`multiprocessing` workers, preserving input order and deriving a
deterministic per-job seed stream so a suite is reproducible regardless
of worker count or scheduling.

Jobs carry plain frozen dataclasses (profiles and drive specs pickle
cleanly), and results come back as compact :class:`JobResult` summaries
rather than full :class:`SimulationResult` objects, so the fan-out cost
is the simulation itself, not inter-process traffic.

Resilience
----------
Long suites at fleet scale must survive the failures the fleet actually
produces, so the runner carries a resilience layer:

* **Durable checkpoint/resume** — pass a
  :class:`~repro.core.journal.SuiteJournal` to :meth:`run_suite` and
  every completed job is fsync'd to an append-only WAL; reopening the
  journal with ``resume=True`` skips the journaled jobs and merges their
  recorded results, canonically bit-identical to an uninterrupted run
  (:meth:`SuiteReport.canonical_json`).
* **One retry rule** — a worker runs one attempt per message, and the
  parent alone retries: a job that raised, whose worker died (OOM
  killer, ``SIGKILL``) or that overran its per-attempt timeout is
  resubmitted, up to ``max_retries`` extra attempts, with the shared
  :class:`~repro.core.backoff.BackoffPolicy` spacing them.
* **Chaos injection** — a seeded
  :class:`~repro.core.chaos.ChaosPolicy` makes the runner torture its
  own pool (kills, stalls, delays); chaos-injected kills consume
  neither the retry budget nor the backoff ladder.
* **Resource guards** — a per-worker RSS watchdog recycles bloated
  workers, and ``suite_deadline`` returns a partial-but-valid (and,
  with a journal, resumable) report instead of overrunning.

Everything the resilience layer did to a suite is reported in
:attr:`SuiteReport.resilience` (:mod:`repro.obs`-style counters).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal as signal_module
import traceback as traceback_module
from collections import deque
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields as dataclass_fields, replace
from math import inf
from multiprocessing.connection import wait as connection_wait
from time import perf_counter, sleep
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.core.backoff import BackoffPolicy
from repro.disk.drive import DriveSpec
from repro.disk.simulator import DiskSimulator
from repro.errors import (
    FleetError,
    ObservabilityError,
    ResourceGuardError,
    SimulationError,
    SuiteError,
)
from repro.obs.metrics import MetricsRegistry
from repro.synth.workload import WorkloadProfile

if TYPE_CHECKING:
    from repro.core.chaos import ChaosPlan, ChaosPolicy
    from repro.disk.faults import FaultProfile
    from repro.obs.observer import Observer
    from repro.tier import TierConfig
    from repro.traces.ingest.source import TraceSource

#: Version stamp written by :meth:`SuiteReport.to_json`; bump on any
#: backwards-incompatible change to the serialized layout. (The
#: resilience fields added for crash-safe suites are optional and
#: omitted when empty, so version 1 payloads remain readable and
#: pre-resilience readers still parse new all-clear payloads.)
SCHEMA_VERSION = 1

#: Default spacing of retry attempts (shared with the drive-level retry
#: ladder machinery in :mod:`repro.core.backoff`).
DEFAULT_RETRY_BACKOFF = BackoffPolicy(
    base=0.02, factor=2.0, jitter=0.25, max_delay=2.0, seed=0
)


@dataclass(frozen=True)
class ExperimentJob:
    """One simulation to run: a workload recipe against a drive model.

    Attributes
    ----------
    profile:
        The workload recipe to synthesize the trace from. ``None`` when
        the job replays an ingested trace instead (see ``trace``).
    drive:
        The drive model to replay against.
    scheduler:
        Discipline name (``'fcfs'``, ``'sstf'``, ``'scan'``).
    seed:
        Seed for both trace synthesis and the drive RNG.
    span:
        Trace length in seconds.
    queue_depth:
        NCQ visibility window (``None`` = unlimited).
    fast_path:
        Forwarded to :class:`DiskSimulator`; disable to measure the
        reference event loop.
    faults:
        Optional :class:`~repro.disk.faults.FaultProfile` to inject
        during the replay (``None`` = healthy drive). A profile, not a
        model: each worker materializes its own
        :class:`~repro.disk.faults.FaultModel` from the profile and the
        job seed, so fault placement and draws are identical no matter
        which worker runs the job.
    tier:
        Optional :class:`~repro.tier.TierConfig` placing an SSD cache
        tier in front of the drive (``None`` = bare drive,
        bit-identical to a runner without the field). A config, not a
        device: each worker materializes its own
        :class:`~repro.tier.TieredDevice`, so flash placement is
        identical no matter which worker runs the job.
    obs_level:
        Observability for this job: ``"off"`` (default, bit-identical to
        the uninstrumented runner), ``"metrics"`` (the job's
        :class:`~repro.obs.MetricsRegistry` snapshot and phase timings
        come back on the :class:`JobResult`), or ``"trace"`` (typed
        events too). A level, not an :class:`~repro.obs.Observer`: each
        worker builds its own observer, and the shards merge in the
        parent via :meth:`SuiteReport.merged_metrics`.
    trace:
        Optional trace handle replacing synthesis with a replay
        (``None`` = synthesize from ``profile``; exactly one of the two
        must be set). A pointer, not a trace: each worker calls
        ``trace.load()`` itself, so the job stays cheap to pickle
        however large the capture is. Any object with ``load()`` and
        ``label`` works — a
        :class:`~repro.traces.ingest.source.TraceSource` re-reads a
        file per worker. Trace jobs ignore ``span`` (the
        capture's own span rules) and use ``seed`` only for the drive
        RNG.
    tenants:
        Optional tuple of :class:`~repro.fleet.tenant.TenantLoad` —
        the third workload source: the job multiplexes every tenant's
        stream onto this one shared drive (equal contiguous volumes,
        deterministic per-tenant seeds spawned from the job seed) and
        the result carries per-tenant QoS (``JobResult.tenant_qos``).
        Exactly one of ``profile``, ``trace`` and ``tenants`` must be
        set.
    interference:
        Fleet jobs only: additionally replay each tenant *alone* on the
        same drive and report isolated-vs-colocated tail inflation
        (``JobResult.tenant_interference``) — the noisy-neighbor
        metric. Costs one extra simulation per tenant.
    """

    profile: Optional[WorkloadProfile]
    drive: DriveSpec
    scheduler: str = "fcfs"
    seed: int = 0
    span: float = 300.0
    queue_depth: Optional[int] = None
    fast_path: bool = True
    faults: Optional[FaultProfile] = None
    tier: Optional[TierConfig] = None
    obs_level: str = "off"
    trace: Optional[TraceSource] = None
    tenants: Optional[Tuple[Any, ...]] = None
    interference: bool = False

    def __post_init__(self) -> None:
        if self.obs_level != "off":
            # Jobs are built in the parent, so pooled workers inherit the
            # observer (and at "trace" its event ring) instead of each
            # importing it; a job at "off" loads neither.
            from repro.obs.observer import OBS_LEVELS

            if self.obs_level not in OBS_LEVELS:
                raise ObservabilityError(
                    f"unknown obs_level {self.obs_level!r}; "
                    f"expected one of {OBS_LEVELS}"
                )
            if self.obs_level == "trace":
                import repro.obs.events  # noqa: F401
        sources = (self.profile, self.trace, self.tenants)
        if sum(source is not None for source in sources) != 1:
            raise SimulationError(
                "an ExperimentJob needs exactly one workload source: "
                "a profile to synthesize, a trace to replay, or a "
                "tenant set to multiplex"
            )
        if self.tenants is not None:
            if not self.tenants:
                raise FleetError("a fleet job needs at least one tenant")
            ids = [t.tenant_id for t in self.tenants]
            if len(set(ids)) != len(ids):
                raise FleetError("tenant ids must be unique within a fleet job")
        if self.interference and self.tenants is None:
            raise FleetError(
                "interference accounting requires a tenant set"
            )

    @property
    def workload_name(self) -> str:
        """Name of whatever drives the job: profile name, trace stem, or
        the tenant-count tag of a fleet job."""
        if self.profile is not None:
            return self.profile.name
        if self.tenants is not None:
            return f"fleet-{len(self.tenants)}t"
        return self.trace.label

    @property
    def label(self) -> str:
        depth = "inf" if self.queue_depth is None else str(self.queue_depth)
        label = (
            f"{self.workload_name}/{self.drive.name}/{self.scheduler}"
            f"/qd={depth}/seed={self.seed}"
        )
        if self.faults is not None:
            label += f"/faults={self.faults.name}"
        if self.tier is not None:
            label += f"/tier={self.tier.name}"
        return label


@dataclass(frozen=True)
class JobResult:
    """Headline numbers of one completed job (cheap to pickle/serialize).

    The fault fields are all-zero (and ``p99_response`` tracks the
    healthy distribution) when the job ran without a fault profile.
    """

    label: str
    profile: str
    drive: str
    scheduler: str
    seed: int
    span: float
    n_requests: int
    utilization: float
    mean_service: float
    mean_response: float
    p95_response: float
    max_response: float
    total_busy: float
    wall_seconds: float
    p99_response: float = float("nan")
    n_faulted: int = 0
    n_failed: int = 0
    fault_penalty_seconds: float = 0.0
    #: Tier accounting, all ``None`` when the job ran untiered; the
    #: serialized record then omits them entirely, so untiered suites
    #: (and their golden files) look exactly as they did pre-tier.
    tier_hit_rate: Optional[float] = None
    tier_hdd_offload: Optional[float] = None
    tier_flushed_bytes: Optional[int] = None
    tier_migrated_chunks: Optional[int] = None
    #: Per-tenant QoS of a fleet job (``tenant_id -> tail entry``; see
    #: :func:`repro.fleet.qos.tenant_qos_from_result`); ``None`` for
    #: single-workload jobs, and omitted from the serialized record so
    #: pre-fleet suites and goldens are byte-identical.
    tenant_qos: Optional[Dict[str, Any]] = None
    #: Noisy-neighbor report of a fleet job run with
    #: ``interference=True`` (isolated vs co-located tails per tenant);
    #: ``None`` otherwise and likewise omitted when absent.
    tenant_interference: Optional[Dict[str, Any]] = None
    #: Per-phase wall/CPU seconds (``None`` when the job ran with
    #: ``obs_level="off"``); keys are phase names like ``"simulate"``.
    phase_wall: Optional[Dict[str, float]] = None
    phase_cpu: Optional[Dict[str, float]] = None
    #: :meth:`~repro.obs.MetricsRegistry.as_dict` snapshot (``None`` at
    #: ``obs_level="off"``) — merge shards with
    #: :meth:`SuiteReport.merged_metrics`.
    metrics: Optional[Dict[str, Any]] = None
    #: Retained :class:`~repro.obs.TraceEvent` dicts (``None`` below
    #: ``obs_level="trace"``).
    trace_events: Optional[List[Dict[str, Any]]] = None

    @property
    def replay_rate(self) -> float:
        """Requests simulated per wall-clock second (the perf metric)."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.n_requests / self.wall_seconds

    def as_dict(self) -> Dict[str, Any]:
        """The serialized record: every field, plus ``replay_rate``, minus
        the tier and fleet fields of a job that had none.

        A shallow copy: nested values (``tenant_qos``, ``metrics``,
        ``trace_events``, ...) are the result's own objects, so callers
        serialize the record and never mutate it in place.
        ``dataclasses.asdict`` would deep-copy them, which for a fleet
        suite costs more than the rest of the parent's reporting.
        """
        record = {f.name: getattr(self, f.name) for f in dataclass_fields(self)}
        record["replay_rate"] = self.replay_rate
        for key in (
            "tier_hit_rate",
            "tier_hdd_offload",
            "tier_flushed_bytes",
            "tier_migrated_chunks",
            "tenant_qos",
            "tenant_interference",
        ):
            if record[key] is None:
                del record[key]
        return record


def _job_simulator(job: ExperimentJob, obs: Optional[Observer] = None) -> DiskSimulator:
    """A fresh :class:`DiskSimulator` configured by ``job``'s drive,
    scheduler, seed, queue depth, engine, faults and tier."""
    return DiskSimulator(
        job.drive,
        scheduler=job.scheduler,
        seed=job.seed,
        queue_depth=job.queue_depth,
        fast_path=job.fast_path,
        faults=job.faults,
        tier=job.tier,
        obs=obs,
    )


def run_job(job: ExperimentJob) -> JobResult:
    """Synthesize the job's trace, replay it, summarize. Module-level so
    worker processes can unpickle it.

    With ``job.obs_level != "off"`` an :class:`~repro.obs.Observer` is
    built for the job: phases (``synthesize`` / ``simulate`` /
    ``describe``) are timed through its :class:`~repro.obs.ProfileScope`
    and the registry/event snapshots travel back on the result. At
    ``"off"`` no observer exists at all — the phase context managers are
    :func:`~contextlib.nullcontext` — so the job runs exactly as it did
    before observability existed.
    """
    wall_start = perf_counter()
    obs = None
    if job.obs_level != "off":
        from repro.obs.observer import Observer

        obs = Observer(job.obs_level)

    def phase(name: str):
        return obs.profile.phase(name) if obs is not None else nullcontext()

    columns = None
    tenant_idx = None
    with phase("synthesize"):
        if job.trace is not None:
            trace = job.trace.load()
        elif job.tenants is not None:
            # Lazy import: the fleet layer builds on the runner, so the
            # runner must not import it at module level.
            from repro.fleet.multiplex import (
                combine_columns,
                synthesize_tenant_columns,
            )

            columns = synthesize_tenant_columns(
                job.tenants, job.drive.capacity_sectors, job.span, seed=job.seed
            )
            trace, tenant_idx = combine_columns(
                columns, span=job.span, capacity_sectors=job.drive.capacity_sectors
            )
        else:
            trace = job.profile.synthesize(
                span=job.span,
                capacity_sectors=job.drive.capacity_sectors,
                seed=job.seed,
            )
    simulator = _job_simulator(job, obs)
    with phase("simulate"):
        result = simulator.run(trace)
    with phase("describe"):
        if len(trace):
            response = result.describe_response()
            mean_service = float(result.service_times.mean())
            mean_response, p95, worst = response.mean, response.p95, response.maximum
            p99 = response.p99
        else:
            mean_service = mean_response = p95 = p99 = worst = float("nan")
    tenant_qos = tenant_interference = None
    if job.tenants is not None:
        from repro.fleet.qos import interference_report, tenant_qos_from_result

        with phase("qos"):
            responses = np.asarray(result.response_times, dtype=np.float64)
            tenant_qos = tenant_qos_from_result(job.tenants, tenant_idx, responses)
            if obs is not None:
                # Recorded post-hoc so the simulated numbers stay
                # bit-identical to an unobserved run of the same job.
                for k, tenant in enumerate(job.tenants):
                    entry = tenant_qos[tenant.tenant_id]
                    obs.metrics.counter(
                        f"fleet.tenant.{tenant.tenant_id}.requests"
                    ).inc(entry["n_requests"])
                    obs.metrics.histogram(
                        f"fleet.tenant.{tenant.tenant_id}.response"
                    ).observe_many(responses[tenant_idx == k])
            if job.interference:
                tenant_interference = interference_report(job, columns, tenant_qos)
    wall = perf_counter() - wall_start
    if obs is not None:
        phase_wall, phase_cpu = obs.profile.as_dicts()
        metrics = obs.metrics.as_dict()
        trace_events = (
            [e.as_dict() for e in obs.events] if obs.events is not None else None
        )
    else:
        phase_wall = phase_cpu = metrics = trace_events = None
    if result.tier_summary is not None:
        summary = result.tier_summary
        tier_hit_rate: Optional[float] = float(summary["hit_rate"])
        tier_hdd_offload: Optional[float] = float(summary["hdd_offload"])
        tier_flushed_bytes: Optional[int] = int(summary["flushed_bytes"])
        tier_migrated_chunks: Optional[int] = int(
            summary["promoted_chunks"] + summary["demoted_chunks"]
        )
    else:
        tier_hit_rate = tier_hdd_offload = None
        tier_flushed_bytes = tier_migrated_chunks = None
    return JobResult(
        label=job.label,
        profile=job.workload_name,
        drive=job.drive.name,
        scheduler=job.scheduler,
        seed=job.seed,
        span=trace.span if job.profile is None else job.span,
        n_requests=len(trace),
        utilization=result.utilization,
        mean_service=mean_service,
        mean_response=mean_response,
        p95_response=p95,
        max_response=worst,
        total_busy=float(result.timeline.total_busy),
        wall_seconds=wall,
        p99_response=p99,
        n_faulted=result.n_faulted,
        n_failed=result.n_failed,
        fault_penalty_seconds=result.fault_penalty_seconds,
        tier_hit_rate=tier_hit_rate,
        tier_hdd_offload=tier_hdd_offload,
        tier_flushed_bytes=tier_flushed_bytes,
        tier_migrated_chunks=tier_migrated_chunks,
        tenant_qos=tenant_qos,
        tenant_interference=tenant_interference,
        phase_wall=phase_wall,
        phase_cpu=phase_cpu,
        metrics=metrics,
        trace_events=trace_events,
    )


def derive_seeds(base_seed: int, count: int) -> List[int]:
    """A deterministic, well-spread seed per job index.

    Uses :class:`numpy.random.SeedSequence` spawn keys, so job *i* gets
    the same seed no matter how many jobs surround it or how they are
    distributed over workers.
    """
    if count < 0:
        raise SimulationError(f"count must be >= 0, got {count!r}")
    root = np.random.SeedSequence(base_seed)
    return [int(s.generate_state(1)[0]) for s in root.spawn(count)]


def experiment_matrix(
    profiles: Sequence[WorkloadProfile],
    drive: DriveSpec,
    schedulers: Sequence[str] = ("fcfs",),
    seeds_per_combo: int = 1,
    base_seed: int = 0,
    span: float = 300.0,
    queue_depth: Optional[int] = None,
    faults: Optional[FaultProfile] = None,
    tier: Optional[TierConfig] = None,
    obs_level: str = "off",
) -> List[ExperimentJob]:
    """The cross product profiles x schedulers x replicates as a job list,
    with per-job seeds derived deterministically from ``base_seed``.

    ``faults`` applies one fault profile to every job in the matrix
    (compare two matrices — one healthy, one degraded — rather than
    mixing modes within a matrix); ``tier`` and ``obs_level`` likewise
    apply one tier configuration and one observability level to every
    job."""
    if seeds_per_combo < 1:
        raise SimulationError(
            f"seeds_per_combo must be >= 1, got {seeds_per_combo!r}"
        )
    combos = [
        (profile, scheduler)
        for profile in profiles
        for scheduler in schedulers
    ]
    seeds = derive_seeds(base_seed, len(combos) * seeds_per_combo)
    jobs: List[ExperimentJob] = []
    for c, (profile, scheduler) in enumerate(combos):
        for r in range(seeds_per_combo):
            jobs.append(
                ExperimentJob(
                    profile=profile,
                    drive=drive,
                    scheduler=scheduler,
                    seed=seeds[c * seeds_per_combo + r],
                    span=span,
                    queue_depth=queue_depth,
                    faults=faults,
                    tier=tier,
                    obs_level=obs_level,
                )
            )
    return jobs


@dataclass(frozen=True)
class JobFailure:
    """Structured record of one job that did not produce a result.

    Attributes
    ----------
    label:
        The failed job's label (``job.label`` when available).
    index:
        Position of the job in the submitted sequence.
    error_type:
        Exception class name (``"TimeoutError"`` for per-job timeouts).
    message:
        ``str(exception)`` of the final attempt.
    traceback:
        Formatted traceback of the final attempt (empty for timeouts,
        which are detected from the parent process).
    attempts:
        How many times the job (or its shard) was tried before giving
        up, whatever failed each time (``SuiteReport.retries`` sums
        ``attempts - 1``).
    wall_seconds:
        Wall time of the final attempt.
    """

    label: str
    index: int
    error_type: str
    message: str
    traceback: str
    attempts: int
    wall_seconds: float

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


def _job_label(job: Any, index: int) -> str:
    """``job.label``, or ``job-<index>`` for label-less jobs."""
    return str(getattr(job, "label", f"job-{index}"))


def _failure(
    job: Any,
    index: int,
    error_type: str,
    message: str,
    traceback: str = "",
    wall_seconds: float = 0.0,
) -> JobFailure:
    """The one constructor of :class:`JobFailure`, for one attempt (the
    runner stamps the job's attempt count when it resolves)."""
    return JobFailure(
        label=_job_label(job, index),
        index=index,
        error_type=error_type,
        message=message,
        traceback=traceback,
        attempts=1,
        wall_seconds=wall_seconds,
    )


JobOutcome = Union[JobResult, JobFailure]


def _failed(outcome: Any) -> bool:
    """True for a :class:`JobFailure` and for a :class:`ShardResult`
    with a failed member: the outcomes the runner retries and never
    journals."""
    return isinstance(outcome, JobFailure) or not getattr(outcome, "ok", True)

#: ``progress(done, total, outcome)`` called after each job resolves.
ProgressCallback = Callable[[int, int, JobOutcome], None]


@dataclass(frozen=True)
class SuiteReport:
    """Everything that happened while running one suite of jobs.

    ``results`` holds the successful :class:`JobResult`\\ s in input
    order; ``failures`` holds the :class:`JobFailure`\\ s, also in input
    order (``JobFailure.index`` maps each back to its job). Under
    ``on_error="raise"`` a partial report — only the jobs that resolved
    before the stop — travels on :class:`~repro.errors.SuiteError`.

    ``resilience`` (``None`` when nothing happened) counts what the
    crash/chaos/degradation machinery did: worker crashes and
    resubmissions, chaos injections, journal skips/records, recycled
    workers, deadline hits. ``deadline_exceeded`` marks a report cut
    short by ``suite_deadline`` — partial but valid, and resumable when
    a journal was attached.
    """

    results: Tuple[JobResult, ...]
    failures: Tuple[JobFailure, ...]
    n_jobs: int
    workers: int
    retries: int
    wall_seconds: float
    deadline_exceeded: bool = False
    resilience: Optional[Dict[str, int]] = None

    @property
    def ok(self) -> bool:
        """True when every job produced a result."""
        return not self.failures

    @property
    def n_completed(self) -> int:
        """Jobs that resolved either way (< ``n_jobs`` after fail-fast)."""
        return len(self.results) + len(self.failures)

    @property
    def n_faulted(self) -> int:
        """Requests that hit at least one fault, across every job."""
        return sum(r.n_faulted for r in self.results)

    @property
    def n_failed_requests(self) -> int:
        """Requests that exhausted recovery, across every job."""
        return sum(r.n_failed for r in self.results)

    @property
    def fault_penalty_seconds(self) -> float:
        """Extra service seconds the fault machinery added, suite-wide."""
        return float(sum(r.fault_penalty_seconds for r in self.results))

    @property
    def tiered_results(self) -> Tuple[JobResult, ...]:
        """The results that ran with an SSD tier attached."""
        return tuple(r for r in self.results if r.tier_hit_rate is not None)

    def _tier_weighted(self, attr: str) -> float:
        """Request-weighted mean of one per-job tier rate, skipping jobs
        whose rate is undefined (zero-request runs report NaN)."""
        total = 0.0
        weight = 0
        for result in self.tiered_results:
            value = getattr(result, attr)
            if value is None or not np.isfinite(value):
                continue
            total += value * result.n_requests
            weight += result.n_requests
        return total / weight if weight else float("nan")

    @property
    def tier_hit_rate(self) -> float:
        """Request-weighted flash hit rate across the tiered jobs."""
        return self._tier_weighted("tier_hit_rate")

    @property
    def tier_hdd_offload(self) -> float:
        """Request-weighted HDD byte-offload across the tiered jobs."""
        return self._tier_weighted("tier_hdd_offload")

    @property
    def tier_flushed_bytes(self) -> int:
        """Dirty bytes destaged to the HDD, suite-wide."""
        return sum(r.tier_flushed_bytes or 0 for r in self.tiered_results)

    @property
    def tier_migrated_chunks(self) -> int:
        """Chunks moved by migration epochs, suite-wide."""
        return sum(r.tier_migrated_chunks or 0 for r in self.tiered_results)

    @property
    def tenant_results(self) -> Tuple[JobResult, ...]:
        """The results that ran as multi-tenant fleet jobs."""
        return tuple(r for r in self.results if r.tenant_qos is not None)

    def fleet_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant rollup across every fleet job in the suite.

        Returns ``tenant_id -> {"drives", "n_requests", "mean_response",
        "p99_response", "p999_response", "max_response"}`` where the
        mean is request-weighted and the tails are the worst across the
        tenant's drives (NaN entries from empty samples are skipped).
        Empty when no job carried tenants.
        """
        summary: Dict[str, Dict[str, float]] = {}
        for result in self.tenant_results:
            for tenant_id, entry in result.tenant_qos.items():
                agg = summary.setdefault(
                    tenant_id,
                    {
                        "drives": 0,
                        "n_requests": 0,
                        "mean_response": 0.0,
                        "p99_response": float("-inf"),
                        "p999_response": float("-inf"),
                        "max_response": float("-inf"),
                    },
                )
                agg["drives"] += 1
                n = int(entry["n_requests"])
                agg["n_requests"] += n
                if n and np.isfinite(entry["mean_response"]):
                    agg["mean_response"] += float(entry["mean_response"]) * n
                for key in ("p99_response", "p999_response", "max_response"):
                    value = float(entry[key])
                    if np.isfinite(value):
                        agg[key] = max(agg[key], value)
        for agg in summary.values():
            agg["mean_response"] = (
                agg["mean_response"] / agg["n_requests"]
                if agg["n_requests"]
                else float("nan")
            )
            for key in ("p99_response", "p999_response", "max_response"):
                if agg[key] == float("-inf"):
                    agg[key] = float("nan")
        return summary

    def phase_breakdown(self) -> Dict[str, Dict[str, float]]:
        """Suite-wide per-phase totals from the jobs that ran observed.

        Returns ``phase -> {"wall_seconds", "cpu_seconds", "jobs"}``,
        summed across every result carrying phase timings; empty when
        the whole suite ran at ``obs_level="off"``.
        """
        breakdown: Dict[str, Dict[str, float]] = {}
        for result in self.results:
            if result.phase_wall is None:
                continue
            cpu = result.phase_cpu or {}
            for name, wall in result.phase_wall.items():
                entry = breakdown.setdefault(
                    name, {"wall_seconds": 0.0, "cpu_seconds": 0.0, "jobs": 0}
                )
                entry["wall_seconds"] += float(wall)
                entry["cpu_seconds"] += float(cpu.get(name, 0.0))
                entry["jobs"] += 1
        return breakdown

    def merged_metrics(self) -> Optional[MetricsRegistry]:
        """Every observed job's registry folded into one
        :class:`~repro.obs.MetricsRegistry` (Chan-style, order-safe), or
        ``None`` when no job recorded metrics."""
        merged: Optional[MetricsRegistry] = None
        for result in self.results:
            if result.metrics is None:
                continue
            shard = MetricsRegistry.from_dict(result.metrics)
            merged = shard if merged is None else merged.merge(shard)
        return merged

    def fault_summary(self) -> Dict[str, Any]:
        """Suite-wide fault totals (the ``fault_summary`` JSON block)."""
        return {
            "n_faulted": self.n_faulted,
            "n_failed_requests": self.n_failed_requests,
            "fault_penalty_seconds": self.fault_penalty_seconds,
        }

    def tier_summary(self) -> Dict[str, Any]:
        """Suite-wide tier totals (the ``tier_summary`` JSON block)."""
        return {
            "n_tiered_jobs": len(self.tiered_results),
            "hit_rate": self.tier_hit_rate,
            "hdd_offload": self.tier_hdd_offload,
            "flushed_bytes": self.tier_flushed_bytes,
            "migrated_chunks": self.tier_migrated_chunks,
        }

    def as_dict(self) -> Dict[str, Any]:
        payload = {
            "n_jobs": self.n_jobs,
            "workers": self.workers,
            "retries": self.retries,
            "wall_seconds": self.wall_seconds,
            "results": [r.as_dict() for r in self.results],
            "failures": [f.as_dict() for f in self.failures],
            "fault_summary": self.fault_summary(),
        }
        # Only when some job actually ran tiered — untiered suites
        # serialize exactly as they did before the tier existed.
        if self.tiered_results:
            payload["tier_summary"] = self.tier_summary()
        # Only when some job carried tenants — single-workload suites
        # serialize exactly as they did before the fleet existed.
        if self.tenant_results:
            payload["fleet_summary"] = self.fleet_summary()
        # Likewise for the resilience layer: a suite where nothing
        # crashed, resumed, or degraded serializes exactly as before.
        if self.deadline_exceeded:
            payload["deadline_exceeded"] = True
        if self.resilience:
            payload["resilience"] = dict(self.resilience)
        return payload

    # ------------------------------------------------------------------
    # Versioned serialization (golden files, archived suite runs)
    # ------------------------------------------------------------------

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize the report with a schema version stamp.

        The payload is :meth:`as_dict` plus ``schema_version``;
        :meth:`from_json` refuses payloads from a different schema, so
        archived reports fail loudly instead of deserializing wrongly.
        NaN fields (e.g. ``p99_response`` of an empty job) round-trip
        via Python's JSON extension literals.
        """
        payload = {"schema_version": SCHEMA_VERSION, **self.as_dict()}
        return json.dumps(payload, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SuiteReport":
        """Rebuild a report serialized by :meth:`to_json`."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ObservabilityError(f"invalid SuiteReport JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ObservabilityError(
                f"SuiteReport JSON must be an object, got {type(payload).__name__}"
            )
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ObservabilityError(
                f"SuiteReport schema_version {version!r} is not supported "
                f"(this library reads version {SCHEMA_VERSION})"
            )
        try:
            return cls(
                results=tuple(
                    _dataclass_from_record(JobResult, record)
                    for record in payload.get("results", [])
                ),
                failures=tuple(
                    _dataclass_from_record(JobFailure, record)
                    for record in payload.get("failures", [])
                ),
                n_jobs=int(payload["n_jobs"]),
                workers=int(payload["workers"]),
                retries=int(payload["retries"]),
                wall_seconds=float(payload["wall_seconds"]),
                deadline_exceeded=bool(payload.get("deadline_exceeded", False)),
                resilience=payload.get("resilience"),
            )
        except KeyError as exc:
            raise ObservabilityError(
                f"SuiteReport JSON is missing field {exc}"
            ) from exc

    #: Suite-level fields scrubbed by :meth:`canonical_json` (wall-clock
    #: and environment artifacts that legitimately differ between a
    #: clean run and a crashed-and-resumed or chaos-tortured run).
    VOLATILE_SUITE_KEYS = (
        "wall_seconds", "workers", "retries", "resilience",
        "deadline_exceeded",
    )
    #: Per-record timing fields scrubbed by :meth:`canonical_json`.
    VOLATILE_RESULT_KEYS = (
        "wall_seconds", "replay_rate", "phase_wall", "phase_cpu",
    )

    def canonical_json(self) -> str:
        """The report's *determinism surface*: :meth:`to_json` minus
        wall-clock and environment fields.

        This is the normative bit-identity guarantee of the resilience
        layer: a suite that crashed and resumed from its journal, or ran
        under a chaos policy, must produce byte-identical
        ``canonical_json()`` to the same suite running uninterrupted —
        every simulated number, label, seed and metric equal, with only
        wall-clock timings, worker counts, retry counts and the
        resilience ledger allowed to differ. Enforced by tests and the
        CI chaos-smoke job.
        """
        payload = json.loads(self.to_json())
        for key in self.VOLATILE_SUITE_KEYS:
            payload.pop(key, None)
        for record in payload.get("results", []):
            for key in self.VOLATILE_RESULT_KEYS:
                record.pop(key, None)
        for record in payload.get("failures", []):
            record.pop("wall_seconds", None)
            record.pop("attempts", None)
        return json.dumps(payload, indent=2, sort_keys=True)


def _dataclass_from_record(cls: type, record: Mapping[str, Any]) -> Any:
    """Build a frozen record dataclass from a JSON object, ignoring
    derived extras (``replay_rate``) and rejecting missing fields."""
    names = {f.name for f in dataclass_fields(cls)}
    try:
        return cls(**{k: v for k, v in record.items() if k in names})
    except TypeError as exc:
        raise ObservabilityError(
            f"malformed {cls.__name__} record: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# Sharded execution: partition jobs into contiguous shards so one
# dispatch (and one journal record) covers several drives of a fleet.
# ----------------------------------------------------------------------


def make_shards(n_jobs: int, shard_size: int) -> Tuple[Tuple[int, ...], ...]:
    """Partition ``range(n_jobs)`` into contiguous index shards.

    Every index appears in exactly one shard (the partition property the
    fleet test-suite asserts); the last shard may be short.
    """
    if shard_size < 1:
        raise SimulationError(f"shard_size must be >= 1, got {shard_size!r}")
    if n_jobs < 0:
        raise SimulationError(f"n_jobs must be >= 0, got {n_jobs!r}")
    return tuple(
        tuple(range(i, min(i + shard_size, n_jobs)))
        for i in range(0, n_jobs, shard_size)
    )


@dataclass(frozen=True)
class JobShard:
    """A contiguous slice of a suite's jobs dispatched as one unit.

    Carries both the member jobs and their positions in the original
    job list, so shard outcomes flatten back into input order. Shards
    are what a sharded suite journals: resuming requires the same
    ``shard_size`` (a different size changes the shard fingerprints and
    the journal refuses them).
    """

    indices: Tuple[int, ...]
    jobs: Tuple[ExperimentJob, ...]

    @property
    def label(self) -> str:
        return f"shard[{self.indices[0]}..{self.indices[-1]}]"


def shard_jobs(jobs: Sequence[ExperimentJob], shard_size: int) -> List[JobShard]:
    """Slice a job list into :class:`JobShard` units of ``shard_size``."""
    jobs = tuple(jobs)
    return [
        JobShard(indices=indices, jobs=tuple(jobs[i] for i in indices))
        for indices in make_shards(len(jobs), shard_size)
    ]


@dataclass(frozen=True)
class ShardResult:
    """Outcomes of one shard's members, in shard order."""

    indices: Tuple[int, ...]
    outcomes: Tuple[JobOutcome, ...]

    @property
    def ok(self) -> bool:
        """True when every member produced a result. A shard with a
        failed member is retried whole and never journaled, so a resume
        re-runs it."""
        return all(isinstance(o, JobResult) for o in self.outcomes)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "indices": list(self.indices),
            "outcomes": [
                {"kind": "result", **o.as_dict()}
                if isinstance(o, JobResult)
                else {"kind": "failure", **o.as_dict()}
                for o in self.outcomes
            ],
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "ShardResult":
        outcomes: List[JobOutcome] = []
        for entry in record["outcomes"]:
            entry = dict(entry)
            kind = entry.pop("kind", "result")
            target = JobFailure if kind == "failure" else JobResult
            outcomes.append(_dataclass_from_record(target, entry))
        return cls(indices=tuple(record["indices"]), outcomes=tuple(outcomes))


class _ShardRunner:
    """Picklable ``job_fn`` over :class:`JobShard`: run every member once
    through :func:`_attempt` (errors captured as :class:`JobFailure`) and
    return a :class:`ShardResult`. Module-level class, not a closure, so
    pooled workers can unpickle it."""

    __slots__ = ("job_fn",)

    def __init__(self, job_fn: Callable[[ExperimentJob], JobResult]) -> None:
        self.job_fn = job_fn

    def __call__(self, shard: JobShard) -> ShardResult:
        return ShardResult(
            indices=shard.indices,
            outcomes=tuple(
                _attempt(self.job_fn, job, index)[0]
                for index, job in zip(shard.indices, shard.jobs)
            ),
        )


def _rss_bytes() -> int:
    """Resident set size of this process, best effort (0 when unknown)."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGESIZE")
    except Exception:
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:
        return 0


def _attempt(
    job_fn: Callable[[ExperimentJob], JobResult],
    job: ExperimentJob,
    index: int,
) -> Tuple[JobOutcome, float]:
    """Run one attempt of one job: ``(outcome, wall_seconds)``.

    Never raises (errors become :class:`JobFailure`), so a bad job cannot
    poison the pool; whether to try again is the parent's decision
    (:meth:`ExperimentRunner._retry_delay`).
    """
    start = perf_counter()
    try:
        result = job_fn(job)
    except Exception as exc:  # deliberate blanket capture at the seam
        wall = perf_counter() - start
        failure = _failure(
            job, index, type(exc).__name__, str(exc),
            traceback_module.format_exc(), wall,
        )
        return failure, wall
    return result, perf_counter() - start


def _pool_worker(conn) -> None:
    """Loop of one pooled worker process: receive ``(job_fn, job, index,
    chaos_delay)`` messages, sleep out the chaos delay, run one
    :func:`_attempt`, send the outcome back. A ``None`` message (or a
    closed pipe) shuts the worker down. Module-level so the ``spawn``
    start method can import it.

    Replies are ``(index, outcome, wall, rss_bytes)`` — the RSS reading
    feeds the parent-side memory watchdog. If an outcome cannot travel
    back (unpicklable result), a :class:`JobFailure` describing the
    transport error is sent instead — the parent never hangs waiting for
    a reply.
    """
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            job_fn, job, index, chaos_delay = message
            if chaos_delay > 0:
                sleep(chaos_delay)
            outcome, wall = _attempt(job_fn, job, index)
            try:
                conn.send((index, outcome, wall, _rss_bytes()))
            except Exception as exc:  # result transport failure
                failure = _failure(
                    job, index, type(exc).__name__,
                    f"job result could not be sent back: {exc}",
                    traceback_module.format_exc(), wall,
                )
                conn.send((index, failure, wall, _rss_bytes()))
    finally:
        conn.close()


class _PoolWorker:
    """Parent-side handle of one worker process and its message pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn

    def stop(self) -> None:
        """Politely ask the worker to exit (it is idle: the sentinel is
        read immediately)."""
        try:
            self.conn.send(None)
        except Exception:
            pass

    def kill(self) -> None:
        """Forcibly terminate the worker process."""
        try:
            self.process.terminate()
        except Exception:
            pass

    def sigkill(self) -> None:
        """SIGKILL the worker process (chaos: no cleanup, no warning)."""
        try:
            self.process.kill()
        except Exception:
            pass

    def signal(self, signum: int) -> bool:
        """Send a raw signal (chaos stalls); False when delivery failed."""
        try:
            os.kill(self.process.pid, signum)
        except Exception:
            return False
        return True

    def reap(self, timeout: float = 1.0) -> None:
        self.process.join(timeout)
        try:
            self.conn.close()
        except Exception:
            pass


class _BusyJob:
    """Parent-side state of one in-flight submission."""

    __slots__ = (
        "worker", "submitted", "plan", "chaos_killed", "stalled", "resume_at",
    )

    def __init__(self, worker: _PoolWorker, submitted: float,
                 plan: Optional[ChaosPlan]) -> None:
        self.worker = worker
        self.submitted = submitted
        self.plan = plan
        self.chaos_killed = False
        self.stalled = False
        self.resume_at: Optional[float] = None

    def next_event(self, job_timeout: Optional[float]) -> float:
        """When the parent must next act on this job without hearing
        from it: its scheduled chaos kill, stall or resume, or its
        timeout (``inf`` when none is pending)."""
        times = []
        if job_timeout is not None:
            times.append(self.submitted + job_timeout)
        plan = self.plan
        if plan is not None:
            if plan.kill_after is not None and not self.chaos_killed:
                times.append(self.submitted + plan.kill_after)
            if plan.stall_after is not None and not self.stalled:
                times.append(self.submitted + plan.stall_after)
            if self.resume_at is not None:
                times.append(self.resume_at)
        return min(times, default=inf)

    def resume(self) -> None:
        """Lift a chaos stall (``SIGCONT``) if one is in force."""
        if self.resume_at is not None:
            self.worker.signal(signal_module.SIGCONT)
            self.resume_at = None

    def kill(self) -> None:
        """Terminate the worker, resuming it first: a stopped process
        does not act on the terminate."""
        self.resume()
        self.worker.kill()


class ExperimentRunner:
    """Run experiment jobs across processes, results in input order.

    Parameters
    ----------
    workers:
        Worker process count. ``None`` = one per CPU (capped at the job
        count); ``1`` = run inline in this process, with no
        multiprocessing at all (deterministic, debugger-friendly, and the
        right choice inside already-parallel harnesses).
    max_retries:
        Extra attempts per job (per shard in :meth:`run_sharded`): one
        budget across every failure kind — an exception, a worker
        crash, a timeout, a shard with a failed member. Only the parent
        retries, spaced by ``retry_backoff`` (:meth:`_retry_delay`), so
        a job's attempts are its submissions. A deterministic failure
        therefore fails ``max_retries + 1`` times; the knob exists for
        transient causes (OOM kills, flaky I/O, chaos).
    job_timeout:
        Wall-clock budget of each attempt, in seconds. In pooled mode an
        overrunning job's worker is terminated on the spot and replaced
        with a fresh one, and the attempt counts as a failure. Inline
        mode cannot preempt a running job, so the timeout is applied
        after the fact: an attempt whose wall time exceeded the budget
        fails as timed out even if it eventually returned. A job out of
        retries is reported with ``error_type="TimeoutError"``.
    on_error:
        ``"raise"`` (default) stops submitting after the first failure,
        drains in-flight jobs, and raises :class:`SuiteError` carrying
        the partial report. ``"collect"`` runs every job and returns a
        full report with the failures listed.
    chaos:
        Optional :class:`~repro.core.chaos.ChaosPolicy`: the runner
        injects the policy's seeded kills/stalls/delays into its own pool
        while the suite runs. Chaos-injected kills are budget-exempt
        (resubmitted without consuming ``max_retries``), capped at the
        policy's ``max_faults_per_job``, and skip the backoff ladder: an
        injected kill is resubmitted after at most ``retry_backoff.base``
        seconds, while every other failure waits out the ladder rung of
        its own count. Inline mode applies only the worker-side delay
        leg.
    suite_deadline:
        Optional whole-suite wall-clock budget in seconds. When it
        expires the runner stops submitting, abandons in-flight jobs and
        returns the completed results as a partial report with
        ``deadline_exceeded=True`` — valid, and resumable when a journal
        is attached — instead of overrunning.
    rss_limit_mb:
        Optional per-worker resident-set watchdog. A worker whose RSS
        exceeds the limit after a job is recycled (stopped and replaced
        with a fresh process) before it can drag the host into swap; the
        completed job is kept.
    retry_backoff:
        The :class:`~repro.core.backoff.BackoffPolicy` spacing retries
        (default
        :data:`DEFAULT_RETRY_BACKOFF`; the same helper drives the
        drive-level fault retry ladder, so all backoff in the repo
        shares one implementation).

    Pooled mode runs one long-lived worker process per slot, each driven
    over its own duplex pipe (no ``multiprocessing.Pool``). That makes a
    worker's death observable: a worker killed mid-job (OOM killer,
    ``SIGKILL``, hard crash) is detected via its process sentinel, the
    worker respawned, and the job resubmitted (or reported as a
    :class:`JobFailure` with ``error_type="WorkerCrashed"`` once the
    retry budget is spent) instead of hanging the suite forever waiting
    on a result that will never arrive.

    The parent loop is event-driven, with no poll interval: it blocks in
    :func:`multiprocessing.connection.wait` on every busy worker's pipe
    and sentinel, with a timeout at the earliest parent-side deadline (a
    scheduled chaos kill, stall or resume, a per-job timeout, a backoff
    ``retry_at`` while a worker is free, or the suite deadline).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        max_retries: int = 0,
        job_timeout: Optional[float] = None,
        on_error: str = "raise",
        chaos: Optional[ChaosPolicy] = None,
        suite_deadline: Optional[float] = None,
        rss_limit_mb: Optional[float] = None,
        retry_backoff: Optional[BackoffPolicy] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise SimulationError(f"workers must be >= 1, got {workers!r}")
        if max_retries < 0:
            raise SimulationError(f"max_retries must be >= 0, got {max_retries!r}")
        if job_timeout is not None and job_timeout <= 0:
            raise SimulationError(f"job_timeout must be > 0, got {job_timeout!r}")
        if on_error not in ("raise", "collect"):
            raise SimulationError(
                f"on_error must be 'raise' or 'collect', got {on_error!r}"
            )
        if chaos is not None:
            from repro.core.chaos import ChaosPolicy

            if not isinstance(chaos, ChaosPolicy):
                raise SimulationError(
                    f"chaos must be a ChaosPolicy or None, got {type(chaos).__name__}"
                )
        if suite_deadline is not None and suite_deadline <= 0:
            raise ResourceGuardError(
                f"suite_deadline must be > 0, got {suite_deadline!r}"
            )
        if rss_limit_mb is not None and rss_limit_mb <= 0:
            raise ResourceGuardError(
                f"rss_limit_mb must be > 0, got {rss_limit_mb!r}"
            )
        self.workers = workers
        self.max_retries = max_retries
        self.job_timeout = job_timeout
        self.on_error = on_error
        self.chaos = chaos if chaos is not None and chaos.active else None
        self.suite_deadline = suite_deadline
        self.rss_limit_mb = rss_limit_mb
        self.retry_backoff = (
            retry_backoff if retry_backoff is not None else DEFAULT_RETRY_BACKOFF
        )

    def _worker_count(self, n_jobs: int) -> int:
        workers = self.workers if self.workers is not None else (os.cpu_count() or 1)
        return max(1, min(workers, n_jobs))

    def _retry_delay(self, index: int, failures: int) -> Optional[float]:
        """The one retry rule of both modes: seconds to wait before
        retrying unit ``index`` after its ``failures``-th charged
        failure, or ``None`` once ``max_retries`` is spent."""
        if failures > self.max_retries:
            return None
        return self.retry_backoff.delay(failures, key=index)

    def run(
        self,
        jobs: Sequence[ExperimentJob],
        progress: Optional[ProgressCallback] = None,
    ) -> List[JobResult]:
        """Execute every job; the i-th result belongs to the i-th job.

        Thin wrapper over :meth:`run_suite` that returns only the
        successful results. Under the default ``on_error="raise"`` any
        failure surfaces as :class:`SuiteError`; with
        ``on_error="collect"`` failed jobs are silently absent from the
        returned list — use :meth:`run_suite` when you need the
        failures.
        """
        return list(self.run_suite(jobs, progress=progress).results)

    def run_suite(
        self,
        jobs: Sequence[ExperimentJob],
        progress: Optional[ProgressCallback] = None,
        job_fn: Optional[Callable[[ExperimentJob], JobResult]] = None,
        journal=None,
        result_decoder: Optional[Callable[[Mapping[str, Any]], Any]] = None,
    ) -> SuiteReport:
        """Execute the jobs and report everything that happened.

        ``job_fn`` defaults to :func:`run_job`; it is a seam for tests
        and for suites whose unit of work is not a disk simulation.

        ``journal`` is an optional
        :class:`~repro.core.journal.SuiteJournal` opened over these
        jobs: jobs it already records are skipped (their journaled
        results merged in place, counted in
        ``resilience["journal.resumed_jobs"]``), and each newly
        completed job is durably appended before the suite moves on.

        ``result_decoder`` rebuilds a journaled record into its outcome
        object on resume (default: a :class:`JobResult`); sharded runs
        pass :meth:`ShardResult.from_dict`.
        """
        start = perf_counter()
        outcomes, attempts, workers, counters = self._execute(
            list(jobs),
            job_fn if job_fn is not None else run_job,
            progress,
            journal,
            result_decoder,
            start,
            fail_fast=self.on_error == "raise",
        )
        return self._report(outcomes, attempts, workers, counters, start)

    def run_sharded(
        self,
        jobs: Sequence[ExperimentJob],
        shard_size: int = 4,
        progress: Optional[ProgressCallback] = None,
        job_fn: Optional[Callable[[ExperimentJob], JobResult]] = None,
        journal=None,
    ) -> SuiteReport:
        """Execute the jobs in contiguous shards of ``shard_size``.

        The sharded mode of the fleet subsystem: jobs (one per fleet
        drive) are sliced into :class:`JobShard` units, the shards are
        fanned across the worker pool (one zero-pickle dispatch per
        shard instead of per job), and the shard outcomes are flattened
        back into input order and merged into one ordinary
        :class:`SuiteReport`.

        **Determinism guarantee** (normative, asserted by tests and
        ``BENCH_fleet.json``): every member job's result comes from one
        simulation with its own seed (a retried shard re-runs its
        deterministic members), and the merged report's
        :meth:`SuiteReport.canonical_json` is byte-identical whatever
        the worker count or ``shard_size`` — only wall-clock and
        environment fields may differ.

        ``journal`` must have been opened over ``shard_jobs(jobs,
        shard_size)`` (the shard is the checkpoint unit); resuming with
        a different ``shard_size`` changes the fingerprints and the
        journal refuses them. A shard with a failed member is retried
        whole (``max_retries`` counts per shard, and a member that fails
        for good carries its shard's attempts); such a shard is not
        journaled, so a resume re-runs it. ``shard_size`` must never
        be derived from machine properties (CPU count), or journals
        stop being portable across hosts.
        """
        jobs = list(jobs)
        n = len(jobs)
        start = perf_counter()
        shards = shard_jobs(jobs, shard_size)
        fn = job_fn if job_fn is not None else run_job

        shard_progress: Optional[ProgressCallback] = None
        if progress is not None:
            member_done = [0]

            def shard_progress(done: int, total: int, outcome: Any) -> None:
                members = (
                    outcome.outcomes
                    if isinstance(outcome, ShardResult)
                    else (outcome,)
                )
                for member in members:
                    member_done[0] += 1
                    progress(member_done[0], n, member)

        # Every shard runs whatever ``on_error`` says; a failure raises
        # only once the member report below is complete.
        shard_outcomes, attempts, workers, counters = self._execute(
            shards,
            _ShardRunner(fn),
            shard_progress,
            journal,
            ShardResult.from_dict,
            start,
            fail_fast=False,
        )
        outcomes: List[Optional[JobOutcome]] = [None] * n
        for shard, outcome, n_attempts in zip(shards, shard_outcomes, attempts):
            if isinstance(outcome, JobFailure):
                # The whole shard failed before producing member outcomes
                # (worker crash, timeout, unpicklable dispatch): expand to
                # one per-member failure so accounting stays per job.
                for index in shard.indices:
                    outcomes[index] = replace(
                        outcome, label=_job_label(jobs[index], index), index=index
                    )
            elif outcome is not None:
                for index, member in zip(outcome.indices, outcome.outcomes):
                    if isinstance(member, JobFailure):
                        member = replace(member, attempts=n_attempts)
                    outcomes[index] = member
        return self._report(outcomes, attempts, workers, counters, start)

    # ------------------------------------------------------------------
    # Execution strategies
    # ------------------------------------------------------------------

    def _execute(
        self,
        jobs: List[Any],
        fn: Callable[[Any], Any],
        progress: Optional[ProgressCallback],
        journal,
        result_decoder: Optional[Callable[[Mapping[str, Any]], Any]],
        start: float,
        fail_fast: bool,
    ) -> Tuple[List[Optional[Any]], List[int], int, MetricsRegistry]:
        """Resume from ``journal``, then run the pending jobs inline or
        pooled. Returns ``(outcomes, attempts, workers, counters)`` with
        one outcome slot and one attempt count per job (``None`` and 0
        when it never resolved here). With ``fail_fast`` the first
        failure stops further submission."""
        decode = (
            result_decoder
            if result_decoder is not None
            else lambda record: _dataclass_from_record(JobResult, record)
        )
        n = len(jobs)
        counters = MetricsRegistry()
        outcomes: List[Optional[Any]] = [None] * n
        attempts = [0] * n
        done = 0

        # Resume: merge journaled results before any execution.
        if journal is not None:
            resumed = journal.completed_results()
            for index in sorted(resumed):
                outcomes[index] = decode(resumed[index])
            if resumed:
                counters.counter("journal.resumed_jobs").inc(len(resumed))
            if getattr(journal, "recovered_torn_line", False):
                counters.counter("journal.torn_records_dropped").inc()
            for index in sorted(resumed):
                done += 1
                if progress is not None:
                    progress(done, n, outcomes[index])

        pending = [i for i in range(n) if outcomes[i] is None]
        workers = self._worker_count(len(pending)) if pending else 1
        deadline_at = (
            start + self.suite_deadline if self.suite_deadline is not None else None
        )

        def resolve(index: int, outcome: JobOutcome, n_attempts: int) -> bool:
            """Record one final outcome after ``n_attempts`` attempts;
            True when submission must stop."""
            nonlocal done
            if isinstance(outcome, JobFailure):
                outcome = replace(outcome, attempts=n_attempts)
            outcomes[index] = outcome
            attempts[index] = n_attempts
            done += 1
            if journal is not None and not _failed(outcome):
                journal.record(index, outcome.as_dict())
                counters.counter("journal.recorded").inc()
            if progress is not None:
                progress(done, n, outcome)
            return fail_fast and isinstance(outcome, JobFailure)

        if pending:
            if workers == 1:
                self._run_inline(jobs, fn, pending, resolve, counters, deadline_at)
            else:
                self._run_pool(
                    jobs, fn, pending, resolve, counters, deadline_at, workers
                )
        return outcomes, attempts, workers, counters

    def _report(
        self,
        outcomes: List[Optional[Any]],
        attempts: List[int],
        workers: int,
        counters: MetricsRegistry,
        start: float,
    ) -> SuiteReport:
        """Build the suite's report from its outcome slots and attempt
        counts; under ``on_error="raise"`` a failure raises
        :class:`SuiteError` carrying the report instead."""
        resilience = {
            name: counter.value
            for name, counter in sorted(counters.counters.items())
            if counter.value
        }
        report = SuiteReport(
            results=tuple(
                o
                for o in outcomes
                if o is not None and not isinstance(o, JobFailure)
            ),
            failures=tuple(o for o in outcomes if isinstance(o, JobFailure)),
            n_jobs=len(outcomes),
            workers=workers,
            retries=sum(max(0, a - 1) for a in attempts),
            wall_seconds=perf_counter() - start,
            deadline_exceeded="suite.deadline_hits" in counters.counters,
            resilience=resilience or None,
        )
        if report.failures and self.on_error == "raise":
            first = report.failures[0]
            raise SuiteError(
                f"suite job {first.label!r} failed after {first.attempts} "
                f"attempt(s): {first.error_type}: {first.message}",
                report=report,
            )
        return report

    def _timeout_failure(self, job: Any, index: int, wall: float) -> JobFailure:
        return _failure(
            job, index, "TimeoutError",
            f"job exceeded the per-job timeout of {self.job_timeout} s "
            f"(ran {wall:.3f} s)",
            wall_seconds=wall,
        )

    def _run_inline(
        self,
        jobs: List[ExperimentJob],
        fn: Callable[[ExperimentJob], JobResult],
        pending: List[int],
        resolve: Callable[[int, JobOutcome, int], bool],
        counters: MetricsRegistry,
        deadline_at: Optional[float],
    ) -> None:
        for i in pending:
            n_attempts = 0
            while True:
                if deadline_at is not None and perf_counter() >= deadline_at:
                    counters.counter("suite.deadline_hits").inc()
                    return
                n_attempts += 1
                if self.chaos is not None:
                    # Inline mode has no worker process to kill or stall;
                    # only the worker-side chaos legs apply.
                    plan = self.chaos.plan(i, n_attempts)
                    if plan.delay > 0:
                        counters.counter("chaos.delays").inc()
                        sleep(plan.delay)
                outcome, wall = _attempt(fn, jobs[i], i)
                if (
                    self.job_timeout is not None
                    and wall > self.job_timeout
                    and not isinstance(outcome, JobFailure)
                ):
                    # Inline mode cannot preempt a running job, so the
                    # timeout is applied after the fact.
                    counters.counter("suite.timeouts").inc()
                    outcome = self._timeout_failure(jobs[i], i, wall)
                delay = self._retry_delay(i, n_attempts) if _failed(outcome) else None
                if delay is None:
                    break
                sleep(delay)
            if resolve(i, outcome, n_attempts):
                return

    def _run_pool(
        self,
        jobs: List[ExperimentJob],
        fn: Callable[[ExperimentJob], JobResult],
        pending: List[int],
        resolve: Callable[[int, JobOutcome, int], bool],
        counters: MetricsRegistry,
        deadline_at: Optional[float],
        workers: int,
    ) -> None:
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        queue = deque(pending)
        retry_at: Dict[int, float] = {}       # earliest resubmission time
        submissions: Dict[int, int] = {}      # attempts per job
        failures: Dict[int, int] = {}         # failures charged to budget
        chaos_faults: Dict[int, int] = {}     # budget-exempt injected faults
        # One outstanding job per worker so a submitted job starts
        # immediately and the per-attempt timeout clock measures execution,
        # not queueing.
        busy: Dict[int, _BusyJob] = {}
        resolved: List[Tuple[int, JobOutcome]] = []
        stop_submitting = False

        def spawn() -> _PoolWorker:
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_pool_worker, args=(child_conn,), daemon=True
            )
            process.start()
            child_conn.close()
            return _PoolWorker(process, parent_conn)

        def requeue(index: int, failure: Any, now: float,
                    injected: bool = False) -> None:
            """Every failed attempt lands here (a failed reply, a lost
            worker, an unsendable job): requeue the job if
            :meth:`_retry_delay` allows, else resolve it as failed.

            Chaos-injected kills are budget-exempt up to the policy's
            per-job fault cap and wait only ``retry_backoff.base``."""
            if injected:
                chaos_faults[index] = chaos_faults.get(index, 0) + 1
                injected = chaos_faults[index] <= self.chaos.max_faults_per_job
            if injected:
                delay: Optional[float] = self.retry_backoff.base
            else:
                failures[index] = failures.get(index, 0) + 1
                delay = self._retry_delay(index, failures[index])
            if delay is None:
                resolved.append((index, failure))
                return
            counters.counter("suite.resubmissions").inc()
            retry_at[index] = now + delay
            queue.append(index)

        def lose_worker(index: int, counter: str, now: float) -> None:
            """The one way a busy worker is lost mid-job, whether it died
            (pipe EOF or sentinel exit) or overran ``job_timeout``: count
            it under ``counter``, kill and reap the worker, spawn its
            replacement, then requeue the failed attempt."""
            entry = busy.pop(index)
            counters.counter(counter).inc()
            exitcode = entry.worker.process.exitcode
            entry.kill()
            entry.worker.reap()
            idle.append(spawn())
            wall = now - entry.submitted
            if counter == "suite.timeouts":
                failure = self._timeout_failure(jobs[index], index, wall)
            else:
                failure = _failure(
                    jobs[index], index, "WorkerCrashed",
                    f"worker process exited with code {exitcode} mid-job "
                    "(killed or crashed without raising)",
                    wall_seconds=wall,
                )
            requeue(index, failure, now, entry.chaos_killed)

        idle: List[_PoolWorker] = [spawn() for _ in range(workers)]
        try:
            while busy or (queue and not stop_submitting):
                now = perf_counter()
                if deadline_at is not None and now >= deadline_at:
                    # Budget spent: abandon in-flight work to the cleanup
                    # below and return what completed. Journaled results
                    # are already durable.
                    counters.counter("suite.deadline_hits").inc()
                    return
                while idle and queue and not stop_submitting:
                    # First queued job whose backoff delay has elapsed.
                    for _ in range(len(queue)):
                        i = queue.popleft()
                        if retry_at.get(i, 0.0) <= now:
                            break
                        queue.append(i)
                    else:
                        break
                    worker = idle.pop()
                    submissions[i] = submissions.get(i, 0) + 1
                    plan: Optional[ChaosPlan] = None
                    chaos_delay = 0.0
                    if self.chaos is not None:
                        plan = self.chaos.plan(i, submissions[i])
                        if not plan.any:
                            plan = None
                        elif plan.delay > 0:
                            chaos_delay = plan.delay
                            counters.counter("chaos.delays").inc()
                    message = (fn, jobs[i], i, chaos_delay)
                    try:
                        worker.conn.send(message)
                    except Exception:
                        # Dead pipe (worker died while idle): replace the
                        # worker and retry once; a second failure means the
                        # message itself cannot travel (unpicklable job).
                        worker.kill()
                        worker.reap()
                        worker = spawn()
                        try:
                            worker.conn.send(message)
                        except Exception as exc:
                            idle.append(worker)
                            failure = _failure(
                                jobs[i], i, type(exc).__name__,
                                f"job could not be sent to a worker: {exc}",
                                traceback_module.format_exc(),
                            )
                            requeue(i, failure, now)
                            continue
                    busy[i] = _BusyJob(worker, perf_counter(), plan)
                now = perf_counter()
                # Parent-side chaos legs: scheduled kills and stalls.
                for i, entry in busy.items():
                    plan = entry.plan
                    if plan is None:
                        continue
                    if (
                        plan.kill_after is not None
                        and not entry.chaos_killed
                        and now - entry.submitted >= plan.kill_after
                    ):
                        entry.chaos_killed = True
                        entry.worker.sigkill()
                        counters.counter("chaos.kills").inc()
                    if (
                        plan.stall_after is not None
                        and not entry.stalled
                        and now - entry.submitted >= plan.stall_after
                    ):
                        entry.stalled = True
                        if entry.worker.signal(signal_module.SIGSTOP):
                            entry.resume_at = now + plan.stall_seconds
                            # Credit the stall against the timeout clock.
                            entry.submitted += plan.stall_seconds
                            counters.counter("chaos.stalls").inc()
                    if entry.resume_at is not None and now >= entry.resume_at:
                        entry.resume()
                for i, entry in list(busy.items()):
                    worker = entry.worker
                    # Read the exit code before polling the pipe: a worker
                    # that finished its send and then died still delivered
                    # a real outcome, which takes precedence over the crash.
                    exited = worker.process.exitcode is not None
                    reply = None
                    if worker.conn.poll():
                        try:
                            reply = worker.conn.recv()
                        except (EOFError, OSError):
                            exited = True  # the pipe closed mid-job
                    if reply is not None:
                        del busy[i]
                        # A stalled worker that still replied must not be
                        # parked in the idle pool frozen.
                        entry.resume()
                        _, outcome, _, rss = reply
                        if (
                            self.rss_limit_mb is not None
                            and rss > self.rss_limit_mb * 1024 * 1024
                        ):
                            # Memory watchdog: retire the bloated worker
                            # before it swaps the host.
                            worker.stop()
                            worker.reap()
                            worker = spawn()
                            counters.counter("guard.workers_recycled").inc()
                        idle.append(worker)
                        if _failed(outcome):
                            requeue(i, outcome, now)
                        else:
                            resolved.append((i, outcome))
                    elif exited:
                        lose_worker(i, "suite.worker_crashes", now)
                    elif (
                        self.job_timeout is not None
                        and now - entry.submitted > self.job_timeout
                    ):
                        lose_worker(i, "suite.timeouts", now)
                if resolved:
                    for i, outcome in resolved:
                        if resolve(i, outcome, submissions[i]):
                            stop_submitting = True
                    resolved.clear()
                    continue
                if not busy and stop_submitting:
                    break  # only requeued jobs are left, and none will run
                # Block until a busy worker replies or dies, or until the
                # next parent-side deadline, whichever comes first.
                wake = min(
                    (entry.next_event(self.job_timeout) for entry in busy.values()),
                    default=inf,
                )
                if deadline_at is not None:
                    wake = min(wake, deadline_at)
                if idle and queue and not stop_submitting:
                    # A worker is free and every queued job is backing off.
                    wake = min(wake, min(retry_at.get(i, 0.0) for i in queue))
                ready = [entry.worker.conn for entry in busy.values()]
                ready += [entry.worker.process.sentinel for entry in busy.values()]
                connection_wait(
                    ready, None if wake == inf else max(0.0, wake - perf_counter())
                )
        finally:
            # The one cleanup of every exit, the suite deadline included:
            # busy workers are resumed if stalled and terminated, idle
            # ones asked to stop, then all of them reaped.
            for entry in busy.values():
                entry.kill()
            for worker in idle:
                worker.stop()
            for worker in idle:
                worker.reap()
            for entry in busy.values():
                entry.worker.reap()
