"""Build and run a simulated fleet: tenants → placement → sharded suite.

:class:`FleetSpec` is the one-stop description of a fleet experiment;
:func:`build_fleet_plan` turns it into concrete
:class:`~repro.core.runner.ExperimentJob` rows (one per non-empty
drive, each carrying its tenant set and a per-drive seed spawned from
the fleet seed) and :func:`run_fleet` executes them through the sharded
runner mode so drives are partitioned across workers and merged into
one :class:`~repro.core.runner.SuiteReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from repro.core.runner import ExperimentJob, ExperimentRunner, SuiteReport, derive_seeds
from repro.disk.drive import DriveSpec
from repro.errors import FleetError
from repro.fleet.placement import FleetPlacement, place_tenants
from repro.fleet.tenant import TenantLoad

# ``run_job`` imports the fleet job path on first use. Importing it here
# as well lets the workers a fleet run forks inherit it instead of each
# importing its own copy.
import repro.fleet.multiplex  # noqa: F401
import repro.fleet.qos  # noqa: F401


@dataclass(frozen=True)
class FleetSpec:
    """Everything needed to simulate a multi-tenant fleet."""

    n_drives: int
    tenants: Tuple[TenantLoad, ...]
    drive: DriveSpec
    placement: str = "roundrobin"
    scheduler: str = "fcfs"
    span: float = 60.0
    seed: int = 0
    queue_depth: Optional[int] = None
    faults: Optional[Any] = None
    tier: Optional[Any] = None
    obs_level: str = "off"
    interference: bool = False

    def __post_init__(self) -> None:
        if self.n_drives < 1:
            raise FleetError(f"n_drives must be >= 1, got {self.n_drives!r}")
        if not self.tenants:
            raise FleetError("a fleet needs at least one tenant")
        if self.span <= 0:
            raise FleetError(f"span must be > 0, got {self.span!r}")


@dataclass(frozen=True)
class FleetPlan:
    """Placement plus the per-drive jobs it induces.

    ``drive_indices[i]`` is the physical drive number behind
    ``jobs[i]`` (drives with no tenants get no job).
    """

    spec: FleetSpec
    placement: FleetPlacement
    jobs: Tuple[ExperimentJob, ...] = field(default_factory=tuple)
    drive_indices: Tuple[int, ...] = field(default_factory=tuple)


def build_fleet_plan(spec: FleetSpec) -> FleetPlan:
    """Place tenants and build one job per occupied drive."""
    placement = place_tenants(spec.tenants, spec.n_drives, policy=spec.placement)
    seeds = derive_seeds(spec.seed, spec.n_drives)
    jobs = []
    drive_indices = []
    for d, assigned in enumerate(placement.assignments):
        if not assigned:
            continue
        jobs.append(
            ExperimentJob(
                profile=None,
                drive=spec.drive,
                scheduler=spec.scheduler,
                seed=seeds[d],
                span=spec.span,
                queue_depth=spec.queue_depth,
                faults=spec.faults,
                tier=spec.tier,
                obs_level=spec.obs_level,
                tenants=placement.tenants_on(d, spec.tenants),
                interference=spec.interference,
            )
        )
        drive_indices.append(d)
    return FleetPlan(
        spec=spec,
        placement=placement,
        jobs=tuple(jobs),
        drive_indices=tuple(drive_indices),
    )


def run_fleet(
    spec: FleetSpec,
    workers: Optional[int] = None,
    shard_size: int = 4,
    max_retries: int = 0,
    on_error: str = "raise",
    chaos: Optional[Any] = None,
    journal: Optional[Any] = None,
    progress: Optional[Any] = None,
) -> SuiteReport:
    """Run a fleet spec through the sharded runner and merge the report."""
    plan = build_fleet_plan(spec)
    runner = ExperimentRunner(
        workers=workers,
        max_retries=max_retries,
        on_error=on_error,
        chaos=chaos,
    )
    return runner.run_sharded(
        plan.jobs, shard_size=shard_size, journal=journal, progress=progress
    )
