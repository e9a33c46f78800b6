"""Drive-level fault injection: the degraded-mode substrate.

The simulator's drive is otherwise perfect — every request succeeds on
its first media access. Real enterprise drives of the paper's era are
not: they hit latent sector errors laid down long before the workload
arrives, suffer transient media errors under vibration and thermal
stress, retry with escalating recovery steps, reassign unrecoverable
sectors to a spare area near the spindle, and scrub media during idle
time to find latent errors before the host does. All of that shapes the
*tail* of the response-time distribution, which is exactly the region
the paper's burstiness and idleness findings bear on.

:class:`FaultProfile` is the frozen recipe (how broken is the drive);
:class:`FaultModel` is the stateful instance the :class:`~repro.disk.drive.DiskDrive`
consults on every media access. Everything is driven by
``numpy.random.SeedSequence``-derived generators split into a *layout*
stream (where the bad regions are — fixed for the model's lifetime) and
an *access* stream (transient draws and retry outcomes — rewound by
:meth:`FaultModel.reset` so repeated runs are bit-identical), which also
makes fault injection independent of how jobs are spread over runner
workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.disk.geometry import DiskGeometry
from repro.errors import FaultInjectionError
from repro.units import ms

#: Salt mixed into the SeedSequence entropy so fault streams never collide
#: with the drive's rotational-latency RNG for the same seed.
_FAULT_STREAM_SALT = 0x0FA117


@dataclass(frozen=True)
class FaultProfile:
    """Recipe for a drive's fault population and recovery behaviour.

    Attributes
    ----------
    name:
        Label carried into job labels and reports.
    latent_region_count:
        Number of LBA regions holding latent sector errors. A request
        touching one triggers the retry ladder; on recovery the region is
        reassigned to the spare area (see :class:`FaultModel`).
    transient_error_prob:
        Per-media-access probability of a transient error (recoverable by
        retry, no reassignment).
    slow_region_count:
        Number of degraded-but-readable regions whose media accesses are
        stretched by ``slow_factor`` (weak heads, adjacent-track noise).
    region_sectors:
        Granularity of the fault map in sectors.
    slow_factor:
        Service-time multiplier inside slow regions (``>= 1``).
    max_retries:
        Bounded retry attempts before a request is declared failed.
    retry_penalty:
        Service-time cost of the first retry, seconds; attempt ``i``
        costs ``retry_penalty * backoff_factor**(i-1)`` (the escalating
        recovery steps of a real drive's error-recovery table).
    backoff_factor:
        Exponential escalation of per-attempt cost (``>= 1``).
    retry_success_prob:
        Probability each retry attempt succeeds.
    seed:
        Optional fixed entropy for the fault streams. ``None`` (default)
        derives them from the simulator seed, so distinct jobs see
        distinct fault layouts while identical (seeded) runs stay
        bit-identical.
    """

    name: str = "custom"
    latent_region_count: int = 0
    transient_error_prob: float = 0.0
    slow_region_count: int = 0
    region_sectors: int = 4096
    slow_factor: float = 3.0
    max_retries: int = 4
    retry_penalty: float = ms(5.0)
    backoff_factor: float = 2.0
    retry_success_prob: float = 0.7
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.region_sectors <= 0:
            raise FaultInjectionError(
                f"region_sectors must be > 0, got {self.region_sectors!r}"
            )
        if self.latent_region_count < 0 or self.slow_region_count < 0:
            raise FaultInjectionError("region counts must be >= 0")
        if not 0.0 <= self.transient_error_prob <= 1.0:
            raise FaultInjectionError(
                f"transient_error_prob must be in [0, 1], got "
                f"{self.transient_error_prob!r}"
            )
        if not 0.0 <= self.retry_success_prob <= 1.0:
            raise FaultInjectionError(
                f"retry_success_prob must be in [0, 1], got "
                f"{self.retry_success_prob!r}"
            )
        if self.slow_factor < 1.0:
            raise FaultInjectionError(
                f"slow_factor must be >= 1, got {self.slow_factor!r}"
            )
        if self.max_retries < 1:
            raise FaultInjectionError(
                f"max_retries must be >= 1, got {self.max_retries!r}"
            )
        if self.retry_penalty < 0:
            raise FaultInjectionError(
                f"retry_penalty must be >= 0, got {self.retry_penalty!r}"
            )
        if self.backoff_factor < 1.0:
            raise FaultInjectionError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )

    @property
    def active(self) -> bool:
        """Whether this profile can produce any fault at all."""
        return (
            self.latent_region_count > 0
            or self.slow_region_count > 0
            or self.transient_error_prob > 0.0
        )


def light_faults() -> FaultProfile:
    """A healthy-but-aging drive: a few latent errors, rare transients."""
    return FaultProfile(
        name="light",
        latent_region_count=4,
        transient_error_prob=1e-4,
        slow_region_count=2,
        slow_factor=2.0,
    )


def moderate_faults() -> FaultProfile:
    """A drive the fleet-anomaly analysis would start flagging."""
    return FaultProfile(
        name="moderate",
        latent_region_count=16,
        transient_error_prob=2e-3,
        slow_region_count=8,
        slow_factor=3.0,
    )


def severe_faults() -> FaultProfile:
    """A drive on its way out: dense latent errors, frequent transients,
    large degraded areas. Expect a visibly inflated latency tail."""
    return FaultProfile(
        name="severe",
        latent_region_count=48,
        transient_error_prob=2e-2,
        slow_region_count=24,
        slow_factor=4.0,
        retry_success_prob=0.6,
    )


_PROFILES = {
    "light": light_faults,
    "moderate": moderate_faults,
    "severe": severe_faults,
}


def available_fault_profiles() -> Dict[str, FaultProfile]:
    """The built-in fault profiles by name."""
    return {name: factory() for name, factory in _PROFILES.items()}


def get_fault_profile(name: str) -> FaultProfile:
    """Look up a built-in fault profile by name."""
    try:
        return _PROFILES[name]()
    except KeyError:
        raise FaultInjectionError(
            f"unknown fault profile {name!r}; available: {sorted(_PROFILES)}"
        ) from None


@dataclass(frozen=True)
class FaultEvent:
    """One request's encounter with the fault model.

    ``penalty`` is the total extra service time attributable to the
    fault (retries plus slow-region stretch), seconds. ``index`` is the
    request's position in the trace, filled in by the simulator
    (``-1`` while the event is still drive-local).
    """

    kind: str  # 'latent' | 'transient' | 'slow'
    lba: int
    region: int
    retries: int
    penalty: float
    recovered: bool
    reassigned: bool
    index: int = -1


class FaultModel:
    """The stateful fault map one drive consults on every media access.

    Parameters
    ----------
    profile:
        The :class:`FaultProfile` recipe.
    geometry:
        The drive's :class:`~repro.disk.geometry.DiskGeometry`; region
        layout and the spare-area placement are derived from it.
    seed:
        Entropy for the fault streams when ``profile.seed`` is ``None``
        (the simulator passes its own seed here).

    The LBA space is divided into ``profile.region_sectors``-sized
    regions. The layout stream places the latent and slow regions once,
    at construction; the access stream drives transient draws and retry
    outcomes and is rewound by :meth:`reset` so repeated runs of the same
    model are bit-identical. Reassignment relocates a recovered latent
    region to a spare slot on the innermost cylinders (via
    :meth:`DiskGeometry.first_lba_of_cylinder`), so every later access to
    that region seeks to the spare area — degraded-mode geometry, not
    just a time penalty.
    """

    def __init__(
        self,
        profile: FaultProfile,
        geometry: DiskGeometry,
        seed: Optional[int] = None,
    ) -> None:
        self.profile = profile
        self.geometry = geometry
        capacity = geometry.capacity_sectors
        self.n_regions = capacity // profile.region_sectors
        if self.n_regions < 1:
            raise FaultInjectionError(
                f"region_sectors {profile.region_sectors} exceeds drive "
                f"capacity {capacity}"
            )
        # The tail of the region index space doubles as the spare area
        # (innermost cylinders); keep injected faults out of it.
        drawable = self.n_regions - profile.latent_region_count
        n_faulty = profile.latent_region_count + profile.slow_region_count
        if n_faulty > max(drawable, 0):
            raise FaultInjectionError(
                f"profile {profile.name!r} wants {n_faulty} faulty regions "
                f"but the drive only has {self.n_regions} regions of "
                f"{profile.region_sectors} sectors"
            )
        entropy = profile.seed if profile.seed is not None else (seed or 0)
        root = np.random.SeedSequence(
            [_FAULT_STREAM_SALT, int(entropy) & 0xFFFFFFFFFFFFFFFF]
        )
        layout_ss, self._access_ss = root.spawn(2)
        layout_rng = np.random.default_rng(layout_ss)
        if n_faulty:
            chosen = layout_rng.choice(drawable, size=n_faulty, replace=False)
        else:
            chosen = np.zeros(0, dtype=np.int64)
        self._latent = frozenset(
            int(r) for r in chosen[: profile.latent_region_count]
        )
        self._slow = frozenset(
            int(r) for r in chosen[profile.latent_region_count:]
        )
        self._repairs: Dict[int, float] = {}
        self._rng = np.random.default_rng(self._access_ss)
        self._reassigned: Dict[int, int] = {}
        self._next_spare = 0
        # Retry ladder shared with the suite runner's retry path
        # (repro.core.backoff); imported lazily because repro.core's
        # package init imports this module back. Repeated-multiplication
        # schedule, bit-identical to the historical inline loop.
        from repro.core.backoff import backoff_delays

        self._retry_costs = backoff_delays(
            profile.retry_penalty, profile.backoff_factor, profile.max_retries
        )
        #: Optional :class:`~repro.obs.Observer`; attached by the
        #: simulator. Pure accounting — fault decisions and RNG draws are
        #: identical with or without it (asserted by tests).
        self.obs = None

    def reset(self) -> None:
        """Rewind per-run state: the access RNG and the reassignment map.

        Layout and any scheduled repairs survive — they describe the
        drive and the scrub plan, not one run's history.
        """
        self._rng = np.random.default_rng(self._access_ss)
        self._reassigned = {}
        self._next_spare = 0

    # ------------------------------------------------------------------
    # Layout queries
    # ------------------------------------------------------------------

    def latent_regions(self) -> Tuple[int, ...]:
        """The latent-error region indices, sorted."""
        return tuple(sorted(self._latent))

    def slow_regions(self) -> Tuple[int, ...]:
        """The slow/degraded region indices, sorted."""
        return tuple(sorted(self._slow))

    def unrepaired_latent_regions(self) -> Tuple[int, ...]:
        """Latent regions with no scheduled repair — the scrub worklist."""
        return tuple(sorted(self._latent - set(self._repairs)))

    def region_of(self, lba: int) -> int:
        """The fault-map region containing ``lba``."""
        return int(lba) // self.profile.region_sectors

    # ------------------------------------------------------------------
    # Scrub integration
    # ------------------------------------------------------------------

    def schedule_repairs(self, repair_times: Mapping[int, float]) -> None:
        """Declare latent regions repaired from the given times onward.

        This is how a media scrub takes effect: accesses at ``now >=
        repair_times[region]`` no longer trigger the region's latent
        error. Unknown regions are rejected rather than silently kept.
        """
        for region, when in repair_times.items():
            if region not in self._latent:
                raise FaultInjectionError(
                    f"region {region!r} is not a latent-error region"
                )
            if when < 0:
                raise FaultInjectionError(
                    f"repair time must be >= 0, got {when!r}"
                )
        self._repairs.update(
            {int(r): float(t) for r, t in repair_times.items()}
        )

    def clear_repairs(self) -> None:
        """Forget every scheduled repair (back to the unscrubbed drive)."""
        self._repairs = {}

    # ------------------------------------------------------------------
    # The per-access hook the drive calls
    # ------------------------------------------------------------------

    def effective_lba(self, lba: int, nsectors: int = 1) -> int:
        """Where the heads actually go for ``lba``: the original address,
        or its spare-area relocation if the region was reassigned."""
        if not self._reassigned:
            # Nothing relocated yet — skip the region arithmetic on the
            # per-access hot path (most runs never reassign at all).
            return lba
        slot = self._reassigned.get(int(lba) // self.profile.region_sectors)
        if slot is None:
            return lba
        spare_cylinder = self.geometry.total_cylinders - 1 - slot
        base = self.geometry.first_lba_of_cylinder(spare_cylinder)
        offset = int(lba) % self.profile.region_sectors
        ceiling = self.geometry.capacity_sectors - int(nsectors)
        return min(base + offset, max(ceiling, 0))

    def _repaired(self, region: int, now: float) -> bool:
        when = self._repairs.get(region)
        return when is not None and now >= when

    def _reassign(self, region: int) -> bool:
        if self._next_spare >= self.profile.latent_region_count:
            return False  # spare area exhausted (cannot happen in practice)
        self._reassigned[region] = self._next_spare
        self._next_spare += 1
        return True

    def on_media_access(
        self, lba: int, nsectors: int, base_service: float, now: float
    ) -> Tuple[float, Optional[FaultEvent]]:
        """Apply fault semantics to one media access.

        Returns ``(service_seconds, event)`` where ``service_seconds``
        replaces the healthy service time and ``event`` is ``None`` for
        an untouched access.
        """
        profile = self.profile
        service = float(base_service)
        first = int(lba) // profile.region_sectors
        last = (int(lba) + int(nsectors) - 1) // profile.region_sectors
        if first == last and first not in self._slow and first not in self._latent:
            # The common access: one region, neither slow nor latent, so
            # only the transient draw below can fault it.
            slow_hit = fault_region = None
        else:
            touched = range(first, last + 1)
            slow_hit = next((r for r in touched if r in self._slow), None)
            if slow_hit is not None:
                service *= profile.slow_factor
            fault_region = next(
                (
                    r
                    for r in touched
                    if r in self._latent
                    and r not in self._reassigned
                    and not self._repaired(r, now)
                ),
                None,
            )
        kind: Optional[str] = None
        if fault_region is not None:
            kind = "latent"
        elif (
            profile.transient_error_prob > 0.0
            and self._rng.random() < profile.transient_error_prob
        ):
            kind = "transient"
            fault_region = first

        obs = self.obs
        observing = obs is not None and obs.enabled
        if kind is None:
            if slow_hit is None:
                return service, None
            if observing:
                obs.metrics.counter("faults.slow_hits").inc()
                obs.emit(
                    "slow_region", now, "faults",
                    lba=int(lba), region=int(slow_hit),
                    penalty=service - float(base_service),
                )
            return service, FaultEvent(
                kind="slow",
                lba=int(lba),
                region=int(slow_hit),
                retries=0,
                penalty=service - float(base_service),
                recovered=True,
                reassigned=False,
            )

        retries = 0
        recovered = False
        for cost in self._retry_costs:
            retries += 1
            service += cost
            if self._rng.random() < profile.retry_success_prob:
                recovered = True
                break

        reassigned = False
        if kind == "latent" and recovered:
            reassigned = self._reassign(fault_region)

        if observing:
            obs.metrics.counter("faults.retries").inc(retries)
            if slow_hit is not None:
                obs.metrics.counter("faults.slow_hits").inc()
            obs.metrics.counter(
                "faults.recovered" if recovered else "faults.hard_failures"
            ).inc()
            obs.emit(
                "retry", now, "faults",
                fault_kind=kind, lba=int(lba), region=int(fault_region),
                retries=retries, recovered=recovered,
                penalty=service - float(base_service),
            )
            if reassigned:
                obs.metrics.counter("faults.reassignments").inc()
                obs.emit(
                    "reassignment", now, "faults",
                    region=int(fault_region),
                    spare_slot=self._reassigned[fault_region],
                )

        return service, FaultEvent(
            kind=kind,
            lba=int(lba),
            region=int(fault_region),
            retries=retries,
            penalty=service - float(base_service),
            recovered=recovered,
            reassigned=reassigned,
        )

    def __repr__(self) -> str:
        return (
            f"FaultModel(profile={self.profile.name!r}, "
            f"regions={self.n_regions}, latent={len(self._latent)}, "
            f"slow={len(self._slow)}, reassigned={len(self._reassigned)}, "
            f"repairs={len(self._repairs)})"
        )
