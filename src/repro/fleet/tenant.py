"""Per-tenant workload descriptions for the simulated fleet.

A :class:`TenantLoad` names one tenant (one cloud volume, in the
Alibaba block-storage framing) and carries exactly one workload source:
either a synthetic :class:`~repro.synth.workload.WorkloadProfile` or a
picklable trace source (anything with a ``.load()`` returning a
:class:`~repro.traces.RequestTrace`, e.g. the ingest layer's
``TraceSource``). Fleet jobs multiplex several tenants onto one shared
drive; see :mod:`repro.fleet.multiplex`.

Tenant populations are sampled with :func:`sample_tenants`, which draws
per-tenant intensities from the lifetime family model
(:meth:`~repro.synth.family.FamilyModel.intensity_multipliers`) so the
simulated fleet reproduces the paper's heavy-tailed load skew.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FleetError
from repro.synth.family import FamilyModel
from repro.synth.profiles import get_profile
from repro.synth.workload import WorkloadProfile

DEFAULT_TENANT_PROFILES: Tuple[str, ...] = (
    "web",
    "email",
    "devel",
    "database",
    "fileserver",
)


@dataclass(frozen=True)
class TenantLoad:
    """One tenant's workload: an id plus exactly one workload source."""

    tenant_id: str
    profile: Optional[WorkloadProfile] = None
    trace: Optional[Any] = None

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise FleetError("tenant_id must be a non-empty string")
        if (self.profile is None) == (self.trace is None):
            raise FleetError(
                f"tenant {self.tenant_id!r} needs exactly one workload source "
                "(profile or trace)"
            )

    @property
    def workload_name(self) -> str:
        if self.profile is not None:
            return self.profile.name or "profile"
        return getattr(self.trace, "label", None) or "trace"


def sample_tenants(
    n_tenants: int,
    seed: int = 0,
    profiles: Sequence[str] = DEFAULT_TENANT_PROFILES,
    family: Optional[FamilyModel] = None,
    min_rate: float = 0.5,
    max_rate: float = 2000.0,
) -> Tuple[TenantLoad, ...]:
    """Sample a deterministic tenant population with family-model skew.

    Named profiles are assigned round-robin and each tenant's request
    rate is the profile's base rate scaled by a family-model intensity
    multiplier, clipped to ``[min_rate, max_rate]`` req/s. Deterministic
    in ``seed``; tenant ids are ``t000`` upward.
    """
    if n_tenants <= 0:
        raise FleetError(f"n_tenants must be > 0, got {n_tenants!r}")
    if not profiles:
        raise FleetError("profiles must name at least one workload profile")
    if not 0 < min_rate <= max_rate:
        raise FleetError(
            f"need 0 < min_rate <= max_rate, got {min_rate!r} and {max_rate!r}"
        )
    model = family if family is not None else FamilyModel()
    multipliers = model.intensity_multipliers(n_tenants, seed=seed)
    tenants = []
    for i in range(n_tenants):
        base = get_profile(profiles[i % len(profiles)])
        rate = float(np.clip(base.rate * multipliers[i], min_rate, max_rate))
        tenants.append(TenantLoad(f"t{i:03d}", profile=base.with_rate(rate)))
    return tuple(tenants)
