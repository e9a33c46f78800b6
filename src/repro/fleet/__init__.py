"""Fleet-scale multi-tenant simulation.

Promotes the lifetime family model from a distribution sampler to a
simulated fleet: per-tenant workload profiles multiplexed onto shared
drives through a deterministic placement layer, executed by the sharded
runner mode, with tenant-level QoS, noisy-neighbor interference and
fleet-wide scrub budgeting on top.
"""

from repro._lazy import lazy_exports

#: Public names by defining module, imported on first access (PEP 562).
_EXPORTS = {
    ".multiplex": (
        "TenantColumns", "combine_columns", "synthesize_tenant_columns", "volume_layout",
    ),
    ".placement": ("PLACEMENT_POLICIES", "FleetPlacement", "place_tenants"),
    ".qos": ("interference_report", "qos_entry", "tenant_qos_from_result"),
    ".run": ("FleetPlan", "FleetSpec", "build_fleet_plan"),
    ".scrub": ("FleetScrubPlan", "allocate_idle_budget", "plan_fleet_scrub"),
    ".tenant": ("DEFAULT_TENANT_PROFILES", "TenantLoad", "sample_tenants"),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
