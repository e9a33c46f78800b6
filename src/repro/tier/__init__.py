"""Hybrid SSD/HDD tiered storage: an SSD cache tier fronting the drive.

The package provides the flash latency model (:class:`SsdSpec`),
pluggable chunk-heat policies (:func:`make_heat_policy`), the epoch
migration planner (:class:`MigrationEngine`) and the engine-compatible
:class:`TieredDevice` the simulator drives. Configure a tier with
:class:`TierConfig` and hand it to :class:`~repro.disk.simulator
.DiskSimulator` (``tier=``) or :class:`~repro.core.runner.ExperimentJob`.
"""

from repro._lazy import lazy_exports

#: Public names by defining module, imported on first access (PEP 562).
_EXPORTS = {
    ".device": ("TIER_MODES", "TierConfig", "TierStats", "TieredDevice"),
    ".migration": ("MigrationEngine", "MigrationPlan"),
    ".policy": (
        "HeatPolicy", "LruPolicy", "LfuPolicy", "RecencyFrequencyPolicy", "LearnedPolicy",
        "available_heat_policies", "make_heat_policy",
    ),
    ".ssd": ("SsdSpec",),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
