"""Disk substrate: a mechanical drive model and trace-replay simulator.

The paper measures utilization and idleness on real enterprise drives.
Those drives are unavailable, so this subpackage provides the substitute:
a zoned-geometry mechanical model (seek curve, rotational latency, zoned
transfer rates, on-board cache) of a late-2000s enterprise drive, a
queueing scheduler, and an event-driven simulator that replays a
:class:`~repro.traces.RequestTrace` and produces per-request timings plus
the busy/idle timeline the utilization and idleness analyses consume.
"""

from repro._lazy import lazy_exports

#: Public names by defining module, imported on first access (PEP 562).
_EXPORTS = {
    ".geometry": ("DiskGeometry", "Zone"),
    ".mechanics": ("SeekProfile", "rotation_time", "transfer_time"),
    ".cache": ("CacheConfig", "DiskCache"),
    ".scheduler": ("FcfsScheduler", "SstfScheduler", "ScanScheduler", "make_scheduler"),
    ".drive": ("DiskDrive", "DriveSpec", "cheetah_10k", "cheetah_15k", "nearline_7200"),
    ".faults": (
        "FaultEvent", "FaultModel", "FaultProfile", "available_fault_profiles",
        "get_fault_profile", "light_faults", "moderate_faults", "severe_faults",
    ),
    ".simulator": ("DiskSimulator", "SimulationResult"),
    ".timeline": ("BusyIdleTimeline",),
    ".power": (
        "EnergyReport", "PowerProfile", "baseline_energy", "evaluate_spin_down",
        "sweep_timeouts",
    ),
    ".array": ("StripedArray", "member_imbalance"),
    ".raid5": ("Raid5Array", "write_amplification"),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
