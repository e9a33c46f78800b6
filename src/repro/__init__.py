"""repro: multi-time-scale disk-level workload characterization.

A production-quality reproduction of Riska & Riedel, *Evaluation of
disk-level workloads at different time-scales* (IISWC 2009), built
entirely from scratch:

* :mod:`repro.traces` — containers for the three trace granularities
  (Millisecond per-request, Hour counters, Lifetime family records);
* :mod:`repro.synth` — statistically calibrated synthetic generators
  standing in for the paper's proprietary enterprise traces;
* :mod:`repro.disk` — a mechanical drive model and trace-replay
  simulator providing busy/idle ground truth;
* :mod:`repro.stats` — the estimators (ECDF, IDC, Hurst, tail, Gini, ...);
* :mod:`repro.core` — the characterization framework itself: utilization,
  idleness, busy periods, burstiness across scales, read/write dynamics,
  hour- and lifetime-scale population analyses, cross-scale consistency;
* :mod:`repro.cli` — the ``repro-workloads`` command.

Quickstart::

    from repro import cheetah_10k, get_profile, run_millisecond_study

    drive = cheetah_10k()
    study = run_millisecond_study(get_profile("web"), drive, span=600.0)
    print(study.utilization.overall, study.burstiness.hurst_variance)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: Public names by defining module, imported on first access (PEP 562).
_EXPORTS = {
    ".errors": ("ReproError",),
    ".traces.request": ("DiskRequest",),
    ".traces.millisecond": ("RequestTrace",),
    ".traces.hourly": ("HourlyTrace", "HourlyDataset"),
    ".traces.lifetime": ("LifetimeRecord", "DriveFamilyDataset"),
    ".synth.workload": ("ArrivalSpec", "WorkloadProfile"),
    ".synth.profiles": ("available_profiles", "get_profile"),
    ".synth.hourly": ("HourlyWorkloadModel",),
    ".synth.family": ("FamilyModel",),
    ".disk.drive": ("DriveSpec", "DiskDrive", "cheetah_10k", "cheetah_15k", "nearline_7200"),
    ".disk.simulator": ("DiskSimulator", "SimulationResult"),
    ".disk.timeline": ("BusyIdleTimeline",),
    ".core.summary": ("WorkloadSummary", "summarize_trace"),
    ".core.utilization": ("UtilizationAnalysis", "analyze_utilization"),
    ".core.idleness": ("IdlenessAnalysis", "analyze_idleness"),
    ".core.busyness": ("BusynessAnalysis", "analyze_busyness"),
    ".core.burstiness": ("BurstinessAnalysis", "analyze_burstiness"),
    ".core.traffic": ("TrafficDynamics", "analyze_traffic"),
    ".core.hour_analysis": ("HourScaleAnalysis", "analyze_hour_scale"),
    ".core.lifetime_analysis": ("FamilyAnalysis", "analyze_family"),
    ".core.timescales": ("CrossScaleStudy", "MillisecondStudy", "run_millisecond_study"),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
__all__.insert(0, "__version__")
