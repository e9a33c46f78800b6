"""Workload synthesis: statistically faithful substitutes for the paper's
proprietary trace sets.

The paper's Millisecond, Hour and Lifetime traces came from instrumented
production drives and were never released. This subpackage generates
synthetic equivalents whose *statistical structure* matches what the
paper (and the authors' related published work) reports:

* arrival processes from memoryless (Poisson) to bursty-at-all-scales
  (heavy-tailed ON/OFF, MMPP, b-model multiplicative cascade, and
  fractional-Gaussian-noise rate modulation) — :mod:`repro.synth.arrivals`
  and :mod:`repro.synth.selfsimilar`;
* disk-realistic spatial (LBA), size and read/write-mix processes —
  :mod:`repro.synth.spatial`, :mod:`repro.synth.sizes`,
  :mod:`repro.synth.mix`;
* named enterprise workload profiles gluing those together —
  :mod:`repro.synth.workload` and :mod:`repro.synth.profiles`;
* hour-counter and lifetime/family generators for the two coarser
  granularities — :mod:`repro.synth.hourly` and :mod:`repro.synth.family`.
"""

from repro._lazy import lazy_exports

#: Public names by defining module, imported on first access (PEP 562).
_EXPORTS = {
    ".arrivals": (
        "bmodel_arrivals", "mmpp_arrivals", "onoff_arrivals", "pareto_sample",
        "poisson_arrivals",
    ),
    ".selfsimilar": ("arrivals_from_counts", "fgn_counts", "superposed_onoff_arrivals"),
    ".spatial": ("SequentialRuns", "UniformSpatial", "ZipfHotspots"),
    ".sizes": ("FixedSizes", "LognormalSizes", "MixtureSizes"),
    ".mix": ("BernoulliMix", "MarkovMix"),
    ".workload": ("ArrivalSpec", "WorkloadProfile"),
    ".profiles": ("available_profiles", "get_profile"),
    ".hourly": ("HourlyWorkloadModel",),
    ".family": ("FamilyModel",),
    ".calibrate": (
        "TraceFingerprint", "TraceFit", "TwinValidation", "calibrate_profile",
        "calibration_report", "fingerprint", "fit_from_trace", "validate_twin",
    ),
    ".diurnal": ("DiurnalDay", "default_day_curve", "hourly_from_trace"),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
