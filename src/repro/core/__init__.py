"""The paper's contribution: multi-time-scale disk workload characterization.

This package is the analysis layer a storage analyst actually calls. It
consumes the trace containers (:mod:`repro.traces`), drives the disk
substrate (:mod:`repro.disk`) where busy/idle ground truth is needed, and
applies the statistics substrate (:mod:`repro.stats`) to answer the
paper's questions at each time scale:

* *How utilized are the drives?* — :mod:`repro.core.utilization`
* *How much idleness is there, and in what shape?* —
  :mod:`repro.core.idleness`, :mod:`repro.core.busyness`
* *How bursty is the arriving workload across time scales?* —
  :mod:`repro.core.burstiness`
* *How do read and write traffic behave over time?* —
  :mod:`repro.core.traffic`
* *What do the hour- and lifetime-granularity data show across a drive
  population?* — :mod:`repro.core.hour_analysis`,
  :mod:`repro.core.lifetime_analysis`
* *Do the scales tell one consistent story?* —
  :mod:`repro.core.timescales`
"""

from repro._lazy import lazy_exports

#: Public names by defining module, imported on first access (PEP 562).
_EXPORTS = {
    ".summary": ("WorkloadSummary", "summarize_trace"),
    ".utilization": ("UtilizationAnalysis", "analyze_utilization"),
    ".idleness": ("IdlenessAnalysis", "analyze_idleness"),
    ".busyness": ("BusynessAnalysis", "analyze_busyness"),
    ".burstiness": ("BurstinessAnalysis", "analyze_burstiness"),
    ".traffic": ("TrafficDynamics", "analyze_traffic"),
    ".hour_analysis": ("HourScaleAnalysis", "analyze_hour_scale"),
    ".lifetime_analysis": ("FamilyAnalysis", "analyze_family"),
    ".timescales": ("CrossScaleStudy", "MillisecondStudy", "run_millisecond_study"),
    ".background": (
        "BackgroundRunReport", "BackgroundTask", "ScrubPlan", "chunk_size_sweep",
        "plan_media_scrub", "run_in_idle", "scrub_latent_regions",
    ),
    ".comparison": ("ComparisonResult", "compare_studies", "feature_vector"),
    ".latency": (
        "DegradedTailAnalysis", "LatencyAnalysis", "TierTailAnalysis", "analyze_degraded_tail",
        "analyze_latency", "analyze_tier_tail", "tail_inflation",
    ),
    ".prediction": ("IdlePredictor",),
    ".dossier": ("render_family_report", "render_hour_report", "render_study_report"),
    ".spatial_analysis": (
        "SpatialAnalysis", "analyze_spatial", "seek_distance_ecdf", "zone_traffic",
    ),
    ".streaming": ("StreamingCharacterizer", "characterize_events"),
    ".forecast": (
        "ForecastScore", "flat_mean_forecast", "score_forecast", "seasonal_ewma_forecast",
        "seasonal_naive_forecast",
    ),
    ".anomaly": ("DriveAnomaly", "inject_regime_change", "population_anomalies", "self_anomalies"),
    ".suite": ("run_suite", "suite_table"),
    ".backoff": ("BackoffPolicy", "backoff_delays"),
    ".chaos": ("ChaosPlan", "ChaosPolicy", "available_chaos_policies", "get_chaos_policy"),
    ".journal": ("SuiteJournal", "job_fingerprint", "suite_fingerprint"),
    ".runner": (
        "ExperimentJob", "ExperimentRunner", "JobFailure", "JobResult", "SuiteReport",
        "derive_seeds", "experiment_matrix", "run_job",
    ),
    ".report": ("Table", "ascii_plot", "render_series"),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
