"""Statistics substrate: the estimators the characterization is built on.

Everything here is implemented from first principles on numpy so the
analysis layer has no dependency beyond it: empirical distributions,
moments (batch and streaming), autocorrelation, the index of dispersion
for counts, Hurst-parameter estimators, heavy-tail diagnostics,
maximum-likelihood distribution fits, and inequality measures (Lorenz
curve, Gini coefficient) for the cross-family variability analyses.
"""

from repro._lazy import lazy_exports

#: Public names by defining module, imported on first access (PEP 562).
_EXPORTS = {
    ".ecdf": ("Ecdf",),
    ".histogram": ("Histogram", "log_bin_edges"),
    ".moments": (
        "StreamingMoments", "coefficient_of_variation", "describe", "SampleDescription",
        "sorted_quantiles",
    ),
    ".autocorr": ("autocorrelation", "integrated_autocorrelation_time"),
    ".dispersion": ("index_of_dispersion", "idc_curve"),
    ".hurst": ("hurst_aggregate_variance", "hurst_rescaled_range", "variance_time_curve"),
    ".tail": ("hill_estimator", "tail_heaviness_ratio"),
    ".fitting": (
        "ExponentialFit", "LognormalFit", "ParetoFit", "fit_exponential", "fit_lognormal",
        "fit_pareto", "best_fit",
    ),
    ".inequality": ("gini_coefficient", "lorenz_curve", "top_share"),
    ".queueing": (
        "Mg1Prediction", "burstiness_penalty", "mg1_predict", "mg1_predict_from_samples",
        "mg1_vacation_penalty", "mg1_with_vacations",
    ),
    ".periodicity": ("PeriodEstimate", "dominant_period", "remove_seasonal", "seasonal_strength"),
    ".bootstrap": ("BootstrapInterval", "block_bootstrap_ci", "bootstrap_ci"),
    ".crosscorr": ("cross_correlation", "peak_lag"),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
