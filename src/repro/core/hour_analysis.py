"""Hour-scale analysis: drive populations over days and weeks.

The Hour traces show each drive's traffic with per-hour resolution over
weeks. The interesting structure lives at two levels:

* **within a drive** — diurnal/weekly cycles and hour-scale burstiness
  (peak-to-mean ratios far above 1);
* **across drives** — order-of-magnitude spread in mean load and a
  sub-population spending many *consecutive* hours at full bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.errors import AnalysisError
from repro.stats.ecdf import Ecdf
from repro.traces.hourly import HourlyDataset
from repro.units import HOURS_PER_WEEK


@dataclass(frozen=True)
class HourScaleAnalysis:
    """Population-level characterization of an hourly dataset.

    Attributes
    ----------
    n_drives, hours:
        Dataset shape (hours = common observed length).
    mean_throughput_ecdf, peak_throughput_ecdf:
        Cross-drive ECDFs of mean and peak-hour throughput (bytes/s).
    peak_to_mean_ecdf:
        Cross-drive ECDF of each drive's peak-to-mean ratio.
    write_fraction_ecdf:
        Cross-drive ECDF of write byte share.
    saturated_hour_fraction:
        Share of all drive-hours at/above the saturation threshold.
    saturated_drive_fraction:
        Share of drives with at least one saturated hour.
    multi_hour_saturated_fraction:
        Share of drives with a saturated stretch of >= 3 consecutive
        hours — the paper's "for hours at a time" population.
    longest_stretches:
        Per-drive longest consecutive saturated-hour run.
    threshold, bandwidth:
        Parameters the saturation statistics used.
    """

    n_drives: int
    hours: int
    mean_throughput_ecdf: Ecdf
    peak_throughput_ecdf: Ecdf
    peak_to_mean_ecdf: Ecdf
    write_fraction_ecdf: Ecdf
    saturated_hour_fraction: float
    saturated_drive_fraction: float
    multi_hour_saturated_fraction: float
    longest_stretches: Dict[str, int]
    threshold: float
    bandwidth: float


def analyze_hour_scale(
    dataset: HourlyDataset,
    bandwidth: float,
    threshold: float = 0.9,
    multi_hour: int = 3,
) -> HourScaleAnalysis:
    """Characterize an hourly dataset against a drive ``bandwidth``
    (bytes/second)."""
    if len(dataset) == 0:
        raise AnalysisError("hourly dataset is empty")
    if bandwidth <= 0:
        raise AnalysisError(f"bandwidth must be > 0, got {bandwidth!r}")
    if multi_hour < 1:
        raise AnalysisError(f"multi_hour must be >= 1, got {multi_hour!r}")
    stretches = dataset.longest_saturated_stretches(bandwidth, threshold)
    values = np.array(list(stretches.values()))
    return HourScaleAnalysis(
        n_drives=len(dataset),
        hours=dataset.hours,
        mean_throughput_ecdf=Ecdf(dataset.mean_throughputs()),
        peak_throughput_ecdf=Ecdf(dataset.peak_throughputs()),
        peak_to_mean_ecdf=Ecdf([t.peak_to_mean for t in dataset]),
        write_fraction_ecdf=Ecdf([t.write_byte_fraction for t in dataset]),
        saturated_hour_fraction=dataset.saturated_hour_fraction(bandwidth, threshold),
        saturated_drive_fraction=float(np.mean(values >= 1)),
        multi_hour_saturated_fraction=float(np.mean(values >= multi_hour)),
        longest_stretches=stretches,
        threshold=float(threshold),
        bandwidth=float(bandwidth),
    )


def population_weekly_curve(dataset: HourlyDataset) -> np.ndarray:
    """Mean traffic per hour-of-week averaged over all drives (length
    168, NaN where never observed) — the paper's diurnal-pattern figure."""
    if len(dataset) == 0:
        raise AnalysisError("hourly dataset is empty")
    curves = np.stack([t.fold_weekly() for t in dataset])
    # np.nanmean's arithmetic without its "Mean of empty slice" warning
    # for hours no drive observed.
    unobserved = np.isnan(curves)
    counts = (~unobserved).sum(axis=0)
    sums = np.where(unobserved, 0.0, curves).sum(axis=0)
    return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


def diurnal_peak_ratio(dataset: HourlyDataset) -> float:
    """Busiest to quietest hour-of-week ratio of the population curve —
    one number summarizing how strong the weekly cycle is."""
    curve = population_weekly_curve(dataset)
    finite = curve[np.isfinite(curve)]
    if finite.size < HOURS_PER_WEEK // 2 or finite.min() <= 0:
        return float("nan")
    return float(finite.max() / finite.min())
