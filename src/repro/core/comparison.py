"""Cross-workload comparison: feature vectors and similarity.

Once several workloads have been characterized, the natural question is
which of them behave alike — whether two traced servers can share one
provisioning model, or which synthetic profile is closest to a newly
traced machine. This module turns a :class:`MillisecondStudy` into a
fixed feature vector and compares studies by z-scored Euclidean
distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.timescales import MillisecondStudy
from repro.errors import AnalysisError

#: Feature order used by :func:`feature_vector`.
FEATURE_NAMES: Tuple[str, ...] = (
    "log10_request_rate",
    "utilization",
    "write_byte_fraction",
    "sequentiality",
    "log10_interarrival_cv",
    "hurst",
    "idle_top_decile_share",
)


def feature_vector(study: MillisecondStudy) -> np.ndarray:
    """The comparison features of one study, in :data:`FEATURE_NAMES`
    order. Undefined entries (saturated drive has no idleness, sparse
    trace no burstiness) become NaN and are ignored pairwise."""
    summary = study.summary
    hurst = study.burstiness.hurst_variance if study.burstiness else float("nan")
    idle_share = (
        study.idleness.top_decile_time_share if study.idleness else float("nan")
    )
    cv = summary.interarrival_cv
    return np.array(
        [
            np.log10(max(summary.request_rate, 1e-9)),
            study.utilization.overall,
            summary.write_byte_fraction,
            summary.sequentiality if summary.sequentiality == summary.sequentiality else np.nan,
            np.log10(cv) if cv and cv > 0 else np.nan,
            hurst,
            idle_share,
        ]
    )


@dataclass(frozen=True)
class ComparisonResult:
    """Pairwise similarity structure over a set of studies.

    Attributes
    ----------
    names:
        Workload names, defining row/column order.
    features:
        ``(n, k)`` matrix of raw feature values (NaN where undefined).
    distances:
        ``(n, n)`` symmetric z-scored Euclidean distance matrix
        (0 diagonal); distances use only features defined for *both*
        workloads.
    """

    names: List[str]
    features: np.ndarray
    distances: np.ndarray

    def most_similar_pair(self) -> Tuple[str, str, float]:
        """The closest distinct pair, as ``(name_a, name_b, distance)``."""
        n = len(self.names)
        best = (0, 1, float("inf"))
        for i in range(n):
            for j in range(i + 1, n):
                if self.distances[i, j] < best[2]:
                    best = (i, j, float(self.distances[i, j]))
        return self.names[best[0]], self.names[best[1]], best[2]

    def least_similar_pair(self) -> Tuple[str, str, float]:
        """The farthest pair, as ``(name_a, name_b, distance)``."""
        n = len(self.names)
        worst = (0, 1, -1.0)
        for i in range(n):
            for j in range(i + 1, n):
                if self.distances[i, j] > worst[2]:
                    worst = (i, j, float(self.distances[i, j]))
        return self.names[worst[0]], self.names[worst[1]], worst[2]


def compare_studies(studies: Dict[str, MillisecondStudy]) -> ComparisonResult:
    """Build the pairwise comparison over named studies.

    Features are z-scored across the population (NaN-aware) so no single
    dimension dominates; each pairwise distance is the RMS over the
    features defined for both members.
    """
    if len(studies) < 2:
        raise AnalysisError("comparison needs at least two studies")
    names = list(studies)
    raw = np.stack([feature_vector(studies[name]) for name in names])

    means = np.nanmean(raw, axis=0)
    stds = np.nanstd(raw, axis=0)
    stds[stds == 0] = 1.0
    z = (raw - means) / stds

    n = len(names)
    distances = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            both = ~np.isnan(z[i]) & ~np.isnan(z[j])
            if not both.any():
                d = float("inf")
            else:
                diff = z[i, both] - z[j, both]
                d = float(np.sqrt(np.mean(diff ** 2)))
            distances[i, j] = distances[j, i] = d
    return ComparisonResult(names=names, features=raw, distances=distances)
