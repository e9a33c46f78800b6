"""Idle-time prediction: the mean residual life of an idle interval.

The operational question behind "long stretches of idleness" is: *given
the drive has already been idle for ``a`` seconds, how much longer will
it stay idle?* For memoryless (exponential) idle times the answer never
changes; for the heavy-tailed idle times disks actually exhibit, the
expected remaining idle time *grows* with the age — the longer it has
been quiet, the longer it will stay quiet. That increasing
mean-residual-life (MRL) curve is what makes conditional policies
(spin down / start background work *after* surviving a probation
period) work, and this module estimates it empirically.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.disk.timeline import BusyIdleTimeline
from repro.errors import AnalysisError
from repro.stats.moments import sorted_quantiles


class IdlePredictor:
    """Empirical conditional structure of idle-interval lengths.

    Fit on a sample of observed idle-interval lengths; answers
    conditional queries by restricting to the intervals that survived
    the conditioning age.
    """

    def __init__(self, intervals: Sequence[float]) -> None:
        values = np.asarray(intervals, dtype=np.float64)
        values = values[~np.isnan(values)]
        if values.size < 8:
            raise AnalysisError(
                f"idle predictor needs >= 8 intervals, got {values.size}"
            )
        if np.any(values <= 0):
            raise AnalysisError("idle intervals must be positive")
        self._sorted = np.sort(values)
        # Suffix sums for O(log n) conditional means.
        self._suffix_sums = np.concatenate(
            [np.cumsum(self._sorted[::-1])[::-1], [0.0]]
        )

    @classmethod
    def from_timeline(cls, timeline: BusyIdleTimeline) -> "IdlePredictor":
        """Fit on a timeline's idle intervals."""
        return cls(timeline.idle_periods())

    @property
    def n(self) -> int:
        """Number of intervals the predictor was fit on."""
        return int(self._sorted.size)

    def survival(self, age: float) -> float:
        """P(interval length > age)."""
        if age < 0:
            raise AnalysisError(f"age must be >= 0, got {age!r}")
        survivors = self._sorted.size - np.searchsorted(self._sorted, age, side="right")
        return survivors / self._sorted.size

    def mean_residual_life(self, age: float) -> float:
        """E[length - age | length > age] — the MRL curve.

        NaN when no observed interval survives the age (conditioning on
        an event never seen).
        """
        if age < 0:
            raise AnalysisError(f"age must be >= 0, got {age!r}")
        first = int(np.searchsorted(self._sorted, age, side="right"))
        survivors = self._sorted.size - first
        if survivors == 0:
            return float("nan")
        return float(self._suffix_sums[first] / survivors - age)

    def mrl_curve(self, ages: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
        """The MRL evaluated at each age: ``(ages, mrl_values)``."""
        ages = np.asarray(sorted(ages), dtype=np.float64)
        if ages.size == 0:
            raise AnalysisError("need at least one age")
        return ages, np.array([self.mean_residual_life(float(a)) for a in ages])

    def remaining_at_least(self, age: float, duration: float) -> float:
        """P(length >= age + duration | length > age) — will the lull
        last another ``duration`` seconds, given it has lasted ``age``?"""
        if duration < 0:
            raise AnalysisError(f"duration must be >= 0, got {duration!r}")
        base = self.survival(age)
        if base == 0:
            return float("nan")
        joint = self._sorted.size - np.searchsorted(
            self._sorted, age + duration, side="left"
        )
        return float(joint / self._sorted.size / base)

    def is_heavy_tailed(self, short_age: float = 0.0, long_age_quantile: float = 0.75) -> bool:
        """The MRL diagnostic: does expected remaining idle time grow
        with age? True means conditional waiting pays — the signature of
        a heavier-than-exponential tail. Compares the MRL at
        ``short_age`` with the MRL at the sample's ``long_age_quantile``."""
        long_age = float(sorted_quantiles(self._sorted, long_age_quantile))
        early = self.mean_residual_life(short_age)
        late = self.mean_residual_life(long_age)
        if not (np.isfinite(early) and np.isfinite(late)):
            return False
        return late > early
