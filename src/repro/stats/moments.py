"""Sample moments: batch description and streaming (Welford) accumulation.

:class:`StreamingMoments` exists because the simulator can emit millions
of per-request timings; analyses that only need moments should not have to
buffer them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import StatsError


@dataclass(frozen=True)
class SampleDescription:
    """The headline statistics of a one-dimensional sample."""

    n: int
    mean: float
    std: float
    cv: float
    minimum: float
    p25: float
    median: float
    p75: float
    p95: float
    p99: float
    maximum: float


def sorted_quantiles(ordered: np.ndarray, quantiles: Sequence[float]) -> np.ndarray:
    """Quantiles of an ascending float64 sample, shaped like ``quantiles``.

    Equal (NaN-equal) to ``numpy.quantile(ordered, quantiles)`` with the
    default ``linear`` method, for float quantiles in ``[0, 1]``: virtual
    index ``(n - 1) * q``, both neighbours at the last element from
    ``n - 1`` on, and numpy's two-sided lerp. A NaN at the sorted tail
    makes every quantile NaN, as in numpy. Unlike numpy's it never
    calls ``np.unique``, whose first use in a process imports
    ``numpy.ma`` (~25 ms in a fresh worker).
    """
    n = ordered.size
    if n == 0:
        raise StatsError("cannot take quantiles of an empty sample")
    q = np.asarray(quantiles, dtype=np.float64)
    if not np.all((q >= 0.0) & (q <= 1.0)):
        raise StatsError(f"quantiles must lie in [0, 1], got {quantiles!r}")
    if np.isnan(ordered[-1]):
        return np.full(q.shape, np.nan)
    virtual = (n - 1) * q.reshape(-1)
    below = np.floor(virtual)
    above = below + 1.0
    at_top = virtual >= n - 1
    below[at_top] = -1.0
    above[at_top] = -1.0
    gamma = virtual - below
    a = ordered[below.astype(np.intp)]
    b = ordered[above.astype(np.intp)]
    diff = b - a
    result = a + diff * gamma
    np.subtract(b, diff * (1.0 - gamma), out=result, where=gamma >= 0.5)
    return result.reshape(q.shape)


def describe(sample: Sequence[float]) -> SampleDescription:
    """Compute the standard description of a sample (NaNs dropped).

    One sort serves every order statistic: the quantiles come from
    :func:`sorted_quantiles` and the extremes from the sorted ends. The
    mean and standard deviation are taken over the sample in its given
    order, so their floating-point sums do not depend on the sort.
    """
    values = np.asarray(sample, dtype=np.float64)
    values = values[~np.isnan(values)]
    if values.size == 0:
        raise StatsError("cannot describe an empty sample")
    mean = float(values.mean())
    std = float(values.std(ddof=1)) if values.size > 1 else 0.0
    ordered = np.sort(values)
    q = sorted_quantiles(ordered, (0.25, 0.5, 0.75, 0.95, 0.99))
    return SampleDescription(
        n=int(values.size),
        mean=mean,
        std=std,
        cv=std / mean if mean != 0 else float("nan"),
        minimum=float(ordered[0]),
        p25=float(q[0]),
        median=float(q[1]),
        p75=float(q[2]),
        p95=float(q[3]),
        p99=float(q[4]),
        maximum=float(ordered[-1]),
    )


def coefficient_of_variation(sample: Sequence[float]) -> float:
    """Sample standard deviation divided by the mean.

    CV = 1 characterizes the exponential distribution; disk-level
    interarrival times show CV well above 1 (burstiness). NaN when the
    mean is 0.
    """
    values = np.asarray(sample, dtype=np.float64)
    values = values[~np.isnan(values)]
    if values.size < 2:
        raise StatsError("coefficient of variation needs at least 2 values")
    mean = values.mean()
    if mean == 0:
        return float("nan")
    return float(values.std(ddof=1) / mean)


class StreamingMoments:
    """Welford's online algorithm for count, mean and variance.

    Numerically stable for long streams; supports merging two
    accumulators (parallel analysis shards) via :meth:`merge`.
    """

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def add(self, value: float) -> None:
        """Fold one observation into the running moments."""
        self._n += 1
        delta = value - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (value - self._mean)
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    def add_many(self, values: Sequence[float]) -> None:
        """Fold a batch of observations in one vectorized pass.

        Computes the batch's moments with numpy reductions and merges
        them in (Chan's parallel update, as in :meth:`merge`), so
        folding a chunk of N values costs a few array passes instead of
        N Python-level :meth:`add` calls. Numerically equivalent to the
        scalar loop up to floating-point roundoff.
        """
        batch_values = np.asarray(values, dtype=np.float64)
        if batch_values.size == 0:
            return
        batch = StreamingMoments()
        batch._n = int(batch_values.size)
        batch._mean = float(batch_values.mean())
        centered = batch_values - batch._mean
        batch._m2 = float(np.dot(centered, centered))
        batch._min = float(batch_values.min())
        batch._max = float(batch_values.max())
        merged = self.merge(batch)
        self._n = merged._n
        self._mean = merged._mean
        self._m2 = merged._m2
        self._min = merged._min
        self._max = merged._max

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """A new accumulator equivalent to having seen both streams."""
        merged = StreamingMoments()
        n = self._n + other._n
        if n == 0:
            return merged
        delta = other._mean - self._mean
        merged._n = n
        merged._mean = self._mean + delta * other._n / n
        merged._m2 = (
            self._m2 + other._m2 + delta * delta * self._n * other._n / n
        )
        merged._min = min(self._min, other._min)
        merged._max = max(self._max, other._max)
        return merged

    def state_dict(self) -> dict:
        """The accumulator's full state as a JSON-friendly dict.

        Together with :meth:`from_state_dict` this lets moment
        accumulators travel across process boundaries (runner workers)
        and serialization formats without losing merge-ability.
        """
        return {
            "n": self._n,
            "mean": self._mean,
            "m2": self._m2,
            "min": self._min if self._n else None,
            "max": self._max if self._n else None,
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "StreamingMoments":
        """Rebuild an accumulator from :meth:`state_dict` output."""
        moments = cls()
        moments._n = int(state["n"])
        moments._mean = float(state["mean"])
        moments._m2 = float(state["m2"])
        moments._min = float("inf") if state["min"] is None else float(state["min"])
        moments._max = float("-inf") if state["max"] is None else float(state["max"])
        return moments

    @property
    def n(self) -> int:
        """Number of observations seen."""
        return self._n

    @property
    def mean(self) -> float:
        """Running mean (NaN before the first observation)."""
        return self._mean if self._n else float("nan")

    @property
    def variance(self) -> float:
        """Unbiased sample variance (NaN below 2 observations)."""
        if self._n < 2:
            return float("nan")
        return self._m2 / (self._n - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        var = self.variance
        return float(np.sqrt(var)) if var == var else float("nan")

    @property
    def cv(self) -> float:
        """Coefficient of variation of the stream so far."""
        if self._n < 2 or self.mean == 0:
            return float("nan")
        return self.std / self.mean

    @property
    def minimum(self) -> float:
        """Smallest observation (NaN before the first)."""
        return self._min if self._n else float("nan")

    @property
    def maximum(self) -> float:
        """Largest observation (NaN before the first)."""
        return self._max if self._n else float("nan")
