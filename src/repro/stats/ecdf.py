"""Empirical cumulative distribution functions.

Almost every figure in the paper is a CDF (of idle-interval lengths, of
busy periods, of per-drive throughput, ...), so :class:`Ecdf` is the
figure-series type of the library: it evaluates, inverts (quantiles), and
renders itself to the (x, y) pairs a plotting tool or a textual "figure"
needs.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.errors import StatsError


class Ecdf:
    """The empirical CDF of a one-dimensional sample.

    NaN values are dropped at construction (family-level columns use NaN
    for undefined entries such as the write fraction of an untouched
    drive); an all-NaN or empty sample is rejected.
    """

    def __init__(self, sample: Sequence[float]) -> None:
        values = np.asarray(sample, dtype=np.float64)
        values = values[~np.isnan(values)]
        if values.size == 0:
            raise StatsError("cannot build an ECDF from an empty sample")
        self._sorted = np.sort(values)
        self._sorted.setflags(write=False)

    @property
    def n(self) -> int:
        """Sample size after NaN removal."""
        return int(self._sorted.size)

    @property
    def values(self) -> np.ndarray:
        """The sorted sample (read-only)."""
        return self._sorted

    def __call__(self, x: float) -> float:
        """P(X <= x), evaluated from the sample."""
        return float(np.searchsorted(self._sorted, x, side="right")) / self.n

    def evaluate(self, xs: Sequence[float]) -> np.ndarray:
        """Vectorized :meth:`__call__`."""
        xs = np.asarray(xs, dtype=np.float64)
        return np.searchsorted(self._sorted, xs, side="right") / self.n

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0 <= q <= 1) using the inverse-CDF rule:
        the smallest sample value v with ECDF(v) >= q."""
        if not 0.0 <= q <= 1.0:
            raise StatsError(f"quantile must be in [0, 1], got {q!r}")
        if q == 0.0:
            return float(self._sorted[0])
        index = int(np.ceil(q * self.n)) - 1
        return float(self._sorted[index])

    def quantiles(self, qs: Sequence[float]) -> np.ndarray:
        """Vectorized :meth:`quantile`."""
        return np.array([self.quantile(float(q)) for q in qs])

    @property
    def median(self) -> float:
        """The 0.5 quantile."""
        return self.quantile(0.5)

    @property
    def mean(self) -> float:
        """Sample mean."""
        return float(self._sorted.mean())

    def survival(self, x: float) -> float:
        """P(X > x) — the complementary CDF, used for tail plots."""
        return 1.0 - self(x)

    def sample_points(self, k: int = 50, log_x: bool = False) -> Tuple[np.ndarray, np.ndarray]:
        """``k`` (x, ECDF(x)) pairs spanning the sample range, linearly or
        logarithmically spaced — the series reported by the benchmarks."""
        if k < 2:
            raise StatsError(f"need at least 2 points, got {k!r}")
        lo, hi = float(self._sorted[0]), float(self._sorted[-1])
        if log_x:
            if lo <= 0:
                positive = self._sorted[self._sorted > 0]
                if positive.size == 0:
                    raise StatsError("log_x requires positive sample values")
                lo = float(positive[0])
            xs = np.logspace(np.log10(lo), np.log10(max(hi, lo)), k)
        else:
            xs = np.linspace(lo, hi, k)
        return xs, self.evaluate(xs)
