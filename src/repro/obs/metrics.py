"""Run-time metrics: counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` is the one mutable object instrumented code
holds: emission sites ask it for a named counter/gauge/histogram and
update that, so the set of metrics a run produces is discovered at run
time rather than declared up front. Registries from different runner
workers merge with the same Chan-style combination
:class:`~repro.stats.moments.StreamingMoments` uses, so a suite-wide
view is just the fold of its per-job registries — order-independent up
to floating-point roundoff, which is what makes the merge safe no
matter how jobs were spread over processes.

Histograms use *fixed* bucket edges (shared by construction across
workers) so merged bucket counts are exact; only the attached moment
accumulators carry floating-point merge error.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ObservabilityError
from repro.stats.moments import StreamingMoments

#: Log-spaced service/response-time edges: 10 us to 10 s, 24 buckets.
DEFAULT_TIME_EDGES: Tuple[float, ...] = tuple(
    float(e) for e in np.logspace(-5, 1, 25)
)


#: Largest bucket-model table :func:`_edge_model` builds (cells).
_MAX_MODEL_CELLS = 4096


@lru_cache(maxsize=32)
def _edge_model(edges: Tuple[float, ...]):
    """Validated, read-only edges and their bucket model (None when it
    does not apply), built once per distinct edge tuple: every run's
    registry creates its histograms afresh, mostly with
    :data:`DEFAULT_TIME_EDGES`.

    ``searchsorted`` into even 25 edges is a per-value binary search.
    For positive edges the bucket index follows from the bits of the
    value instead: a positive float64 read as an int64 is monotone in
    the value, and its top ``12 + k`` bits (exponent and ``k`` mantissa
    bits) name a *cell* spanning a ``2**-k`` octave. ``k`` is the
    smallest that puts at most one edge inside every cell, so a table
    holding each cell's insertion index at its lower bound is the
    exact ``searchsorted(edges, value, side="right")`` up to one upward
    snap. The model is ``(shift, first_cell, last_cell, table, upper)``
    with ``upper[j]`` (the edges, then ``inf``) the least value whose
    index exceeds ``j``.
    """
    edges_arr = np.asarray(edges, dtype=np.float64)
    if edges_arr.size < 2:
        raise ObservabilityError(f"histogram needs >= 2 edges, got {edges_arr.size}")
    if not np.all(np.isfinite(edges_arr)):
        raise ObservabilityError("histogram edges must be finite")
    if np.any(np.diff(edges_arr) <= 0):
        raise ObservabilityError("histogram edges must be strictly increasing")
    edges_arr.setflags(write=False)
    if edges_arr[0] <= 0:
        return edges_arr, None
    keys = edges_arr.view(np.int64)
    upper = np.append(edges_arr, np.inf)
    for k in range(9):
        shift = 52 - k
        # One cell below the first edge and one above the last: values
        # outside them clip there and land in underflow/overflow.
        first, last = int(keys[0] >> shift) - 1, int(keys[-1] >> shift) + 1
        if last - first >= _MAX_MODEL_CELLS:
            break
        cells = np.arange(first, last + 2, dtype=np.int64) << shift
        if first < 0 or cells[-1] > np.float64(np.inf).view(np.int64):
            break
        bounds = cells.view(np.float64)
        table = np.searchsorted(edges_arr, bounds[:-1], side="right")
        tops = np.searchsorted(
            edges_arr, np.nextafter(bounds[1:], -np.inf), side="right"
        )
        if int((tops - table).max()) <= 1:
            table = table.astype(np.int64)
            table.setflags(write=False)
            upper.setflags(write=False)  # shared by every histogram
            return edges_arr, (shift, first, last, table, upper)
    return edges_arr, None


class Counter:
    """A monotonically increasing integer count."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = int(value)

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the count."""
        if amount < 0:
            raise ObservabilityError(
                f"counters only increase; got inc({amount!r})"
            )
        self.value += int(amount)

    def merge(self, other: "Counter") -> "Counter":
        """Counts from two shards: the sum."""
        return Counter(self.value + other.value)

    def as_dict(self) -> int:
        return self.value

    @classmethod
    def from_dict(cls, state: int) -> "Counter":
        return cls(int(state))

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class Gauge:
    """A sampled value: last / min / max / sum / update count.

    Merging two gauges keeps the extrema, the sum and the update count;
    ``last`` is only meaningful when one side never updated (there is no
    cross-shard ordering to decide whose write was "last"), so a merge
    of two updated gauges reports ``last`` as NaN. This keeps the merge
    commutative and associative, which the property tests assert.
    """

    __slots__ = ("last", "minimum", "maximum", "total", "updates")

    def __init__(self) -> None:
        self.last = float("nan")
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.total = 0.0
        self.updates = 0

    def set(self, value: float) -> None:
        """Record one sample of the gauged quantity."""
        value = float(value)
        self.last = value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        self.total += value
        self.updates += 1

    @property
    def mean(self) -> float:
        """Mean of every sample seen (NaN before the first)."""
        return self.total / self.updates if self.updates else float("nan")

    def merge(self, other: "Gauge") -> "Gauge":
        merged = Gauge()
        merged.updates = self.updates + other.updates
        merged.minimum = min(self.minimum, other.minimum)
        merged.maximum = max(self.maximum, other.maximum)
        merged.total = self.total + other.total
        if self.updates == 0:
            merged.last = other.last
        elif other.updates == 0:
            merged.last = self.last
        else:
            merged.last = float("nan")
        return merged

    def as_dict(self) -> Dict[str, Any]:
        return {
            "last": self.last,
            "min": self.minimum if self.updates else None,
            "max": self.maximum if self.updates else None,
            "sum": self.total,
            "updates": self.updates,
        }

    @classmethod
    def from_dict(cls, state: Dict[str, Any]) -> "Gauge":
        gauge = cls()
        gauge.updates = int(state["updates"])
        gauge.total = float(state["sum"])
        gauge.last = float(state["last"]) if state["last"] is not None else float("nan")
        gauge.minimum = float("inf") if state["min"] is None else float(state["min"])
        gauge.maximum = float("-inf") if state["max"] is None else float(state["max"])
        return gauge

    def __repr__(self) -> str:
        return f"Gauge(last={self.last}, updates={self.updates})"


class FixedHistogram:
    """A histogram over fixed, ascending bucket edges.

    Values land in half-open buckets ``[edges[i], edges[i+1])``; values
    below ``edges[0]`` count as underflow, values at or above
    ``edges[-1]`` as overflow, so every finite observation is counted
    exactly once (the conservation law the property tests check). A
    :class:`StreamingMoments` accumulator rides along for exact mean and
    variance, merged Chan-style.
    """

    def __init__(self, edges: Sequence[float]) -> None:
        edges_arr = np.asarray(edges, dtype=np.float64)
        if edges_arr.ndim != 1:
            raise ObservabilityError(
                f"histogram needs >= 2 edges, got {edges_arr.size}"
            )
        self.edges, self._model = _edge_model(tuple(edges_arr.tolist()))
        self.counts = np.zeros(self.edges.size - 1, dtype=np.int64)
        self.underflow = 0
        self.overflow = 0
        self.moments = StreamingMoments()

    def _bucket_indices(self, values_arr: np.ndarray) -> np.ndarray:
        """``searchsorted(edges, values, side="right")``, the fast way
        when the bucket model of :func:`_edge_model` applies."""
        model = self._model
        if model is None:
            return np.searchsorted(self.edges, values_arr, side="right")
        shift, first, last, table, upper = model
        # Negative values read as negative ints and clip to the cell
        # below the first edge, like every other value under it.
        cells = values_arr.view(np.int64) >> shift
        np.clip(cells, first, last, out=cells)
        cells -= first
        indices = table.take(cells)
        indices += values_arr >= upper.take(indices)
        return indices

    @property
    def n(self) -> int:
        """Total observations, including under/overflow."""
        return int(self.counts.sum()) + self.underflow + self.overflow

    def observe(self, value: float) -> None:
        """Fold one observation."""
        self.observe_many(np.asarray([value], dtype=np.float64))

    def observe_many(self, values: Sequence[float]) -> None:
        """Fold a batch of observations in a few vectorized passes."""
        values_arr = np.asarray(values, dtype=np.float64)
        if values_arr.size == 0:
            return
        # min/max propagate NaN and retain inf, so two reductions check
        # finiteness of the whole batch (cheaper than isfinite().all()).
        if not (math.isfinite(values_arr.min()) and math.isfinite(values_arr.max())):
            raise ObservabilityError("histogram observations must be finite")
        # Insertion indices land in [0, n_edges]: 0 is underflow,
        # n_edges is overflow, and everything in between maps to bucket
        # index-1 — one bincount classifies all three at once.
        indices = self._bucket_indices(values_arr)
        binned = np.bincount(indices, minlength=self.edges.size + 1)
        self.underflow += int(binned[0])
        self.overflow += int(binned[self.edges.size])
        self.counts += binned[1:self.edges.size]
        self.moments.add_many(values_arr)

    def approx_quantile(self, q: float) -> float:
        """Bucket-interpolated quantile over the in-range counts
        (NaN when everything landed outside the edges)."""
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must be in [0, 1], got {q!r}")
        total = int(self.counts.sum())
        if total == 0:
            return float("nan")
        cumulative = np.cumsum(self.counts)
        target = q * total
        bucket = int(np.searchsorted(cumulative, target, side="left"))
        bucket = min(bucket, self.counts.size - 1)
        before = int(cumulative[bucket - 1]) if bucket else 0
        inside = int(self.counts[bucket])
        fraction = (target - before) / inside if inside else 0.0
        lo, hi = self.edges[bucket], self.edges[bucket + 1]
        return float(lo + fraction * (hi - lo))

    def merge(self, other: "FixedHistogram") -> "FixedHistogram":
        if not np.array_equal(self.edges, other.edges):
            raise ObservabilityError(
                "cannot merge histograms with different bucket edges"
            )
        merged = FixedHistogram(self.edges)
        merged.counts = self.counts + other.counts
        merged.underflow = self.underflow + other.underflow
        merged.overflow = self.overflow + other.overflow
        merged.moments = self.moments.merge(other.moments)
        return merged

    def as_dict(self) -> Dict[str, Any]:
        return {
            "edges": [float(e) for e in self.edges],
            "counts": [int(c) for c in self.counts],
            "underflow": self.underflow,
            "overflow": self.overflow,
            "moments": self.moments.state_dict(),
        }

    @classmethod
    def from_dict(cls, state: Dict[str, Any]) -> "FixedHistogram":
        hist = cls(state["edges"])
        hist.counts = np.asarray(state["counts"], dtype=np.int64)
        hist.underflow = int(state["underflow"])
        hist.overflow = int(state["overflow"])
        hist.moments = StreamingMoments.from_state_dict(state["moments"])
        return hist

    def __repr__(self) -> str:
        return (
            f"FixedHistogram(buckets={self.counts.size}, n={self.n}, "
            f"mean={self.moments.mean:.6g})"
        )


class MetricsRegistry:
    """Named metrics, one flat namespace, get-or-create access.

    Asking for an existing name with a different metric kind (or a
    histogram with different edges) is an error — silently returning a
    mismatched object would corrupt merges.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, FixedHistogram] = {}

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def _check_kind(self, name: str, want: Dict[str, Any]) -> None:
        for kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if table is not want and name in table:
                raise ObservabilityError(
                    f"metric {name!r} already registered as a {kind}"
                )

    def counter(self, name: str) -> Counter:
        """The named counter, created on first use."""
        self._check_kind(name, self._counters)
        if name not in self._counters:
            self._counters[name] = Counter()
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        """The named gauge, created on first use."""
        self._check_kind(name, self._gauges)
        if name not in self._gauges:
            self._gauges[name] = Gauge()
        return self._gauges[name]

    def histogram(
        self, name: str, edges: Optional[Sequence[float]] = None
    ) -> FixedHistogram:
        """The named histogram, created on first use.

        ``edges`` defaults to :data:`DEFAULT_TIME_EDGES`; asking for an
        existing histogram with different edges is rejected.
        """
        self._check_kind(name, self._histograms)
        existing = self._histograms.get(name)
        if existing is not None:
            if edges is not None and not np.array_equal(
                existing.edges, np.asarray(edges, dtype=np.float64)
            ):
                raise ObservabilityError(
                    f"histogram {name!r} already registered with different edges"
                )
            return existing
        hist = FixedHistogram(DEFAULT_TIME_EDGES if edges is None else edges)
        self._histograms[name] = hist
        return hist

    @property
    def counters(self) -> Dict[str, Counter]:
        """Read-only view of the counters by name."""
        return dict(self._counters)

    @property
    def gauges(self) -> Dict[str, Gauge]:
        """Read-only view of the gauges by name."""
        return dict(self._gauges)

    @property
    def histograms(self) -> Dict[str, FixedHistogram]:
        """Read-only view of the histograms by name."""
        return dict(self._histograms)

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # ------------------------------------------------------------------
    # Merge / serialization
    # ------------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """A new registry equivalent to having observed both shards.

        Same-name metrics must be the same kind (and histograms the same
        edges); disjoint names are carried through unchanged.
        """
        merged = MetricsRegistry()
        for name in set(self._counters) | set(other._counters):
            a = self._counters.get(name, Counter())
            b = other._counters.get(name, Counter())
            for reg in (self, other):
                reg._check_kind(name, reg._counters)
            merged._counters[name] = a.merge(b)
        for name in set(self._gauges) | set(other._gauges):
            a_g = self._gauges.get(name, Gauge())
            b_g = other._gauges.get(name, Gauge())
            for reg in (self, other):
                reg._check_kind(name, reg._gauges)
            merged._gauges[name] = a_g.merge(b_g)
        for name in set(self._histograms) | set(other._histograms):
            mine = self._histograms.get(name)
            theirs = other._histograms.get(name)
            for reg in (self, other):
                reg._check_kind(name, reg._histograms)
            if mine is None:
                assert theirs is not None
                merged._histograms[name] = theirs.merge(FixedHistogram(theirs.edges))
            elif theirs is None:
                merged._histograms[name] = mine.merge(FixedHistogram(mine.edges))
            else:
                merged._histograms[name] = mine.merge(theirs)
        return merged

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly snapshot, sorted by name for stable output."""
        return {
            "counters": {k: v.as_dict() for k, v in sorted(self._counters.items())},
            "gauges": {k: v.as_dict() for k, v in sorted(self._gauges.items())},
            "histograms": {
                k: v.as_dict() for k, v in sorted(self._histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, state: Dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`as_dict` output."""
        registry = cls()
        for name, value in state.get("counters", {}).items():
            registry._counters[name] = Counter.from_dict(value)
        for name, value in state.get("gauges", {}).items():
            registry._gauges[name] = Gauge.from_dict(value)
        for name, value in state.get("histograms", {}).items():
            registry._histograms[name] = FixedHistogram.from_dict(value)
        return registry

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )
