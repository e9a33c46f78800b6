"""Pluggable chunk-heat policies for the SSD tier.

Every policy answers one question: *how hot is this chunk right now?*
The :class:`~repro.tier.migration.MigrationEngine` ranks chunks by that
score to decide what lives on flash — higher scores stay, lower scores
are demoted, and the coldest resident chunk is the eviction victim when
an admission needs space.

All policies are deterministic: scores are pure functions of the access
history, and every ranking tie is broken by chunk id, so two replays of
the same trace place exactly the same chunks (asserted by property
tests). :class:`LearnedPolicy` is the drop-in hook for a trained
migration agent — it scores through a lookup table over discretized
(recency, frequency) state, exactly the state/action shape a tabular or
DQN-style policy produces, and ships with a sensible hand-built table so
the hook is exercised end to end before any training exists.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.errors import TierError


class HeatPolicy:
    """Base class: per-chunk access bookkeeping shared by every policy.

    Subclasses implement :meth:`score`; the shared state tracks, per
    chunk, the last touch time and the cumulative touch count — enough
    for recency, frequency and blended rankings.
    """

    name = "base"

    #: True when a chunk's score changes only when the chunk is touched
    #: (never with ``now`` alone). :class:`~repro.tier.device.TieredDevice`
    #: then finds the eviction victim without scanning the resident
    #: chunks with :meth:`victim`: for :class:`LruPolicy`, whose score is
    #: the last touch itself, it keeps them in last-touch order; for the
    #: others it keeps a victim heap.
    indexable = False

    def __init__(self) -> None:
        self._last_touch: Dict[int, float] = {}
        self._touches: Dict[int, int] = {}

    def reset(self) -> None:
        """Forget all access history (used between simulator runs)."""
        self._last_touch.clear()
        self._touches.clear()

    def touch(self, chunk: int, now: float, is_write: bool) -> None:
        """Record one access to ``chunk`` at simulated time ``now``."""
        self._last_touch[chunk] = now
        self._touches[chunk] = self._touches.get(chunk, 0) + 1

    @property
    def tracked(self) -> Iterable[int]:
        """Every chunk with recorded history, in first-touch order."""
        return self._last_touch.keys()

    def touches(self, chunk: int) -> int:
        """Cumulative access count of ``chunk`` (0 when never touched)."""
        return self._touches.get(chunk, 0)

    def score(self, chunk: int, now: float) -> float:
        """Heat of ``chunk`` at time ``now``; higher is hotter."""
        raise NotImplementedError

    def victim(self, candidates: Sequence[int], now: float) -> int:
        """The coldest chunk among ``candidates`` (ties: lowest id)."""
        if not candidates:
            raise TierError("victim() called with no candidates")
        return min(candidates, key=lambda c: (self.score(c, now), c))

    def ranked(self, chunks: Iterable[int], now: float) -> list:
        """``chunks`` hottest-first (ties: lowest id first)."""
        return sorted(chunks, key=lambda c: (-self.score(c, now), c))


class LruPolicy(HeatPolicy):
    """Least-recently-used: heat is the last touch time."""

    name = "lru"
    indexable = True

    def score(self, chunk: int, now: float) -> float:
        return self._last_touch.get(chunk, float("-inf"))

    def ranked(self, chunks: Iterable[int], now: float) -> list:
        """``chunks`` most recent first (ties: lowest id first), keyed on
        the last touch directly: the id sort, then a stable descending
        sort by last touch."""
        last_touch = self._last_touch
        order = sorted(chunks)
        try:
            order.sort(key=last_touch.__getitem__, reverse=True)
        except KeyError:
            # An untracked chunk (score -inf) ranks after every other.
            order.sort()
            order.sort(key=lambda c: last_touch.get(c, float("-inf")), reverse=True)
        return order


class LfuPolicy(HeatPolicy):
    """Least-frequently-used: heat is the cumulative touch count.

    Recency breaks frequency ties (a fractional term keeps the count the
    dominant signal for any realistic clock value).
    """

    name = "lfu"
    indexable = True

    def __init__(self, recency_weight: float = 1e-9) -> None:
        super().__init__()
        if recency_weight < 0:
            raise TierError(
                f"recency_weight must be >= 0, got {recency_weight!r}"
            )
        self.recency_weight = recency_weight

    def score(self, chunk: int, now: float) -> float:
        if chunk not in self._touches:
            return float("-inf")
        return self._touches[chunk] + self.recency_weight * self._last_touch[chunk]


class RecencyFrequencyPolicy(HeatPolicy):
    """Exponentially-decayed frequency: frequent *and* recent wins.

    Each touch adds 1 to a per-chunk heat accumulator that halves every
    ``halflife`` seconds, so a chunk hammered an hour ago ranks below a
    chunk touched steadily right now — the behavior LRU and LFU each get
    wrong on one side.
    """

    name = "rf"

    def __init__(self, halflife: float = 30.0) -> None:
        super().__init__()
        if halflife <= 0:
            raise TierError(f"halflife must be > 0, got {halflife!r}")
        self.halflife = halflife
        self._heat: Dict[int, float] = {}

    def reset(self) -> None:
        super().reset()
        self._heat.clear()

    def touch(self, chunk: int, now: float, is_write: bool) -> None:
        previous = self._last_touch.get(chunk)
        heat = self._heat.get(chunk, 0.0)
        if previous is not None:
            heat *= 2.0 ** (-(now - previous) / self.halflife)
        self._heat[chunk] = heat + 1.0
        super().touch(chunk, now, is_write)

    def score(self, chunk: int, now: float) -> float:
        last = self._last_touch.get(chunk)
        if last is None:
            return float("-inf")
        return self._heat[chunk] * 2.0 ** (-(now - last) / self.halflife)


class LearnedPolicy(HeatPolicy):
    """Table-driven scoring hook for a learned migration agent.

    The chunk state is discretized into ``(recency_bucket,
    frequency_bucket)`` — age since last touch in powers of
    ``recency_base`` seconds, touch count in powers of two — and scored
    through a lookup table, the exact interface a tabular/DQN policy
    trained offline produces (state in, preference out). The default
    table is a hand-built recency-major ramp so the hook works (and is
    tested) before any training exists; pass ``table`` or a ``scorer``
    callable to drop in the real thing.
    """

    name = "learned"

    #: Bucket counts of the default discretization.
    RECENCY_BUCKETS = 8
    FREQUENCY_BUCKETS = 8

    def __init__(
        self,
        table: Optional[Dict[Tuple[int, int], float]] = None,
        scorer: Optional[Callable[[int, int], float]] = None,
        recency_base: float = 1.0,
    ) -> None:
        super().__init__()
        if recency_base <= 0:
            raise TierError(f"recency_base must be > 0, got {recency_base!r}")
        if table is not None and scorer is not None:
            raise TierError("pass either a table or a scorer, not both")
        self.recency_base = recency_base
        self.table = self.default_table() if table is None else dict(table)
        self.scorer = scorer

    @classmethod
    def default_table(cls) -> Dict[Tuple[int, int], float]:
        """A recency-major, frequency-minor preference ramp.

        Fresher state dominates; within a recency bucket, more touches
        score higher. Rough approximation of what a trained agent learns
        on skewed workloads — good enough to exercise the plumbing.
        """
        table = {}
        for r in range(cls.RECENCY_BUCKETS):
            for f in range(cls.FREQUENCY_BUCKETS):
                table[(r, f)] = (cls.RECENCY_BUCKETS - r) * 10.0 + f
        return table

    def state_of(self, chunk: int, now: float) -> Tuple[int, int]:
        """The discretized (recency_bucket, frequency_bucket) state."""
        age = max(now - self._last_touch[chunk], 0.0)
        recency = min(
            int(math.log2(1.0 + age / self.recency_base)),
            self.RECENCY_BUCKETS - 1,
        )
        frequency = min(
            int(math.log2(self._touches[chunk])) if self._touches[chunk] else 0,
            self.FREQUENCY_BUCKETS - 1,
        )
        return recency, frequency

    def score(self, chunk: int, now: float) -> float:
        if chunk not in self._last_touch:
            return float("-inf")
        state = self.state_of(chunk, now)
        if self.scorer is not None:
            return float(self.scorer(*state))
        return float(self.table.get(state, 0.0))


_POLICIES = {
    LruPolicy.name: LruPolicy,
    LfuPolicy.name: LfuPolicy,
    RecencyFrequencyPolicy.name: RecencyFrequencyPolicy,
    LearnedPolicy.name: LearnedPolicy,
}


def available_heat_policies() -> Tuple[str, ...]:
    """Names accepted by :func:`make_heat_policy`, sorted."""
    return tuple(sorted(_POLICIES))


def make_heat_policy(name: str) -> HeatPolicy:
    """Instantiate a heat policy by name (fresh state each call)."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise TierError(
            f"unknown heat policy {name!r}; available: {available_heat_policies()}"
        ) from None
