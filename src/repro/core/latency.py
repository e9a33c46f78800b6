"""Response-time characterization of a simulation run.

Utilization and idleness describe the drive; latency describes what the
host feels. This module characterizes the response-time distribution of
a :class:`~repro.disk.SimulationResult` overall and per request class
(reads vs. writes — very different under a write-back cache), with the
queue depth reconstructed from arrival/finish times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.disk.simulator import SimulationResult
from repro.errors import AnalysisError
from repro.stats.moments import SampleDescription, describe, sorted_quantiles


@dataclass(frozen=True)
class LatencyAnalysis:
    """Latency characterization of one simulation run.

    Attributes
    ----------
    response:
        Response-time (arrival to completion) description, seconds.
    wait:
        Queueing-delay description.
    service:
        Service-time description.
    read_response, write_response:
        Per-class response descriptions (``None`` when a class is empty).
    mean_queue_depth, max_queue_depth:
        Time-averaged and peak number of requests in the system.
    """

    response: SampleDescription
    wait: SampleDescription
    service: SampleDescription
    read_response: Optional[SampleDescription]
    write_response: Optional[SampleDescription]
    mean_queue_depth: float
    max_queue_depth: int


def _system_size_walk(result: SimulationResult) -> tuple:
    """The system size N(t) as a step function: the arrival and finish
    times in stable time order, and N just after each of them."""
    n = len(result.trace)
    events = np.concatenate([result.trace.times, result.finish_times])
    deltas = np.concatenate([np.ones(n), -np.ones(n)])
    order = np.argsort(events, kind="stable")
    return events[order], np.cumsum(deltas[order])


def analyze_latency(result: SimulationResult) -> LatencyAnalysis:
    """Characterize the latency of a non-empty simulation run."""
    trace = result.trace
    if not len(trace):
        raise AnalysisError("simulation served no requests; nothing to analyze")
    reads = ~trace.is_write
    writes = trace.is_write
    read_desc = describe(result.response_times[reads]) if reads.any() else None
    write_desc = describe(result.response_times[writes]) if writes.any() else None

    # Time-averaged system size via Little's law: L = lambda * W.
    span = result.timeline.span
    mean_depth = (
        float(result.response_times.sum()) / span if span > 0 else float("nan")
    )
    # Peak depth from the event walk.
    peak = int(_system_size_walk(result)[1].max())

    return LatencyAnalysis(
        response=describe(result.response_times),
        wait=describe(result.wait_times),
        service=describe(result.service_times),
        read_response=read_desc,
        write_response=write_desc,
        mean_queue_depth=mean_depth,
        max_queue_depth=peak,
    )


# ----------------------------------------------------------------------
# Degraded-mode tails (fault injection)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DegradedTailAnalysis:
    """Tail-latency characterization of a (possibly fault-injected) run.

    Fault injection moves the *tail*, not the mean: a handful of
    retry ladders and reassignment seeks inflate P99/P999 while the bulk
    of the distribution barely shifts. This analysis reports exactly the
    quantities that comparison needs, alongside the fault counters that
    explain them.

    Attributes
    ----------
    n_requests / n_faulted / n_failed / completed_requests:
        Request accounting; ``completed_requests + n_failed`` always
        equals ``n_requests``.
    fault_penalty_seconds:
        Total extra service seconds the fault machinery added.
    mean_response / p99_response / p999_response / max_response:
        Response-time statistics, seconds.
    """

    n_requests: int
    n_faulted: int
    n_failed: int
    completed_requests: int
    fault_penalty_seconds: float
    mean_response: float
    p99_response: float
    p999_response: float
    max_response: float


def _tail_stats(
    responses: np.ndarray, quantiles: Sequence[float] = (0.99, 0.999)
) -> tuple:
    """(mean, *quantiles, max) of a response sample — by default (mean,
    p99, p999, max) — from one sort; all-NaN when empty."""
    if responses.size == 0:
        return (float("nan"),) * (len(quantiles) + 2)
    ordered = np.sort(responses)
    tails = sorted_quantiles(ordered, quantiles)
    return (float(ordered.mean()), *map(float, tails), float(ordered[-1]))


def _inflation_ratio(degraded: float, healthy: float) -> float:
    """``degraded / healthy`` with the :func:`tail_inflation` guards."""
    if not (np.isfinite(degraded) and np.isfinite(healthy)):
        return float("nan")
    if degraded == 0.0 and healthy == 0.0:
        return 1.0
    if healthy <= 0.0:
        return float("nan")
    return degraded / healthy


def analyze_degraded_tail(result: SimulationResult) -> DegradedTailAnalysis:
    """Characterize the response-time tail of a run, healthy or degraded.

    Works on any :class:`SimulationResult` — on a healthy run the fault
    counters are simply zero, which makes the healthy-vs-degraded
    comparison symmetric. A zero-request run yields a well-defined empty
    analysis (all counters zero, all response statistics NaN) rather
    than raising, so sweep code can analyze every cell uniformly.
    """
    mean, p99, p999, peak = _tail_stats(result.response_times)
    return DegradedTailAnalysis(
        n_requests=len(result.trace),
        n_faulted=result.n_faulted,
        n_failed=result.n_failed,
        completed_requests=result.completed_requests,
        fault_penalty_seconds=result.fault_penalty_seconds,
        mean_response=mean,
        p99_response=p99,
        p999_response=p999,
        max_response=peak,
    )


def tail_inflation(
    healthy: DegradedTailAnalysis, degraded: DegradedTailAnalysis
) -> dict:
    """Multiplicative tail inflation of a degraded run over its healthy
    baseline: ``{metric: degraded/healthy}`` for mean, P99, P999 and max.

    A ratio of 1.0 means the fault profile left that statistic alone;
    latent-error retry ladders typically show up as P999 ratios far above
    the mean ratio. Degenerate inputs get a sentinel instead of a
    misleading number or a ``ZeroDivisionError``: both sides zero means
    nothing changed (1.0); a zero, negative or non-finite baseline — or
    a non-finite numerator, e.g. the NaN statistics of an empty analysis
    — yields NaN.
    """
    return {
        "mean": _inflation_ratio(degraded.mean_response, healthy.mean_response),
        "p99": _inflation_ratio(degraded.p99_response, healthy.p99_response),
        "p999": _inflation_ratio(degraded.p999_response, healthy.p999_response),
        "max": _inflation_ratio(degraded.max_response, healthy.max_response),
    }


# ----------------------------------------------------------------------
# Tier-split tails (SSD cache tier)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TierTailAnalysis:
    """Hit/miss-split tail characterization of a tiered run.

    A cache tier does to latency what fault injection does, in reverse:
    it deflates the *bulk* (hits complete at flash speed) while the
    misses keep — and under write-back eviction destages, inflate — the
    mechanical tail. This reuses the degraded-tail machinery on the two
    request subsets, and ``miss_inflation`` is
    :func:`tail_inflation` of the miss subset over the hit subset: how
    many times worse a tier miss is than a hit at each statistic.

    Attributes
    ----------
    n_requests / n_hits / n_misses:
        Request accounting (``n_hits + n_misses == n_requests``).
    hit_rate:
        ``n_hits / n_requests`` (NaN on an empty run).
    hit / miss:
        :class:`DegradedTailAnalysis` of each subset; an empty subset
        carries NaN statistics.
    miss_inflation:
        ``{mean, p99, p999, max}`` ratios of miss over hit tails.
    """

    n_requests: int
    n_hits: int
    n_misses: int
    hit_rate: float
    hit: DegradedTailAnalysis
    miss: DegradedTailAnalysis
    miss_inflation: dict


def _subset_tail(result: SimulationResult, mask: np.ndarray) -> DegradedTailAnalysis:
    """Degraded-tail statistics of one request subset of a run."""
    indices = set(np.flatnonzero(mask).tolist())
    subset_events = [e for e in result.fault_events if e.index in indices]
    n_failed = int(result.failed[mask].sum())
    mean, p99, p999, peak = _tail_stats(result.response_times[mask])
    return DegradedTailAnalysis(
        n_requests=int(mask.sum()),
        n_faulted=len({e.index for e in subset_events}),
        n_failed=n_failed,
        completed_requests=int(mask.sum()) - n_failed,
        fault_penalty_seconds=float(sum(e.penalty for e in subset_events)),
        mean_response=mean,
        p99_response=p99,
        p999_response=p999,
        max_response=peak,
    )


def analyze_tier_tail(result: SimulationResult) -> TierTailAnalysis:
    """Split a tiered run's response tail into flash hits and HDD misses.

    Requires a run produced with a tier attached (``result.tier_hits``
    is set); raises :class:`AnalysisError` otherwise. Zero-request runs
    and all-hit/all-miss runs are well-defined: the empty subset carries
    NaN statistics and the inflation ratios degrade to NaN through
    :func:`tail_inflation`'s guards.
    """
    if result.tier_hits is None:
        raise AnalysisError(
            "result has no tier hit log; run the simulator with a TierConfig"
        )
    hits = result.tier_hits
    n = len(result.trace)
    hit_analysis = _subset_tail(result, hits)
    miss_analysis = _subset_tail(result, ~hits)
    return TierTailAnalysis(
        n_requests=n,
        n_hits=int(hits.sum()),
        n_misses=n - int(hits.sum()),
        hit_rate=float(hits.sum()) / n if n else float("nan"),
        hit=hit_analysis,
        miss=miss_analysis,
        miss_inflation=tail_inflation(hit_analysis, miss_analysis),
    )
