"""Per-trace workload summaries: the rows of the paper's overview tables.

:func:`summarize_trace` distills a millisecond trace into the headline
numbers the evaluation tables report per workload: rate, transfer volume,
read/write mix, request sizes, sequentiality, and interarrival
variability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.traces.millisecond import RequestTrace
from repro.units import KIB


@dataclass(frozen=True)
class WorkloadSummary:
    """Headline statistics of one millisecond trace."""

    name: str
    n_requests: int
    span_seconds: float
    request_rate: float
    byte_rate: float
    write_request_fraction: float
    write_byte_fraction: float
    mean_request_kib: float
    median_request_kib: float
    sequentiality: float
    interarrival_cv: float


def summarize_trace(trace: RequestTrace) -> WorkloadSummary:
    """Summarize a non-empty millisecond trace."""
    if not len(trace):
        raise AnalysisError(f"trace {trace.label!r} is empty; nothing to summarize")
    sizes_kib = trace.nbytes / KIB
    gaps = trace.interarrival_times()
    if gaps.size >= 2 and gaps.mean() > 0:
        cv = float(gaps.std(ddof=1) / gaps.mean())
    else:
        cv = float("nan")
    return WorkloadSummary(
        name=trace.label,
        n_requests=len(trace),
        span_seconds=trace.span,
        request_rate=trace.request_rate,
        byte_rate=trace.byte_rate,
        write_request_fraction=trace.write_fraction,
        write_byte_fraction=trace.write_byte_fraction,
        mean_request_kib=float(sizes_kib.mean()),
        median_request_kib=float(np.median(sizes_kib)),
        sequentiality=trace.sequentiality(),
        interarrival_cv=cv,
    )
