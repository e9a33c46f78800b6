"""Tenant-level QoS accounting on shared drives.

Two views of a tenant's experience:

* :func:`tenant_qos_from_result` slices the co-located simulation's
  response times by tenant and reports per-tenant tails (p95/p99/p999)
  on the :mod:`repro.core.latency` tail machinery;
* :func:`interference_report` quantifies the noisy-neighbor effect by
  re-simulating each tenant *alone* on the same drive and comparing its
  isolated tail to the co-located one. ``p99_inflation > 1`` means the
  tenant's p99 got worse because of its neighbors.

Inflation ratios use the :func:`repro.core.latency.tail_inflation`
guards: 1.0 when both sides are zero, else NaN when either side is
non-finite or the baseline is not positive.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Sequence

import numpy as np

from repro.core.latency import _inflation_ratio, _tail_stats
from repro.core.runner import _job_simulator
from repro.fleet.multiplex import TenantColumns, combine_columns
from repro.fleet.tenant import TenantLoad


def qos_entry(responses: np.ndarray) -> Dict[str, float]:
    """Tail summary of one tenant's response-time sample."""
    responses = np.asarray(responses, dtype=np.float64)
    mean, p95, p99, p999, maximum = _tail_stats(responses, (0.95, 0.99, 0.999))
    return {
        "n_requests": int(responses.size),
        "mean_response": mean,
        "p95_response": p95,
        "p99_response": p99,
        "p999_response": p999,
        "max_response": maximum,
    }


def tenant_qos_from_result(
    tenants: Sequence[TenantLoad],
    tenant_idx: np.ndarray,
    responses: np.ndarray,
) -> Dict[str, Dict[str, float]]:
    """Per-tenant QoS entries from a co-located simulation.

    ``tenant_idx[i]`` names the tenant (index into ``tenants``) that
    issued merged request ``i``; ``responses`` is the simulator's
    response-time array over the same merged order.
    """
    responses = np.asarray(responses, dtype=np.float64)
    out = {}
    for k, tenant in enumerate(tenants):
        out[tenant.tenant_id] = qos_entry(responses[tenant_idx == k])
    return out


def interference_report(
    job: Any,
    columns: Sequence[TenantColumns],
    colocated: Mapping[str, Mapping[str, float]],
) -> Dict[str, Dict[str, float]]:
    """Noisy-neighbor report: isolated vs co-located tails per tenant.

    Each tenant is replayed alone on a fresh simulator configured like
    ``job`` (same drive, scheduler, seed, queue depth, faults, tier),
    so the only difference from the co-located numbers is the absence
    of neighbors.
    """
    report = {}
    for k, column in enumerate(columns):
        trace, _ = combine_columns(
            columns, span=column.span, capacity_sectors=job.drive.capacity_sectors,
            subset=(k,),
        )
        result = _job_simulator(job).run(trace)
        _, iso_p99, iso_p999, _ = _tail_stats(
            np.asarray(result.response_times, dtype=np.float64)
        )
        entry = colocated[column.tenant_id]
        report[column.tenant_id] = {
            "n_requests": int(entry["n_requests"]),
            "isolated_p99": iso_p99,
            "colocated_p99": float(entry["p99_response"]),
            "p99_inflation": _inflation_ratio(float(entry["p99_response"]), iso_p99),
            "isolated_p999": iso_p999,
            "colocated_p999": float(entry["p999_response"]),
            "p999_inflation": _inflation_ratio(
                float(entry["p999_response"]), iso_p999
            ),
        }
    return report
