"""Trace transformations: principled ways to derive one trace from another.

Workload studies constantly need controlled variants of a trace — the
same arrival structure at a lower rate, or the same trace with its fine
timing blurred. These operations implement the standard transformations
with their statistical caveats documented:

* :func:`thin` — keep each request independently with probability ``p``.
  Preserves the arrival process *family* (a thinned Poisson process is
  Poisson; thinned LRD traffic stays LRD) while scaling the rate.
* :func:`jitter` — perturb arrival times by bounded uniform noise:
  destroys sub-``amount`` timing structure while preserving coarser
  scales; the standard sensitivity check for short-range artifacts.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError
from repro.traces.millisecond import RequestTrace


def thin(
    trace: RequestTrace, keep_probability: float, seed: int = 0
) -> RequestTrace:
    """Independently keep each request with ``keep_probability``.

    The span and label are preserved; the expected rate scales by the
    keep probability. Deterministic in ``seed``.
    """
    if not 0.0 < keep_probability <= 1.0:
        raise TraceError(
            f"keep_probability must be in (0, 1], got {keep_probability!r}"
        )
    rng = np.random.default_rng(seed)
    mask = rng.uniform(size=len(trace)) < keep_probability
    return RequestTrace(
        times=trace.times[mask],
        lbas=trace.lbas[mask],
        nsectors=trace.nsectors[mask],
        is_write=trace.is_write[mask],
        span=trace.span,
        label=f"{trace.label}~thin({keep_probability:g})",
    )


def jitter(trace: RequestTrace, amount: float, seed: int = 0) -> RequestTrace:
    """Add uniform noise in ``[-amount, +amount]`` to each arrival time.

    Times are clipped into ``[0, span]`` and re-sorted (the constructor
    handles ordering). Structure finer than ``amount`` is destroyed;
    coarser structure survives — which is precisely why this is the
    standard control when a burstiness result might be a timestamping
    artifact.
    """
    if amount < 0:
        raise TraceError(f"amount must be >= 0, got {amount!r}")
    rng = np.random.default_rng(seed)
    noisy = trace.times + rng.uniform(-amount, amount, size=len(trace))
    noisy = np.clip(noisy, 0.0, trace.span)
    return RequestTrace(
        times=noisy,
        lbas=trace.lbas,
        nsectors=trace.nsectors,
        is_write=trace.is_write,
        span=trace.span,
        label=f"{trace.label}~jitter({amount:g})",
    )
