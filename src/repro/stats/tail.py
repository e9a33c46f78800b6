"""Heavy-tail diagnostics for idle-interval and per-drive distributions.

"Long stretches of idleness" means, quantitatively, that the upper tail
of the idle-interval distribution is heavy: a small number of very long
intervals carry most of the idle time. :func:`tail_heaviness_ratio`
gives that as "what share of the total is in the top q of intervals".
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import StatsError


def tail_heaviness_ratio(sample: Sequence[float], top_fraction: float = 0.1) -> float:
    """Share of the sample's total carried by its largest ``top_fraction``
    of values.

    For exponential data the top 10 % of intervals carry roughly a third
    of the total; heavy-tailed idle-time distributions concentrate far
    more (often > 0.7), which is exactly the "long stretches of idleness"
    observation.
    """
    if not 0.0 < top_fraction < 1.0:
        raise StatsError(f"top_fraction must be in (0, 1), got {top_fraction!r}")
    values = np.asarray(sample, dtype=np.float64)
    values = values[~np.isnan(values)]
    if values.size == 0:
        raise StatsError("cannot compute tail heaviness of an empty sample")
    total = values.sum()
    if total <= 0:
        return float("nan")
    k = max(1, int(round(top_fraction * values.size)))
    top = np.sort(values)[-k:]
    return float(top.sum() / total)
