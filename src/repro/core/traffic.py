"""Read/write traffic dynamics over time.

The paper analyzes "the dynamics of the read and write traffic": not the
average mix but how it moves. This module produces windowed read and
write byte-rate series, the write-fraction series, write-burst episodes,
and the read/write cross-correlation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.traces.millisecond import RequestTrace


@dataclass(frozen=True)
class TrafficDynamics:
    """Windowed read/write traffic of one trace at one scale.

    Attributes
    ----------
    scale:
        Window length in seconds.
    read_rate, write_rate:
        Bytes/second per window.
    write_fraction:
        Write share of bytes per window (NaN in empty windows).
    mean_write_fraction:
        Overall write byte share.
    write_fraction_std:
        Standard deviation of the windowed write fraction — the paper's
        "dynamics": 0 means a frozen mix, large values mean the mix
        swings over time.
    rw_correlation:
        Pearson correlation of the read and write rate series (NaN when
        either is constant).
    """

    scale: float
    read_rate: np.ndarray
    write_rate: np.ndarray
    write_fraction: np.ndarray
    mean_write_fraction: float
    write_fraction_std: float
    rw_correlation: float


def analyze_traffic(trace: RequestTrace, scale: float = 1.0) -> TrafficDynamics:
    """Windowed read/write dynamics of a non-empty trace."""
    if not len(trace):
        raise AnalysisError(f"trace {trace.label!r} is empty; nothing to analyze")
    if scale <= 0:
        raise AnalysisError(f"scale must be > 0, got {scale!r}")
    read_bytes = trace.reads().byte_series(scale)
    write_bytes = trace.writes().byte_series(scale)
    total = read_bytes + write_bytes
    with np.errstate(invalid="ignore", divide="ignore"):
        wf = np.where(total > 0, write_bytes / np.maximum(total, 1e-300), np.nan)
    active = wf[~np.isnan(wf)]
    if read_bytes.std() > 0 and write_bytes.std() > 0:
        corr = float(np.corrcoef(read_bytes, write_bytes)[0, 1])
    else:
        corr = float("nan")
    return TrafficDynamics(
        scale=float(scale),
        read_rate=read_bytes / scale,
        write_rate=write_bytes / scale,
        write_fraction=wf,
        mean_write_fraction=trace.write_byte_fraction,
        write_fraction_std=float(active.std(ddof=1)) if active.size > 1 else float("nan"),
        rw_correlation=corr,
    )


def write_bursts(
    trace: RequestTrace, scale: float = 1.0, threshold: float = 0.9
) -> List[Tuple[float, float]]:
    """Maximal episodes where the windowed write byte share stays at or
    above ``threshold``.

    Returns ``(start_seconds, length_seconds)`` pairs. Empty windows end
    an episode (no traffic is not a write burst).
    """
    if not 0.0 < threshold <= 1.0:
        raise AnalysisError(f"threshold must be in (0, 1], got {threshold!r}")
    dynamics = analyze_traffic(trace, scale)
    flags = np.nan_to_num(dynamics.write_fraction, nan=-1.0) >= threshold
    episodes: List[Tuple[float, float]] = []
    start = None
    for i, flag in enumerate(flags):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            episodes.append((start * scale, (i - start) * scale))
            start = None
    if start is not None:
        episodes.append((start * scale, (flags.size - start) * scale))
    return episodes
