"""A declarative, picklable pointer to an on-disk trace.

:class:`TraceSource` is how the parallel runner carries "replay this
file" through an :class:`~repro.core.runner.ExperimentJob`: a frozen
record of *where* the trace lives and *how* to read it, loaded lazily in
the worker process so the job itself stays cheap to pickle. Every
format, the library's own ``native`` CSV included, is read through the
ingest registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.traces.millisecond import RequestTrace


@dataclass(frozen=True)
class TraceSource:
    """Where a replayable trace lives and how to read it.

    Parameters
    ----------
    path:
        The trace file.
    format:
        A key from
        :func:`~repro.traces.ingest.registry.available_formats`
        (default: the library's own ``native`` CSV).
    strict:
        Raise on the first corrupt row (``True``) or silently drop
        corrupt rows (``False``; quarantine details are not kept — use
        a parser directly when they matter).
    max_requests:
        Stop after this many accepted records (``None`` = whole file).
    """

    path: str
    format: str = "native"
    strict: bool = True
    max_requests: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "path", str(self.path))

    @property
    def label(self) -> str:
        """Short name for job labels and reports: the file stem."""
        return Path(self.path).stem

    def load(self) -> RequestTrace:
        """Read the trace off disk (every call re-reads the file)."""
        from repro.traces.ingest.registry import get_parser

        return get_parser(self.format).parse(
            self.path, strict=self.strict, max_requests=self.max_requests
        )
