"""The library's own request-trace CSV, as written by
:func:`repro.traces.io.write_request_trace`::

    # span=<seconds> label=<text> capacity=<sectors>
    time,lba,nsectors,op
    0.125,1000,8,R

The comment line is optional; the column header is not. Times are
already seconds from the start of the capture, so this format keeps its
clock (no first-arrival rebase). LBAs and lengths are 512-byte sectors;
``op`` is ``R`` or ``W`` (any case). The header's span and capacity
bound every row and carry through to the parsed trace, with its label.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Optional, TextIO, Tuple

from repro.errors import TraceFormatError
from repro.traces.ingest.base import ParseRowError, Row, TraceHeader, TraceParser
from repro.traces.ingest.registry import register_parser
from repro.traces.io import _csv_prologue

_COLUMNS = ["time", "lba", "nsectors", "op"]
_IS_WRITE = {"R": False, "W": True}


@register_parser
class NativeParser(TraceParser):
    """Parser for this library's request-trace CSV."""

    format = "native"
    description = (
        "this library's CSV (time,lba,nsectors,op; seconds from the "
        "capture start, sector LBAs; span/label/capacity header)"
    )
    rebase_clock = False

    def read_header(self, fh: TextIO, path: Path) -> Tuple[TraceHeader, int]:
        fields, lineno = _csv_prologue(fh, path, _COLUMNS)
        try:
            span = float(fields["span"]) if "span" in fields else None
            capacity = int(fields["capacity"]) if "capacity" in fields else None
        except ValueError as exc:
            raise TraceFormatError(f"{path}:1: malformed header: {exc}") from exc
        if span is not None and not math.isfinite(span):
            raise TraceFormatError(f"{path}:1: span must be finite, got {span!r}")
        if capacity is not None and capacity <= 0:
            raise TraceFormatError(f"{path}:1: capacity must be > 0, got {capacity!r}")
        return TraceHeader(span, fields.get("label"), capacity), lineno

    def parse_fields(self, line: str) -> Optional[Row]:
        parts = line.split(",")
        try:
            return (
                float(parts[0]),
                int(parts[1]),
                int(parts[2]),
                _IS_WRITE[parts[3].strip().upper()],
            )
        except (IndexError, ValueError):
            raise ParseRowError(f"malformed row {line!r}") from None
        except KeyError:
            op = parts[3].strip().upper()
            raise ParseRowError(f"op must be R or W, got {op!r}") from None
