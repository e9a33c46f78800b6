"""Persistence for the three trace granularities.

Formats are deliberately simple and line-oriented so traces survive `grep`
and version control:

* Millisecond traces — CSV with header ``time,lba,nsectors,op`` where
  ``op`` is ``R`` or ``W``; a leading comment line carries the span,
  label and (when known) drive capacity
  (``# span=<seconds> label=<text> capacity=<sectors>``). This module
  writes them; they are read like every other request-trace format,
  through the ``native`` parser of :mod:`repro.traces.ingest`.
* Hour traces — JSON Lines, one drive per line.
* Lifetime traces — CSV with header
  ``drive_id,power_on_hours,bytes_read,bytes_written,model``.

Every reader runs in one of two modes. ``strict=True`` (the default)
raises :class:`~repro.errors.TraceFormatError` naming the file and the
1-based line of the first bad row. ``strict=False`` skips corrupt rows
instead, recording each skip as a :class:`QuarantinedRow` in the
caller-supplied ``quarantine`` list — real capture files have truncated
tails and corrupt rows, and one bad row should not discard a million
good ones. File-level problems (unreadable header, wrong columns) raise
in both modes: they mean the whole file is suspect, not one row.
"""

from __future__ import annotations

import csv
import json
import math
import shlex
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import TraceFormatError
from repro.traces.hourly import HourlyDataset, HourlyTrace
from repro.traces.lifetime import DriveFamilyDataset, LifetimeRecord
from repro.traces.millisecond import RequestTrace

PathLike = Union[str, Path]


@dataclass(frozen=True)
class QuarantinedRow:
    """One corrupt row skipped by a permissive (``strict=False``) read.

    Attributes
    ----------
    path:
        The file the row came from.
    lineno:
        1-based line number of the row in that file.
    content:
        The raw row, as close to its on-disk form as the reader has.
    reason:
        Human-readable description of what was wrong.
    """

    path: str
    lineno: int
    content: str
    reason: str


class _RowErrors:
    """Shared row-error policy: raise with ``path:lineno`` in strict
    mode, append a :class:`QuarantinedRow` otherwise."""

    def __init__(
        self,
        path: Path,
        strict: bool,
        quarantine: Optional[List[QuarantinedRow]],
    ) -> None:
        self.path = path
        self.strict = strict
        self.quarantine = quarantine

    def bad_row(self, lineno: int, content: str, reason: str) -> None:
        if self.strict:
            raise TraceFormatError(f"{self.path}:{lineno}: {reason}")
        if self.quarantine is not None:
            self.quarantine.append(
                QuarantinedRow(
                    path=str(self.path),
                    lineno=lineno,
                    content=content,
                    reason=reason,
                )
            )


# ----------------------------------------------------------------------
# Header comment lines (``# key=value ...``)
# ----------------------------------------------------------------------

def _header_value(key: str, value: str) -> str:
    """Render one ``key=value`` header token, shell-quoted so values with
    spaces or quotes survive the whitespace-splitting reader exactly.
    Simple values stay unquoted, keeping the format grep-friendly and
    old files byte-identical."""
    if "\n" in value or "\r" in value:
        raise TraceFormatError(
            f"{key} must not contain line breaks, got {value!r}"
        )
    return f"{key}={shlex.quote(value)}"


def _parse_header(line: str) -> Dict[str, str]:
    """Parse a ``#``-prefixed header line back into its key/value pairs.

    Values written by :func:`_header_value` round-trip exactly; foreign
    or hand-edited headers fall back to plain whitespace splitting."""
    body = line[1:]
    try:
        tokens = shlex.split(body)
    except ValueError:
        tokens = body.split()
    fields: Dict[str, str] = {}
    for token in tokens:
        if "=" in token:
            key, _, value = token.partition("=")
            fields[key] = value
    return fields


def _csv_prologue(fh, path: Path, columns: List[str]) -> Tuple[Dict[str, str], int]:
    """Consume a CSV file's optional ``# key=value`` comment line and its
    exact column header ``columns``.

    Returns the comment's fields (empty without one) and the 1-based
    line number of the column header, so row numbering continues after
    it. A wrong column header raises ``path:lineno`` in both modes.
    """
    line, lineno = fh.readline(), 1
    fields: Dict[str, str] = {}
    if line.startswith("#"):
        fields = _parse_header(line)
        line, lineno = fh.readline(), 2
    header = [c.strip() for c in line.strip().split(",")]
    if header != columns:
        raise TraceFormatError(f"{path}:{lineno}: unexpected header {header!r}")
    return fields, lineno


# ----------------------------------------------------------------------
# Millisecond traces
# ----------------------------------------------------------------------

def write_request_trace(trace: RequestTrace, path: PathLike) -> None:
    """Write a millisecond trace as CSV (see module docstring for format)."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        header = f"# span={trace.span!r} {_header_value('label', trace.label)}"
        if trace.capacity_sectors is not None:
            header += f" capacity={int(trace.capacity_sectors)}"
        fh.write(header + "\n")
        writer = csv.writer(fh)
        writer.writerow(["time", "lba", "nsectors", "op"])
        for i in range(len(trace)):
            writer.writerow(
                [
                    repr(float(trace.times[i])),
                    int(trace.lbas[i]),
                    int(trace.nsectors[i]),
                    "W" if trace.is_write[i] else "R",
                ]
            )


# ----------------------------------------------------------------------
# Hour traces
# ----------------------------------------------------------------------

def write_hourly_dataset(dataset: HourlyDataset, path: PathLike) -> None:
    """Write an hourly dataset as JSON Lines, one drive per line."""
    path = Path(path)
    with path.open("w") as fh:
        for trace in dataset:
            record = {
                "drive_id": trace.drive_id,
                "start_hour": trace.start_hour,
                "read_bytes": [float(v) for v in trace.read_bytes],
                "write_bytes": [float(v) for v in trace.write_bytes],
            }
            fh.write(json.dumps(record) + "\n")


def read_hourly_dataset(
    path: PathLike,
    strict: bool = True,
    quarantine: Optional[List[QuarantinedRow]] = None,
) -> HourlyDataset:
    """Read an hourly dataset written by :func:`write_hourly_dataset`.

    ``strict=False`` skips malformed lines into ``quarantine`` instead of
    raising; see the module docstring for the policy.
    """
    path = Path(path)
    errors = _RowErrors(path, strict, quarantine)
    traces: List[HourlyTrace] = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                traces.append(
                    HourlyTrace(
                        drive_id=record["drive_id"],
                        read_bytes=record["read_bytes"],
                        write_bytes=record["write_bytes"],
                        start_hour=int(record.get("start_hour", 0)),
                    )
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                errors.bad_row(lineno, line, f"malformed record: {exc}")
    return HourlyDataset(traces)


# ----------------------------------------------------------------------
# Lifetime traces
# ----------------------------------------------------------------------

_LIFETIME_HEADER = ["drive_id", "power_on_hours", "bytes_read", "bytes_written", "model"]


def write_lifetime_dataset(dataset: DriveFamilyDataset, path: PathLike) -> None:
    """Write a drive-family dataset as CSV."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(f"# {_header_value('family', dataset.family)}\n")
        writer = csv.writer(fh)
        writer.writerow(_LIFETIME_HEADER)
        for r in dataset:
            writer.writerow(
                [r.drive_id, repr(r.power_on_hours), repr(r.bytes_read),
                 repr(r.bytes_written), r.model]
            )


def read_lifetime_dataset(
    path: PathLike,
    strict: bool = True,
    quarantine: Optional[List[QuarantinedRow]] = None,
) -> DriveFamilyDataset:
    """Read a drive-family dataset written by :func:`write_lifetime_dataset`.

    Counters must be finite and non-negative. ``strict=False`` skips
    offending rows into ``quarantine`` instead of raising; see the module
    docstring for the policy.
    """
    path = Path(path)
    errors = _RowErrors(path, strict, quarantine)
    records: List[LifetimeRecord] = []
    with path.open() as fh:
        fields, header_lineno = _csv_prologue(fh, path, _LIFETIME_HEADER)
        family = fields.get("family", path.stem)
        for lineno, row in enumerate(csv.reader(fh), start=header_lineno + 1):
            if not row:
                continue
            try:
                drive_id, model = row[0], row[4]
                hours = float(row[1])
                bytes_read = float(row[2])
                bytes_written = float(row[3])
            except (IndexError, ValueError):
                errors.bad_row(lineno, ",".join(row), f"malformed row {row!r}")
                continue
            bad = [
                f"{name} {value!r}"
                for name, value in (
                    ("power_on_hours", hours),
                    ("bytes_read", bytes_read),
                    ("bytes_written", bytes_written),
                )
                if not math.isfinite(value) or value < 0
            ]
            if bad:
                errors.bad_row(
                    lineno, ",".join(row),
                    "counters must be finite and >= 0: " + ", ".join(bad),
                )
                continue
            records.append(
                LifetimeRecord(
                    drive_id=drive_id,
                    power_on_hours=hours,
                    bytes_read=bytes_read,
                    bytes_written=bytes_written,
                    model=model,
                )
            )
    return DriveFamilyDataset(records, family=family)
