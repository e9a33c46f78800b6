"""The streaming parser base class every trace format plugs into.

A concrete parser implements one method —
:meth:`TraceParser.parse_fields`, taking one non-empty line and
returning the normalized ``(time_seconds, lba, nsectors, is_write)``
tuple — and inherits the whole ingestion pipeline: one row loop with
chunked streaming reads, the strict/permissive quarantine policy shared
with :mod:`repro.traces.io`, one invariant checker, and first-arrival
clock normalization. A format with a prologue (the ``native`` CSV's
comment and column header) also overrides :meth:`TraceParser.read_header`,
whose declared span and capacity the checker enforces on every row.

Normalization contract
----------------------
Whatever the on-disk units, ``parse_fields`` returns:

* ``time_seconds`` — the record's timestamp converted to seconds, still
  on the capture's clock (the pipeline rebases to the first arrival,
  unless the format sets :attr:`TraceParser.rebase_clock` to ``False``
  because its times already count from the start of the capture);
* ``lba`` — the starting address in 512-byte sectors;
* ``nsectors`` — the transfer length in sectors (byte lengths round up,
  minimum 1);
* ``is_write`` — the direction flag.

Returning ``None`` *skips* the record silently — the line is valid for
the format but not a transfer this parser should keep (a filtered
device, a non-dispatch blktrace event, a barrier). Raising
:class:`ParseRowError` marks the row *corrupt*: strict mode raises
:class:`~repro.errors.TraceFormatError` naming ``path:lineno``,
permissive mode appends a :class:`~repro.traces.io.QuarantinedRow` and
moves on.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterator, List, NamedTuple, Optional, TextIO, Tuple, Union

import numpy as np

from repro.errors import TraceFormatError
from repro.traces.io import QuarantinedRow, _RowErrors
from repro.traces.millisecond import RequestTrace

PathLike = Union[str, Path]

#: One normalized record: (time_seconds, lba, nsectors, is_write).
Row = Tuple[float, int, int, bool]

_DTYPES = (np.float64, np.int64, np.int64, bool)
_EMPTY = [np.empty(0, dtype=dtype) for dtype in _DTYPES]


class ParseRowError(ValueError):
    """One row of a trace is corrupt (see module docstring)."""


class TraceHeader(NamedTuple):
    """What a format's prologue declares: ``span`` (seconds) and
    ``capacity`` (sectors) bound every record and carry through to the
    parsed trace, ``label`` names it. ``None`` declares nothing."""

    span: Optional[float] = None
    label: Optional[str] = None
    capacity: Optional[int] = None


_NO_HEADER = TraceHeader()


def _row_problem(
    time: float, lba: int, nsectors: int, header: TraceHeader
) -> Optional[str]:
    """Why one normalized record violates the request invariants or its
    header's declared span and capacity, or ``None`` when it is sound."""
    if not math.isfinite(time):
        return f"non-finite timestamp {time!r}"
    if time < 0:
        return f"negative timestamp {time!r}"
    if lba < 0:
        return f"negative LBA {lba!r}"
    if nsectors <= 0:
        return f"non-positive nsectors {nsectors!r}"
    if header.span is not None and time > header.span:
        return f"arrival {time!r} is past the header span {header.span!r}"
    if header.capacity is not None and lba + nsectors > header.capacity:
        return (
            f"request [{lba}, {lba + nsectors}) exceeds the header "
            f"capacity of {header.capacity} sectors"
        )
    return None


def _drain(
    columns: Tuple[list, list, list, list], origin: float
) -> Tuple[np.ndarray, ...]:
    """Turn the accumulated column lists into numpy arrays, times
    measured from ``origin``, and empty them."""
    times, lbas, nsectors, is_write = (
        np.asarray(c, dtype=dtype) for c, dtype in zip(columns, _DTYPES)
    )
    for column in columns:
        column.clear()
    return times - origin, lbas, nsectors, is_write


def _label(label: Optional[str], header: TraceHeader, path: Path) -> str:
    """The explicit label, else the header's, else the file stem."""
    return label or (path.stem if header.label is None else header.label)


class TraceParser:
    """Base class for format-specific trace parsers.

    Subclasses set :attr:`format` (the registry key) and
    :attr:`description`, and implement :meth:`parse_fields` (plus
    :meth:`read_header` for a prologue). Everything else — streaming,
    quarantine, invariants, normalization — is shared.
    """

    #: Registry key (``get_parser(format)``); set by each subclass.
    format: str = ""
    #: One line for ``available_formats()`` listings and ``--help``.
    description: str = ""
    #: Rows per streaming chunk when the caller does not choose.
    default_chunk_rows: int = 65536
    #: Whether the clock is rebased to the first arrival. Foreign
    #: captures carry absolute clocks; a format whose times are already
    #: seconds from the start of the capture keeps them.
    rebase_clock: bool = True

    # ------------------------------------------------------------------
    # The hooks a format implements
    # ------------------------------------------------------------------

    def parse_fields(self, line: str) -> Optional[Row]:
        """Parse one stripped, non-empty, non-comment line.

        Returns the normalized row, ``None`` to skip a valid-but-
        filtered record, or raises :class:`ParseRowError` with a
        human-readable reason for a corrupt one.
        """
        raise NotImplementedError

    def is_noise(self, line: str) -> bool:
        """Whether ``line`` is non-record noise to skip silently in both
        modes (comments by default; formats add headers/summaries)."""
        return line.startswith("#")

    def read_header(self, fh: TextIO, path: Path) -> Tuple[TraceHeader, int]:
        """Consume the format's prologue from the top of ``fh``.

        Returns what the prologue declares and how many lines it took;
        row line numbers continue after them. A bad prologue raises
        :class:`~repro.errors.TraceFormatError` naming ``path:lineno``
        in both modes. The default consumes nothing.
        """
        return _NO_HEADER, 0

    # ------------------------------------------------------------------
    # Shared pipeline
    # ------------------------------------------------------------------

    def _read(
        self,
        path: Path,
        strict: bool,
        quarantine: Optional[List[QuarantinedRow]],
        chunk_rows: Optional[int],
        max_requests: Optional[int],
        ordered: bool,
    ) -> Iterator:
        """The one row loop. Yields the prologue's :class:`TraceHeader`,
        then the accepted records as numpy column chunks of
        ``chunk_rows``, in file order and on the capture's clock.

        Noise is skipped; every corrupt row — a :class:`ParseRowError`
        or a :func:`_row_problem` — goes through the strict/permissive
        policy at its own line. With ``ordered``, the chunks are on the
        stream's clock, which starts at the first accepted arrival (or
        stays the capture's for a format that keeps its clock), and a
        record before that origin is a bad row too.
        """
        chunk_rows = chunk_rows or self.default_chunk_rows
        if chunk_rows <= 0:
            raise TraceFormatError(f"chunk_rows must be > 0, got {chunk_rows!r}")
        if max_requests is not None and max_requests < 1:
            raise TraceFormatError(f"max_requests must be >= 1, got {max_requests!r}")
        bad_row = _RowErrors(path, strict, quarantine).bad_row
        origin = None if ordered and self.rebase_clock else 0.0
        columns: Tuple[list, list, list, list] = ([], [], [], [])
        times, lbas, nsectors, is_write = columns
        accepted = 0
        with path.open() as fh:
            header, lineno = self.read_header(fh, path)
            yield header
            for lineno, raw in enumerate(fh, start=lineno + 1):
                line = raw.strip()
                if not line or self.is_noise(line):
                    continue
                try:
                    row = self.parse_fields(line)
                except ParseRowError as exc:
                    bad_row(lineno, line, str(exc))
                    continue
                if row is None:
                    continue
                time, lba, length, write = row
                problem = _row_problem(time, lba, length, header)
                if problem is not None:
                    bad_row(lineno, line, problem)
                    continue
                if ordered:
                    if origin is None:
                        origin = time
                    elif time < origin:
                        bad_row(lineno, line, f"arrival {time!r} precedes the "
                                f"stream origin {origin!r}")
                        continue
                times.append(time)
                lbas.append(lba)
                nsectors.append(length)
                is_write.append(write)
                if len(times) >= chunk_rows:
                    yield _drain(columns, origin)
                accepted += 1
                if accepted == max_requests:
                    break
        if times:
            yield _drain(columns, origin)

    def parse(
        self,
        path: PathLike,
        strict: bool = True,
        quarantine: Optional[List[QuarantinedRow]] = None,
        max_requests: Optional[int] = None,
        label: Optional[str] = None,
        chunk_rows: Optional[int] = None,
    ) -> RequestTrace:
        """Parse a whole file into one :class:`RequestTrace`.

        The file is read in chunks (never as one string list). A format
        with :attr:`rebase_clock` starts the clock at the *first
        arrival* — the earliest timestamp seen, so a capture sliced from
        the middle of a longer recording lands at ``t = 0`` like any
        other; nothing is dropped for being out of order.

        The trace keeps its header's span when the read reached the end
        of the file; a read stopped by ``max_requests`` ends at its last
        arrival. The label is ``label``, else the header's, else the
        file stem. Raises :class:`~repro.errors.TraceFormatError` when no
        usable record survives and the header declared no span (both
        modes: the whole file is suspect, not one row), and when
        ``max_requests`` is below 1.
        """
        path = Path(path)
        stream = self._read(path, strict, quarantine, chunk_rows, max_requests, False)
        header = next(stream)
        chunks = list(stream)
        if not chunks and header.span is None:
            raise TraceFormatError(f"{path}: no usable {self.format or 'trace'} records")
        times, lbas, nsectors, is_write = (
            [np.concatenate(column) for column in zip(*chunks)] if chunks else _EMPTY
        )
        if self.rebase_clock and len(times):
            times = times - float(times.min())
        cut = max_requests is not None and len(times) >= max_requests
        return RequestTrace(
            times, lbas, nsectors, is_write,
            span=None if cut else header.span,
            label=_label(label, header, path),
            capacity_sectors=header.capacity,
        )

    def iter_chunks(
        self,
        path: PathLike,
        chunk_rows: Optional[int] = None,
        strict: bool = True,
        quarantine: Optional[List[QuarantinedRow]] = None,
        max_requests: Optional[int] = None,
        label: Optional[str] = None,
    ) -> Iterator[RequestTrace]:
        """Stream a file as bounded :class:`RequestTrace` chunks.

        Chunks share one clock, exactly what
        :class:`~repro.core.streaming.StreamingCharacterizer` expects,
        so a multi-GB capture can be characterized without ever holding
        more than ``chunk_rows`` requests. A format with
        :attr:`rebase_clock` anchors it at the first *accepted* record
        in file order, and a record timestamped before that origin is a
        bad row, reported at its line; a format that keeps its clock
        streams from ``0``. Anchoring at the first record — not at the
        first chunk's minimum — keeps the origin, every chunk's clock
        and the set of dropped rows invariant under ``chunk_rows``.
        Each chunk is sorted internally.
        """
        path = Path(path)
        stream = self._read(path, strict, quarantine, chunk_rows, max_requests, True)
        header = next(stream)
        for times, lbas, nsectors, is_write in stream:
            yield RequestTrace(
                times, lbas, nsectors, is_write,
                label=_label(label, header, path),
                capacity_sectors=header.capacity,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(format={self.format!r})"
