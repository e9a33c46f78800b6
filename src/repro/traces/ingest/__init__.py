"""Real-trace ingestion: format-keyed parsers for public block-trace archives.

The paper's multi-timescale characterization is only as good as the
traces it runs on. This package turns public trace archives into
scenario sources: a registry of streaming parsers, one per published
format, each normalizing that format's native units (timestamp ticks,
byte offsets) into the library's conventions (seconds from the first
arrival, 512-byte sectors) and producing a standard
:class:`~repro.traces.RequestTrace`. The library's own CSV is one of
them, so every request trace, native or foreign, is read one way.

Built-in formats
----------------
``native``
    This library's CSV, written by
    :func:`~repro.traces.io.write_request_trace`: an optional
    ``# span=… label=… capacity=…`` comment, then ``time,lba,nsectors,op``
    rows in seconds from the capture start and sectors. The one format
    that keeps its clock; the header's span, label and capacity carry
    through.
``msr``
    MSR Cambridge block traces (SNIA): CSV rows of
    ``timestamp,hostname,disknum,type,offset,size,latency`` with Windows
    FILETIME timestamps (100 ns ticks) and byte offsets/sizes.
``blktrace``
    Linux ``blktrace``/``blkparse`` text output: whitespace-separated
    event records; dispatch (``D``) events carry
    ``sector + nsectors`` in 512-byte units and second timestamps.
``alibaba``
    Alibaba cloud block-storage CSV:
    ``device_id,opcode,offset,length,timestamp`` with byte
    offsets/lengths and microsecond timestamps.
``spc``
    SPC / UMass repository format:
    ``ASU,LBA,size_bytes,opcode,timestamp`` with sector LBAs, byte
    sizes and second timestamps.

Every parser supports the strict/permissive row policy from
:mod:`repro.traces.io` (strict raises ``path:lineno``; permissive skips
corrupt rows into a :class:`~repro.traces.io.QuarantinedRow` list) and
streams files in bounded-size chunks, so multi-GB captures never
materialize as Python objects.

Usage::

    from repro.traces.ingest import get_parser

    parser = get_parser("msr")
    trace = parser.parse("proj_0.csv", strict=False, quarantine=bad_rows)

    for chunk in parser.iter_chunks("proj_0.csv", chunk_rows=100_000):
        characterizer.add_chunk(chunk.times, chunk.nsectors, chunk.is_write)
"""

from repro._lazy import lazy_exports

# The parsers register themselves on import, so they load with the
# package; TraceSource (only ``run-suite --trace`` needs it) loads on
# first access, which keeps it out of every CLI start.
from repro.traces.ingest import msr, blktrace, alibaba, spc, native  # noqa: F401

#: Public names by defining module, imported on first access (PEP 562).
_EXPORTS = {
    ".base": ("ParseRowError", "TraceParser"),
    ".registry": ("available_formats", "get_parser", "register_parser"),
    ".msr": ("MsrParser",),
    ".blktrace": ("BlktraceParser",),
    ".alibaba": ("AlibabaParser",),
    ".spc": ("SpcParser",),
    ".native": ("NativeParser",),
    ".source": ("TraceSource",),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
