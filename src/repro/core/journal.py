"""Durable checkpoint/resume journal for experiment suites.

A suite of replay jobs at fleet scale runs for hours; losing every
completed job to one crash makes long sweeps infeasible (the restart
cost TraceTracker and the Alibaba-scale analyses both design around).
:class:`SuiteJournal` is the repair: an append-only, fsync'd,
schema-versioned JSONL write-ahead log of completed
:class:`~repro.core.runner.JobResult`\\ s, keyed by a deterministic
**job-spec fingerprint**, that the
:class:`~repro.core.runner.ExperimentRunner` writes as jobs resolve and
reads back to *resume*: journaled jobs are skipped, their recorded
results merged verbatim, and the resumed suite's report is canonically
bit-identical to an uninterrupted run
(:meth:`~repro.core.runner.SuiteReport.canonical_json`).

File layout — one JSON object per line:

* line 1, the **header**: ``{"kind": "header", "schema_version": 1,
  "suite_fingerprint": ..., "n_jobs": N, "fingerprints": [...]}``.
  The suite fingerprint pins the exact ordered job list, so a journal
  can never be resumed against a different suite.
* each subsequent line, a **result record**: ``{"kind": "result",
  "fingerprint": ..., "index": i, "result": {...}}`` — appended and
  fsync'd *after* the job resolves (write-ahead of the report, not of
  the work), so every record describes a fully completed job.

Durability semantics:

* every append is flushed and ``fsync``'d before the runner moves on —
  a ``SIGKILL`` at any instant loses at most the in-flight jobs;
* a torn final line (the crash landed mid-``write``) is detected and
  dropped on load; a malformed line anywhere *before* the end is
  corruption and raises :class:`~repro.errors.JournalError`;
* wrong schema versions and fingerprint mismatches raise
  :class:`~repro.errors.JournalError` with actionable messages instead
  of silently merging the wrong results.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import is_dataclass, fields as dataclass_fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, TextIO

import numpy as np

from repro.errors import JournalError

#: Bump on any backwards-incompatible change to the journal layout.
JOURNAL_SCHEMA_VERSION = 1


def _fingerprint_payload(value: Any) -> Any:
    """A JSON-able, deterministic rendering of one job-spec value."""
    if is_dataclass(value) and not isinstance(value, type):
        return {
            "__type__": type(value).__name__,
            **{
                f.name: _fingerprint_payload(getattr(value, f.name))
                for f in dataclass_fields(value)
            },
        }
    if isinstance(value, np.ndarray):
        return {
            "__ndarray__": hashlib.sha256(
                np.ascontiguousarray(value).tobytes()
            ).hexdigest(),
            "dtype": str(value.dtype),
            "shape": list(value.shape),
        }
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (frozenset, set)):
        return sorted(_fingerprint_payload(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_fingerprint_payload(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _fingerprint_payload(v) for k, v in sorted(value.items())}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, os.PathLike):
        return {"__path__": os.fspath(value)}
    # Plain spec-like objects (size/mix models, duck-typed trace
    # sources): class name plus attribute dict. The default repr would
    # embed a memory address and break cross-process stability.
    state = getattr(value, "__dict__", None)
    if isinstance(state, dict):
        return {
            "__object__": type(value).__name__,
            **{str(k): _fingerprint_payload(v) for k, v in sorted(state.items())},
        }
    return {"__repr__": repr(value)}


def job_fingerprint(job: Any) -> str:
    """A stable hex fingerprint of one job spec.

    Deterministic across processes, machines and runs (sha256 over the
    canonical JSON of the job's dataclass tree); two jobs share a
    fingerprint iff they would deterministically produce the same
    :class:`~repro.core.runner.JobResult`.
    """
    payload = _fingerprint_payload(job)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def suite_fingerprint(fingerprints: Sequence[str]) -> str:
    """Fingerprint of the whole ordered job list."""
    joined = "\n".join(fingerprints)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:24]


class SuiteJournal:
    """The append-only WAL of one suite's completed jobs.

    Build one with :meth:`open` (fresh or resumed) and pass it to
    :meth:`ExperimentRunner.run_suite(..., journal=...)
    <repro.core.runner.ExperimentRunner.run_suite>`; the runner skips
    every job whose fingerprint is already journaled and records each
    newly completed job. Use as a context manager or call :meth:`close`.
    """

    def __init__(
        self,
        path: Path,
        fingerprints: List[str],
        completed: Dict[str, Dict[str, Any]],
        handle: TextIO,
        resumed: bool,
        recovered_torn_line: bool,
    ) -> None:
        self.path = path
        self.fingerprints = fingerprints
        self._completed = completed
        self._handle: Optional[TextIO] = handle
        #: True when this journal was opened with ``resume=True``.
        self.resumed = resumed
        #: True when load dropped a torn (partially written) final line.
        self.recovered_torn_line = recovered_torn_line
        self.n_recorded = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def open(
        cls, path: os.PathLike, jobs: Sequence[Any], resume: bool = False
    ) -> "SuiteJournal":
        """Open the journal at ``path`` for the given ordered job list.

        Fresh mode (``resume=False``) refuses an existing file — resuming
        must be an explicit decision, and overwriting a journal silently
        would destroy exactly the state it exists to protect. Resume mode
        requires the file, validates its header against these jobs, and
        loads every completed record.
        """
        path = Path(path)
        fingerprints = [job_fingerprint(job) for job in jobs]
        suite_fp = suite_fingerprint(fingerprints)
        if not resume:
            if path.exists():
                raise JournalError(
                    f"journal {path} already exists; resume it (--resume) "
                    "or delete the file to start a fresh suite"
                )
            handle = path.open("w", encoding="utf-8")
            header = {
                "kind": "header",
                "schema_version": JOURNAL_SCHEMA_VERSION,
                "suite_fingerprint": suite_fp,
                "n_jobs": len(fingerprints),
                "fingerprints": fingerprints,
            }
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
            return cls(path, fingerprints, {}, handle, False, False)

        if not path.exists():
            raise JournalError(
                f"cannot resume: journal {path} does not exist "
                "(drop --resume to start a fresh suite)"
            )
        completed, torn = cls._load(path, fingerprints, suite_fp)
        handle = path.open("a", encoding="utf-8")
        return cls(path, fingerprints, completed, handle, True, torn)

    @staticmethod
    def _load(
        path: Path, fingerprints: List[str], suite_fp: str
    ):
        raw = path.read_text(encoding="utf-8")
        lines = raw.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        if not lines:
            raise JournalError(f"journal {path} is empty (no header line)")
        torn = False
        records: List[Dict[str, Any]] = []
        for lineno, line in enumerate(lines, start=1):
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("journal lines must be JSON objects")
            except ValueError as exc:
                if lineno == len(lines):
                    # Torn final record: the writer died mid-append. The
                    # preceding records are all fsync'd and complete.
                    torn = True
                    break
                raise JournalError(
                    f"journal {path} is corrupt at line {lineno}: {exc}"
                ) from exc
            records.append(record)
        if not records:
            raise JournalError(
                f"journal {path} has no intact header line"
            )
        header = records[0]
        if header.get("kind") != "header":
            raise JournalError(
                f"journal {path} does not start with a header record "
                f"(got kind={header.get('kind')!r})"
            )
        version = header.get("schema_version")
        if version != JOURNAL_SCHEMA_VERSION:
            raise JournalError(
                f"journal {path} has schema_version {version!r}; this "
                f"library writes and reads version {JOURNAL_SCHEMA_VERSION}. "
                "Re-run the suite without --resume to write a fresh journal."
            )
        if header.get("suite_fingerprint") != suite_fp:
            raise JournalError(
                f"journal {path} belongs to a different suite "
                f"(journal fingerprint {header.get('suite_fingerprint')!r}, "
                f"current job list {suite_fp!r}). The job list — profiles, "
                "drive, schedulers, seeds, spans, fault/tier/obs settings — "
                "must match the original run exactly to resume."
            )
        known = set(fingerprints)
        completed: Dict[str, Dict[str, Any]] = {}
        for record in records[1:]:
            if record.get("kind") != "result":
                raise JournalError(
                    f"journal {path} has an unknown record kind "
                    f"{record.get('kind')!r}"
                )
            fp = record.get("fingerprint")
            if fp not in known:
                raise JournalError(
                    f"journal {path} records a result for fingerprint "
                    f"{fp!r}, which is not in the suite being resumed"
                )
            if "result" not in record:
                raise JournalError(
                    f"journal {path} has a result record without a result "
                    f"payload (fingerprint {fp!r})"
                )
            completed[fp] = record["result"]
        return completed, torn

    # ------------------------------------------------------------------
    # Runner-facing API
    # ------------------------------------------------------------------

    @property
    def n_completed(self) -> int:
        """Completed jobs on disk (from this run and any prior ones)."""
        return len(self._completed)

    def completed_results(self) -> Dict[int, Dict[str, Any]]:
        """``job index -> serialized JobResult`` for journaled jobs.

        Duplicate job specs (identical fingerprints) share the recorded
        result — by construction they would produce it deterministically.
        """
        out: Dict[int, Dict[str, Any]] = {}
        for index, fp in enumerate(self.fingerprints):
            if fp in self._completed:
                out[index] = self._completed[fp]
        return out

    def record(self, index: int, result_payload: Dict[str, Any]) -> None:
        """Durably append one completed job's serialized result.

        Flushed and fsync'd before returning: once :meth:`record`
        returns, the result survives any crash of this process.
        """
        if self._handle is None:
            raise JournalError(f"journal {self.path} is closed")
        if not 0 <= index < len(self.fingerprints):
            raise JournalError(
                f"job index {index} is outside this journal's suite "
                f"(n_jobs={len(self.fingerprints)})"
            )
        fp = self.fingerprints[index]
        record = {
            "kind": "result",
            "fingerprint": fp,
            "index": index,
            "result": result_payload,
        }
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._completed[fp] = result_payload
        self.n_recorded += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SuiteJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._handle is None else "open"
        return (
            f"SuiteJournal({str(self.path)!r}, {state}, "
            f"completed={self.n_completed}/{len(self.fingerprints)})"
        )
