"""I29 — trace ingestion: parse throughput and synthetic-twin fidelity.

Parses every committed sample through the ingest registry — one per
foreign format plus the library's own ``native`` CSV — in permissive
mode, so the foreign samples' deliberate corrupt rows land in
quarantine; measures rows/s of parse throughput, then closes the
calibration loop on each: fit a synthetic twin with ``fit_from_trace``
and score the real-vs-twin per-timescale divergence with
``validate_twin``. Results go to ``BENCH_ingest.json`` at the repo root.

The reproduction targets:

* every sample parses end-to-end with exactly its pinned numbers of
  good records and quarantined rows — the corrupt rows, nothing else;
* parse throughput stays above a loose floor (the streaming reader must
  not regress to quadratic or per-row-object behavior);
* each fitted twin stays within a per-format divergence bound across the
  validation timescales (rate, count CV, IDC, idle fraction).

Run directly (``python benchmarks/bench_ingest.py``, add ``--quick``
for the CI smoke variant with a single timing repeat) or via pytest;
both rewrite the artifact.
"""

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).parent))
from _common import SEED, save_result

from repro.core.report import Table
from repro.synth.calibrate import fit_from_trace, validate_twin
from repro.traces.ingest import get_parser

ARTIFACT = Path(__file__).parent.parent / "BENCH_ingest.json"
SAMPLE_DIR = Path(__file__).parent.parent / "tests" / "golden" / "data"

#: Committed sample per format (under ``tests/golden/data``), its pinned
#: good-record count and its known corrupt-row count.
SAMPLES = {
    "msr": ("ingest/sample_msr.csv", 1087, 2),
    "blktrace": ("ingest/sample_blktrace.txt", 1820, 2),
    "alibaba": ("ingest/sample_alibaba.csv", 1704, 2),
    "spc": ("ingest/sample_spc.csv", 3239, 2),
    "native": ("web_small.csv", 413, 0),
}

#: Validation timescales (seconds) — chosen so even the shortest sample
#: (spc, ~10 s) spans several bins at every scale.
SCALES = (0.5, 2.0, 5.0)

#: Max acceptable real-vs-twin divergence per format, with headroom over
#: the measured values so only genuine fit regressions trip the bound.
DIVERGENCE_BOUNDS = {
    "msr": 1.5,
    "blktrace": 2.0,
    "alibaba": 1.5,
    "spc": 2.5,
    "native": 2.0,
}

#: rows/s the streaming parser must sustain on the committed samples.
MIN_ROWS_PER_SECOND = 20_000.0


def measure(quick=False):
    """Parse + fit + validate every sample; returns ``{format: row}``."""
    repeats = 1 if quick else 3
    rows = {}
    for fmt, (filename, n_pinned, n_corrupt) in SAMPLES.items():
        path = SAMPLE_DIR / filename
        parser = get_parser(fmt)
        best = float("inf")
        trace = None
        quarantine = []
        for _ in range(repeats):
            quarantine = []
            start = perf_counter()
            trace = parser.parse(path, strict=False, quarantine=quarantine)
            best = min(best, perf_counter() - start)
        fit = fit_from_trace(trace)
        validation = validate_twin(trace, fit, scales=SCALES, seed=SEED)
        rows[fmt] = {
            "path": str(path.relative_to(ARTIFACT.parent)),
            "n_requests": len(trace),
            "n_quarantined": len(quarantine),
            "n_requests_expected": n_pinned,
            "n_corrupt_expected": n_corrupt,
            "span_seconds": round(trace.span, 3),
            "parse_seconds": best,
            "rows_per_second": (len(trace) + len(quarantine)) / best,
            "fit": fit,
            "validation": validation,
        }
    return rows


def write_artifact(rows, quick=False):
    payload = {
        "schema": 1,
        "generated_by": "benchmarks/bench_ingest.py",
        "seed": SEED,
        "quick": quick,
        "scales": list(SCALES),
        "min_rows_per_second": MIN_ROWS_PER_SECOND,
        "formats": {},
    }
    for fmt, row in rows.items():
        validation = row["validation"]
        payload["formats"][fmt] = {
            "sample": row["path"],
            "n_requests": row["n_requests"],
            "n_quarantined": row["n_quarantined"],
            "span_seconds": row["span_seconds"],
            "parse_seconds": round(row["parse_seconds"], 5),
            "rows_per_second": round(row["rows_per_second"]),
            "arrival_model": row["fit"].arrival["model"],
            "spatial_model": row["fit"].spatial["kind"],
            "twin_divergence": {
                f"{scale:g}": {k: round(v, 4) for k, v in stats.items()}
                for scale, stats in validation.per_scale.items()
            },
            "max_divergence": round(validation.max_divergence, 4),
            "divergence_bound": DIVERGENCE_BOUNDS[fmt],
        }
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def render_table(rows):
    table = Table(
        ["format", "requests", "quarantined", "rows_per_s", "arrival",
         "max_divergence", "bound"],
        title="I29: ingest throughput and twin fidelity per format",
        precision=3,
    )
    for fmt, row in rows.items():
        table.add_row(
            [
                fmt, row["n_requests"], row["n_quarantined"],
                round(row["rows_per_second"]),
                row["fit"].arrival["model"],
                row["validation"].max_divergence,
                DIVERGENCE_BOUNDS[fmt],
            ]
        )
    return table.render()


def check_bounds(rows, payload):
    """The reproduction targets; shared by pytest and direct runs."""
    assert ARTIFACT.exists()
    for fmt, entry in payload["formats"].items():
        # Exactly the planted corrupt rows are quarantined, and every
        # good record survives.
        assert entry["n_quarantined"] == rows[fmt]["n_corrupt_expected"], fmt
        assert entry["n_requests"] == rows[fmt]["n_requests_expected"], fmt
        # Streaming parse keeps its throughput floor.
        assert entry["rows_per_second"] > MIN_ROWS_PER_SECOND, fmt
        # The fitted twin stays within the per-format divergence bound.
        assert entry["max_divergence"] < entry["divergence_bound"], fmt


def test_ingest():
    rows = measure(quick=True)
    payload = write_artifact(rows, quick=True)
    save_result("ingest", render_table(rows))
    check_bounds(rows, payload)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="single timing repeat for CI smoke runs",
    )
    cli_args = parser.parse_args()
    computed = measure(quick=cli_args.quick)
    print(render_table(computed))
    artifact = write_artifact(computed, quick=cli_args.quick)
    check_bounds(computed, artifact)
    worst = max(
        artifact["formats"].items(), key=lambda kv: kv[1]["max_divergence"]
    )
    print(
        f"wrote {ARTIFACT} (worst twin divergence {worst[1]['max_divergence']} "
        f"on {worst[0]!r})"
    )
