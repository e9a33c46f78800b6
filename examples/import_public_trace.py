#!/usr/bin/env python
"""Import a public-format trace and run the full characterization.

The ingest registry (``repro.traces.ingest``) parses the common public
block-trace formats — SPC (UMass Financial/WebSearch), MSR Cambridge,
blktrace and the Alibaba cloud block traces. This example writes a small SPC-format file (standing in for a downloaded
trace), imports it, and runs the same pipeline the paper applies:
summary, utilization, idleness, burstiness.

With a real download the only change is the file path::

    trace = get_parser("spc", asu=0).parse(
        "Financial1.spc", label="financial1", max_requests=500_000
    )

Run:  python examples/import_public_trace.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import cheetah_10k, run_millisecond_study
from repro.core.dossier import render_study_report
from repro.traces.ingest import get_parser


def write_demo_spc(path: Path, n: int = 5000, seed: int = 3) -> None:
    """A stand-in SPC file: bursty arrivals, mixed ops, hot region."""
    rng = np.random.default_rng(seed)
    clock = 0.0
    with path.open("w") as fh:
        fh.write("# synthetic SPC-format demo trace\n")
        for _ in range(n):
            # Bursty interarrivals: mostly tight, occasionally long lulls.
            clock += rng.exponential(0.02 if rng.uniform() < 0.9 else 1.0)
            hot = rng.uniform() < 0.7
            lba = int(rng.uniform(0, 2e6) if hot else rng.uniform(0, 1.8e8))
            size = int(rng.choice([4096, 8192, 65536], p=[0.6, 0.3, 0.1]))
            op = "W" if rng.uniform() < 0.62 else "R"
            fh.write(f"0,{lba},{size},{op},{clock:.6f}\n")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        spc_path = Path(tmp) / "demo.spc"
        write_demo_spc(spc_path)

        trace = get_parser("spc", asu=0).parse(spc_path, label="demo-spc")
        print(f"imported {len(trace)} requests spanning "
              f"{trace.span:.0f} s from {spc_path.name}\n")

        study = run_millisecond_study(trace, cheetah_10k())
        print(render_study_report(study, drive_name="enterprise-10k"))


if __name__ == "__main__":
    main()
