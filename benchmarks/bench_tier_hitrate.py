"""T28 — SSD tier: hit rate, HDD offload, and miss-tail inflation.

Replays the same skewed (``database``) workload through the hybrid
SSD/HDD tier at the paper's three observation timescales — a seconds
burst, a one-minute window, and a sustained five-minute run — once under
write-through and once under write-back admission, and writes the tier
statistics to ``BENCH_tier.json`` at the repo root.

The reproduction targets:

* write-back hit rate meets or beats write-through at every timescale
  (write-allocation captures the write working set wt never admits);
* the SSD absorbs a measurable fraction of bytes that would otherwise
  hit the HDD (``hdd_offload``);
* tier misses inflate the p99 response relative to hits under
  write-back at every timescale (the miss path pays HDD seek + rotation
  while hits ride flash).

The workload is concentrated on a hot region (1/64 of the drive) so the
tier capacity is commensurate with the working set; over the raw 90 GB
address space a 256 MiB tier never warms up and every policy looks the
same.

A capacity sweep then replays the ``window`` timescale with 64 MiB to
1 GiB of flash (``capacity_sweep`` in the artifact): the hit rate climbs
and evictions fall as the tier grows toward the hot region. LRU evicts
from a victim heap, so the 1 GiB points cost no more per eviction than
the 64 MiB ones.

Run directly (``python benchmarks/bench_tier_hitrate.py``, add
``--quick`` for the CI smoke variant with shortened spans) or via
pytest; both rewrite the artifact.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import DRIVE, SEED, save_result

from repro.core.latency import analyze_tier_tail
from repro.core.report import Table
from repro.disk.simulator import DiskSimulator
from repro.synth.profiles import get_profile
from repro.tier import TierConfig
from repro.units import MIB

ARTIFACT = Path(__file__).parent.parent / "BENCH_tier.json"

#: Skewed workload and the fraction of the drive it concentrates on.
PROFILE, RATE, REGION_FRACTION = "database", 150.0, 64

#: The three observation timescales (name, span seconds).
TIMESCALES = (("burst", 5.0), ("window", 60.0), ("sustained", 300.0))
QUICK_TIMESCALES = (("burst", 2.0), ("window", 10.0), ("sustained", 30.0))

#: Tier sizing shared by both admission modes.
TIER_CAPACITY_BYTES = 256 * MIB
TIER_CHUNK_SECTORS = 2048
TIER_POLICY = "lru"

#: Flash capacities (MiB) of the sweep at the ``window`` timescale.
SWEEP_TIMESCALE = "window"
SWEEP_CAPACITIES_MIB = (64, 128, 256, 512, 1024)


def _tier(mode, capacity_bytes=TIER_CAPACITY_BYTES):
    return TierConfig(
        mode=mode,
        policy=TIER_POLICY,
        capacity_bytes=capacity_bytes,
        chunk_sectors=TIER_CHUNK_SECTORS,
        migrate_interval=2.0,
        migrate_chunks_per_epoch=128,
    )


def _trace(span):
    region = DRIVE.capacity_sectors // REGION_FRACTION
    profile = get_profile(PROFILE).with_rate(RATE)
    return profile.synthesize(span=span, capacity_sectors=region, seed=SEED)


def _replay_modes(trace, capacity_bytes=TIER_CAPACITY_BYTES):
    """``{mode: (summary, TierTailAnalysis)}`` for wt and wb."""
    per_mode = {}
    for mode in ("wt", "wb"):
        tier = _tier(mode, capacity_bytes)
        result = DiskSimulator(DRIVE, seed=SEED, tier=tier).run(trace)
        per_mode[mode] = (result.tier_summary, analyze_tier_tail(result))
    return per_mode


def measure(quick=False):
    """Replay wt and wb at each timescale; returns
    ``{scale: {"span": s, "modes": {mode: (summary, TierTailAnalysis)}}}``."""
    return {
        name: {"span": span, "modes": _replay_modes(_trace(span))}
        for name, span in (QUICK_TIMESCALES if quick else TIMESCALES)
    }


def measure_capacity_sweep(quick=False):
    """Replay wt and wb at the sweep timescale for every capacity;
    returns ``{"span": s, "points": {mib: {mode: (summary, tail)}}}``."""
    span = dict(QUICK_TIMESCALES if quick else TIMESCALES)[SWEEP_TIMESCALE]
    trace = _trace(span)
    return {
        "span": span,
        "points": {
            mib: _replay_modes(trace, mib * MIB) for mib in SWEEP_CAPACITIES_MIB
        },
    }


def _mode_record(summary, tail):
    return {
        "n_requests": tail.n_requests,
        "n_hits": tail.n_hits,
        "n_misses": tail.n_misses,
        "hit_rate": round(summary["hit_rate"], 4),
        "hdd_offload": round(summary["hdd_offload"], 4),
        "flushed_bytes": summary["flushed_bytes"],
        "dirty_evictions": summary["dirty_evictions"],
        "promoted_chunks": summary["promoted_chunks"],
        "demoted_chunks": summary["demoted_chunks"],
        "hit_p99_ms": round(tail.hit.p99_response * 1e3, 4),
        "miss_p99_ms": round(tail.miss.p99_response * 1e3, 4),
        "miss_p99_inflation": round(tail.miss_inflation["p99"], 4),
    }


def write_artifact(rows, sweep, quick=False):
    payload = {
        "schema": 1,
        "generated_by": "benchmarks/bench_tier_hitrate.py",
        "seed": SEED,
        "quick": quick,
        "workload": {
            "profile": PROFILE,
            "rate": RATE,
            "drive": DRIVE.name,
            "region_fraction": REGION_FRACTION,
        },
        "tier": {
            "capacity_bytes": TIER_CAPACITY_BYTES,
            "chunk_sectors": TIER_CHUNK_SECTORS,
            "policy": TIER_POLICY,
        },
        "timescales": {},
    }
    for name, row in rows.items():
        payload["timescales"][name] = {
            "span_seconds": row["span"],
            "modes": {
                mode: _mode_record(summary, tail)
                for mode, (summary, tail) in row["modes"].items()
            },
        }
    payload["capacity_sweep"] = {
        "timescale": SWEEP_TIMESCALE,
        "span_seconds": sweep["span"],
        "points": [
            {
                "capacity_bytes": mib * MIB,
                "modes": {
                    mode: {
                        **_mode_record(summary, tail),
                        "evictions": summary["evictions"],
                    }
                    for mode, (summary, tail) in per_mode.items()
                },
            }
            for mib, per_mode in sweep["points"].items()
        ],
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def render_table(rows):
    table = Table(
        ["scale", "mode", "requests", "hit_rate", "hdd_offload",
         "hit_p99_ms", "miss_p99_ms", "miss_p99_infl"],
        title="T28: SSD tier hit rate and miss-tail inflation (database)",
        precision=3,
    )
    for name, row in rows.items():
        for mode, (summary, tail) in row["modes"].items():
            table.add_row(
                [
                    name, mode, tail.n_requests,
                    summary["hit_rate"], summary["hdd_offload"],
                    tail.hit.p99_response * 1e3,
                    tail.miss.p99_response * 1e3,
                    tail.miss_inflation["p99"],
                ]
            )
    return table.render()


def render_sweep(sweep):
    table = Table(
        ["capacity_mib", "mode", "hit_rate", "hdd_offload", "evictions",
         "miss_p99_infl"],
        title=f"T28: tier capacity sweep ({SWEEP_TIMESCALE}, "
              f"{sweep['span']:g} s)",
        precision=3,
    )
    for mib, per_mode in sweep["points"].items():
        for mode, (summary, tail) in per_mode.items():
            table.add_row(
                [
                    mib, mode, summary["hit_rate"], summary["hdd_offload"],
                    summary["evictions"], tail.miss_inflation["p99"],
                ]
            )
    return table.render()


def test_tier_hitrate():
    rows = measure(quick=True)
    sweep = measure_capacity_sweep(quick=True)
    payload = write_artifact(rows, sweep, quick=True)
    save_result("tier_hitrate", render_table(rows) + "\n" + render_sweep(sweep))
    assert ARTIFACT.exists()
    for name, scale in payload["timescales"].items():
        wt, wb = scale["modes"]["wt"], scale["modes"]["wb"]
        # Write-allocation captures the write working set wt never admits.
        assert wb["hit_rate"] >= wt["hit_rate"], name
        # The tier measurably offloads the HDD in both modes.
        for mode in (wt, wb):
            assert 0.0 < mode["hdd_offload"] < 1.0, name
        # Under wb the miss path pays the HDD premium at the p99.
        assert wb["miss_p99_inflation"] > 1.0, name
        assert wb["n_hits"] + wb["n_misses"] == wb["n_requests"]
    # More flash never hurts: the largest tier hits at least as often and
    # evicts less than the smallest, in both modes.
    points = payload["capacity_sweep"]["points"]
    for mode in ("wt", "wb"):
        small, large = points[0]["modes"][mode], points[-1]["modes"][mode]
        assert large["hit_rate"] >= small["hit_rate"], mode
        assert large["evictions"] < small["evictions"], mode


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="shortened spans for CI smoke runs",
    )
    cli_args = parser.parse_args()
    computed = measure(quick=cli_args.quick)
    swept = measure_capacity_sweep(quick=cli_args.quick)
    print(render_table(computed))
    print(render_sweep(swept))
    artifact = write_artifact(computed, swept, quick=cli_args.quick)
    sustained = artifact["timescales"]["sustained"]["modes"]
    print(
        f"wrote {ARTIFACT} (sustained wb hit rate "
        f"{sustained['wb']['hit_rate']}, wt {sustained['wt']['hit_rate']}, "
        f"wb miss p99 inflation {sustained['wb']['miss_p99_inflation']}x)"
    )
