"""One end-to-end, layer-by-layer benchmark of the ``repro-workloads`` CLI.

Run from the repository root::

    python benchmarks/e2e/run.py [--workload W ...] [--seed 2009]
                                 [--seconds S] [--trace {0,1}] [--out DIR]
    python benchmarks/e2e/run.py --sweep fleet [--seed N] [--out DIR]
    python benchmarks/e2e/run.py compare PARENT_DIR CHANGE_DIR

The first form runs the chosen workloads (default: all four) as
back-to-back fresh-interpreter CLI invocations, round-robin across
workloads with the order rotated each round. Without ``--seconds`` each
workload runs 15 times; with it, repeats continue while the next one
should end within that many seconds (at least three per workload).
``--trace 1`` (or ``--traced``) pairs each invocation with a traced
one and reports the per-layer metrics instead. Every metric is printed
by name with its unit, every output is checked, and the last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--out DIR`` also saves the run as
``DIR/run-NNN.json`` for ``compare``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import harness

#: Fewest invocations per workload in a ``--seconds`` run, so a median
#: exists even for the slowest workload.
MIN_INVOCATIONS = 3
#: Invocations per workload in a pass without ``--seconds``; no tail
#: percentile would have ten samples beyond it, so none is reported.
FULL_PASS_REPS = 15
#: Traced invocations per workload, each paired with an untraced one.
TRACED_PAIRS = 2
SWEEP_DRIVES = (16, 64, 256)
SWEEP_SPAN = 60


def measure(names, seed: int, traced: bool, seconds, work: Path) -> dict:
    """Run the invocations; return the samples of each workload."""
    harness.prepare(work)
    samples = {name: [] for name in names}
    start = time.monotonic()

    def wants_more(name: str) -> bool:
        done = samples[name]
        if traced:
            least = 2 * TRACED_PAIRS
        else:
            least = MIN_INVOCATIONS if seconds else FULL_PASS_REPS
        if len(done) < least:
            return True
        if seconds is None:
            return False
        # Start another round only if it should end in time, so that a run
        # lasts ``seconds`` however long one invocation takes.
        round_s = statistics.median(s["wall_s"] for s in done) * (2 if traced else 1)
        return time.monotonic() - start + round_s <= seconds

    rounds = 0
    while True:
        shift = rounds % len(names)
        todo = [n for n in names[shift:] + names[:shift] if wants_more(n)]
        if not todo:
            return samples
        for name in todo:
            workload = harness.WORKLOADS[name]
            if traced:
                samples[name].append(harness.invoke(workload, seed, work))
            samples[name].append(harness.invoke(workload, seed, work, traced=traced))
        rounds += 1


def summarize_workload(name: str, samples, seed: int, spec: dict) -> dict:
    """Medians, failures and problems of one workload's invocations."""
    reference = harness.reference_digest(name, samples, seed)
    problems = []
    for sample in samples:
        problems += sample["problems"]
        if sample["digest"] is not None and sample["digest"] != reference:
            sample["failed_units"] = sample["units"]
            problems.append(f"{name}: digest {sample['digest']} != {reference}")
    attempted = sum(s["units"] for s in samples)
    failed = sum(s["failed_units"] for s in samples)
    plain = [s for s in samples if not s["traced"]]
    result = {
        "digest": reference,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems,
        "metrics": {
            m["name"]: harness.summarize(s[m["name"]] for s in plain)
            for m in spec["end_to_end"]
        },
        "samples": samples,
    }
    traced = [s for s in samples if s["traced"]]
    if traced:
        layers = {
            m["name"]: harness.summarize(s["layers"][m["name"]] for s in traced)
            for m in spec["per_layer"] if m["name"] != "trace.overhead_frac"
        }
        overhead = (
            statistics.median(s["wall_s"] for s in traced)
            / statistics.median(s["wall_s"] for s in plain) - 1.0
        )
        layers["trace.overhead_frac"] = harness.summarize([overhead])
        result["layers"] = layers
    return result


def _print_table(name: str, summaries: dict, units: dict) -> None:
    for metric, s in summaries.items():
        print(f"{name:<15} {metric:<36} {units[metric]:<6} median {s['median']:<12.6g} "
              f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} n {s['n']}")


def _env() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(), "nproc": os.cpu_count()}


def _save(out: Path, record: dict) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"run-{len(list(out.glob('run-*.json'))):03d}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def cmd_measure(args, spec: dict, work: Path) -> int:
    names = args.workloads or list(harness.WORKLOADS)
    unknown = sorted(set(names) - set(harness.WORKLOADS))
    if unknown:
        print(f"error: unknown workloads {unknown}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    samples = measure(names, args.seed, traced, args.seconds, work)
    section = "per_layer" if traced else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    results = {}
    for name in names:
        results[name] = summarize_workload(name, samples[name], args.seed, spec)
        r = results[name]
        _print_table(name, r["layers" if traced else "metrics"], units)
        print(f"{name:<15} failed_frac {r['failed_frac']:.4f} ({r['failed']} of "
              f"{r['attempted']} units)  digest {r['digest']}")
        for problem in r["problems"]:
            print(f"{name:<15} PROBLEM {problem}")
    if args.out is not None:
        record = {"seed": args.seed, "traced": traced, "env": _env(), "workloads": results}
        print(f"saved {_save(args.out, record)}")
    metrics = {}
    for name, r in results.items():
        for metric, s in r["layers" if traced else "metrics"].items():
            key = metric if len(names) == 1 else f"{name}/{metric}"
            metrics[key] = {"value": s["median"], "unit": units[metric]}
    correct = not any(r["problems"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def cmd_sweep(args, work: Path) -> int:
    """Traced fleet invocations at growing size: is the fleet simulate-bound?"""
    harness.prepare(work)
    rows = []
    for drives in SWEEP_DRIVES:
        workload = harness.Workload(
            f"fleet-{drives}", drives, harness.fleet_argv(drives, SWEEP_SPAN)
        )
        sample = harness.invoke(workload, args.seed, work, traced=True)
        layers = sample["layers"]
        disk_s = layers["disk.run_s"] + sum(
            layers[f"disk.engine.{e}.s"] for e in harness.tracing.ENGINES
        )
        rows.append({
            "drives": drives, "tenants": 4 * drives, "wall_s": sample["wall_s"],
            "requests": sample["requests"], "job_busy_s": layers["runner.job_busy_s"],
            "disk_s": disk_s, "disk_share": disk_s / layers["runner.job_busy_s"],
            "idle_frac": layers["runner.idle_frac"], "problems": sample["problems"],
        })
        print(" ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                       for k, v in rows[-1].items()))
    out = args.out if args.out is not None else harness.HERE / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / "fleet_sweep.json"
    path.write_text(json.dumps({"seed": args.seed, "env": _env(), "rows": rows},
                               indent=1) + "\n")
    print(f"saved {path}")
    return 1 if any(r["problems"] for r in rows) else 0


def cmd_compare(parent_dir: Path, change_dir: Path, spec: dict) -> int:
    """Paired verdicts for every workload and end-to-end metric."""
    parent = [json.loads(p.read_text()) for p in sorted(parent_dir.glob("run-*.json"))]
    change = [json.loads(p.read_text()) for p in sorted(change_dir.glob("run-*.json"))]
    pairs = min(len(parent), len(change))
    if pairs < 10:
        print(f"error: compare needs at least 10 run pairs, found {pairs}", file=sys.stderr)
        return 2
    parent, change = parent[:pairs], change[:pairs]
    flagged = False
    for name in parent[0]["workloads"]:
        if name not in change[0]["workloads"]:
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            v = harness.verdict(
                [r["workloads"][name]["metrics"][key]["median"] for r in parent],
                [r["workloads"][name]["metrics"][key]["median"] for r in change],
                metric["better"], metric["bound"],
            )
            p, c = v["parent"], v["change"]
            print(f"{name:<15} {key:<15} parent {p['median']:.6g} [{p['q1']:.6g}, "
                  f"{p['q3']:.6g}]  change {c['median']:.6g} [{c['q1']:.6g}, "
                  f"{c['q3']:.6g}]  wins {v['win_frac']:.2f}  {v['verdict']}")
            flagged |= v["verdict"] == "regressed"
        for i, (p_run, c_run) in enumerate(zip(parent, change)):
            p_w, c_w = p_run["workloads"][name], c_run["workloads"][name]
            if p_run["seed"] == c_run["seed"] and p_w["digest"] != c_w["digest"]:
                print(f"{name:<15} DIGEST MISMATCH in pair {i}: {p_w['digest']} vs {c_w['digest']}")
                flagged = True
        p_fail = max(r["workloads"][name]["failed_frac"] for r in parent)
        c_fail = max(r["workloads"][name]["failed_frac"] for r in change)
        if c_fail > p_fail:
            print(f"{name:<15} FAILED_FRAC rose from {p_fail:.4f} to {c_fail:.4f}")
            flagged = True
    return 1 if flagged else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent_dir", type=Path)
        parser.add_argument("change_dir", type=Path)
        args = parser.parse_args(argv[1:])
        return cmd_compare(args.parent_dir, args.change_dir, spec)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", "--workloads", dest="workloads", nargs="+",
                        action="extend", metavar="W", help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for this long instead of fixed repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--sweep", choices=("fleet",), default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if not (harness.ROOT / "src" / "repro" / "cli" / "main.py").is_file():
        print(f"error: no repro sources under {harness.ROOT / 'src'}", file=sys.stderr)
        return 2
    work = harness.ROOT / ".e2e" / f"work-{os.getpid()}"
    try:
        if args.sweep == "fleet":
            return cmd_sweep(args, work)
        return cmd_measure(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
