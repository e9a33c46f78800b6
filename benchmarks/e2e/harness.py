"""Workloads, one measured CLI invocation, output checks and statistics.

Every workload is a real ``repro-workloads`` command line run in a fresh
interpreter (``child.py``), one at a time: a closed loop with one
client. Each invocation yields one sample of the end-to-end metrics,
timed on CLOCK_MONOTONIC (``time.monotonic``), which is shared by all
processes on Linux, so the child's import-done mark lines up with the
parent's spawn time.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "child.py"
PINS = json.loads((HERE / "pins.json").read_text())
DEFAULT_SEED = PINS["seed"]
#: Equal to ``nproc`` on the reference machine (2 cores).
WORKERS = 2
#: An invocation still running after this long is killed and fails.
INVOCATION_TIMEOUT = 60.0
#: The chaos schedule is part of the suite-chaos workload, not of its
#: inputs: drawn from --seed, the number of kills and stalls (and so the
#: wall time) changed by up to half between seeds.
CHAOS_SEED = 2010

#: Keys whose values vary between identical runs (timings, the worker
#: count echo, what the chaos machinery absorbed).
VOLATILE_KEYS = frozenset({
    "wall_seconds", "replay_rate", "workers", "retries",
    "phase_wall", "phase_cpu", "resilience",
})


@dataclass(frozen=True)
class Workload:
    name: str
    #: Units attempted per invocation: suite jobs, or fleet drives.
    units: int
    #: ``argv(seed, work_dir)`` of the CLI; outputs go under ``work/inv``.
    argv: Callable[[int, Path], List[str]]


def _suite(*flags: str) -> Callable[[int, Path], List[str]]:
    def argv(seed: int, work: Path) -> List[str]:
        return ["run-suite", *flags, "--workers", str(WORKERS),
                "--base-seed", str(seed), "--json", str(work / "inv" / "out.json")]
    return argv


def _chaos(seed: int, work: Path) -> List[str]:
    return _suite(
        "--profiles", "database", "devel", "vod", "--seeds", "4", "--span", "30",
        "--chaos", "heavy", "--chaos-seed", str(CHAOS_SEED), "--max-retries", "2",
        "--journal", str(work / "inv" / "j.jsonl"),
    )(seed, work)


def fleet_argv(drives: int, span: int, *flags: str) -> Callable[[int, Path], List[str]]:
    def argv(seed: int, work: Path) -> List[str]:
        return ["fleet", "--tenants", str(4 * drives), "--drives", str(drives),
                "--span", str(span), *flags, "--seed", str(seed), "--workers", str(WORKERS),
                "--shard-size", "4", "--interference", "--scrub-budget", "60",
                "--json", str(work / "inv" / "out.json")]
    return argv


#: Runs compared with each other use different seeds, so the work of an
#: invocation must not depend on the seed. The profiles here are the
#: built-ins whose request counts vary least between seeds (devel,
#: database, vod); web, email, fileserver and hpc-scratch are bursty at
#: every time-scale, and one draw of them moved a suite's request count
#: by 10-25 %. With these, the count varies by about 3 % (CV).
WORKLOADS = {w.name: w for w in (
    Workload("suite-small", 16, _suite(
        "--profiles", "devel", "--schedulers", "fcfs", "sstf",
        "--seeds", "8", "--span", "20")),
    Workload("suite-degraded", 24, _suite(
        "--profiles", "database", "devel", "vod",
        "--schedulers", "fcfs", "sstf", "--seeds", "4", "--span", "30",
        "--fault-profile", "moderate", "--tier", "wb")),
    Workload("suite-chaos", 12, _chaos),
    # Clipping tenant rates to 10-100 req/s keeps a tenfold skew but holds
    # the fleet's total load steady across seeds; clipped at 200 alone, a
    # few saturated tenants gave it a 12 % interquartile spread.
    Workload("fleet", 64, fleet_argv(
        64, 10, "--tenant-profiles", "devel", "database", "vod",
        "--min-rate", "10", "--max-rate", "100")),
)}


def child_env(work: Path) -> dict:
    """The child's environment: ``src`` importable, one BLAS thread per
    process (two workers already fill the two cores), temp files kept
    inside the work directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["TMPDIR"] = str(work / "tmp")
    return env


def prepare(work: Path) -> None:
    """Create the work directory, then start the CLI once untimed, so
    bytecode caches are written before timing."""
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    env = child_env(work)
    env["E2E_MARKS"] = str(work / "warmup-marks.json")
    subprocess.run([sys.executable, str(CHILD), "profiles"], env=env, cwd=ROOT,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=INVOCATION_TIMEOUT, check=False)


# ----------------------------------------------------------------------
# One invocation
# ----------------------------------------------------------------------


def _run_child(argv, env, out_path: Path):
    """Spawn the child and wait for it; return (exit code, rusage, wall,
    spawn time).

    ``os.wait4`` reports the child's own usage plus that of every
    worker it reaped, so CPU time covers the whole process tree.
    """
    with open(out_path, "wb") as out:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT, start_new_session=True)
        timer = threading.Timer(INVOCATION_TIMEOUT, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.monotonic() - start
    # Already reaped by wait4: tell Popen, so it never waits on the pid again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, wall, start


def scrub(node):
    """Drop the volatile keys from a JSON payload, at any depth."""
    if isinstance(node, dict):
        return {key: scrub(value) for key, value in node.items()
                if key not in VOLATILE_KEYS}
    if isinstance(node, list):
        return [scrub(value) for value in node]
    return node


def digest(payload) -> str:
    text = json.dumps(scrub(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_payload(workload: Workload, payload: dict) -> List[str]:
    """Workload-specific invariants of a successful invocation."""
    problems = []
    if payload["n_jobs"] != workload.units or len(payload["jobs"]) != workload.units:
        problems.append(
            f"{len(payload['jobs'])} of {payload['n_jobs']} jobs completed, "
            f"expected {workload.units}"
        )
    if workload.name == "suite-chaos" and not payload.get("resilience", {}).get("chaos.kills"):
        problems.append("heavy chaos injected no kill")
    return problems


def invoke(workload: Workload, seed: int, work: Path, traced: bool = False) -> dict:
    """Run one invocation; return its sample of every metric."""
    inv = work / "inv"
    shutil.rmtree(inv, ignore_errors=True)
    inv.mkdir(parents=True)
    env = child_env(work)
    env["E2E_MARKS"] = str(inv / "marks.json")
    if traced:
        env["E2E_TRACE_DIR"] = str(inv)
    argv = [sys.executable, str(CHILD), *workload.argv(seed, work)]
    rc, usage, wall, start = _run_child(argv, env, inv / "stdout.txt")
    sample = {
        "traced": traced,
        "rc": rc,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "units": workload.units,
        "problems": [],
    }
    try:
        marks = json.loads((inv / "marks.json").read_text())
        payload = json.loads((inv / "out.json").read_text())
        sample["requests"] = sum(job["n_requests"] for job in payload["jobs"])
        sample["problems"] += check_payload(workload, payload)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        tail = (inv / "stdout.txt").read_text(errors="replace")[-400:]
        sample.update(
            setup_s=wall, peak_rss_mb=usage.ru_maxrss / 1024.0, requests=0,
            requests_per_s=0.0, digest=None, failed_units=workload.units,
            problems=[f"exit {rc}, unreadable output ({exc!r}): {tail}"],
        )
        return sample
    sample["setup_s"] = marks["imported"] - start
    sample["peak_rss_mb"] = marks["peak_rss_kb"] / 1024.0
    sample["requests_per_s"] = sample["requests"] / wall
    sample["digest"] = digest(payload)
    if rc != 0:
        sample["problems"].append(f"exit code {rc}")
    failures = len(payload.get("failures", ()))
    sample["failed_units"] = workload.units if sample["problems"] else failures
    if traced:
        spans = tracing.load_spans(inv)
        sample["layers"] = tracing.layer_metrics(
            spans, sample["setup_s"], wall, payload, WORKERS
        )
    return sample


# ----------------------------------------------------------------------
# Statistics and verdicts
# ----------------------------------------------------------------------


def summarize(values) -> dict:
    """Median, quartiles and count. Quartiles use the inclusive method,
    so with few samples they stay within the data instead of being
    extrapolated beyond it."""
    values = list(values)
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def reference_digest(name: str, samples, seed: int):
    """The digest every repeat must match: the pin at the pinned seed,
    otherwise the most common one among the repeats."""
    pinned = PINS["digests"].get(name) if seed == DEFAULT_SEED else None
    if pinned is not None:
        return pinned
    seen = [s["digest"] for s in samples if s["digest"] is not None]
    return max(set(seen), key=seen.count) if seen else None


def verdict(parent, change, better: str, bound: float) -> dict:
    """Compare per-run medians of one metric on one workload.

    ``parent`` and ``change`` are paired: ``parent[i]`` and ``change[i]``
    ran back to back. Improved needs the change to win at least 9 of 10
    pairs (ties count for neither) and the medians to differ by more
    than the parent's IQR; regressed means worse than the parent's
    median by more than ``bound``; a spread wider than the bound on
    either side leaves the metric unresolved unless every change run
    beats every parent run.
    """
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p, c = summarize(parent), summarize(change)
    gain = sign * (p["median"] - c["median"])  # > 0 when the change is better
    worse = -gain / p["median"]
    spread = max(p["iqr"] / p["median"], c["iqr"] / c["median"])
    dominates = all(sign * (pv - cv) > 0 for pv in parent for cv in change)
    if wins >= 0.9 * len(parent) and gain > p["iqr"]:
        outcome = "improved"
    elif spread > bound and not dominates:
        outcome = "unresolved"
    elif worse > bound:
        outcome = "regressed"
    else:
        outcome = "unchanged"
    return {"parent": p, "change": c, "win_frac": wins / len(parent),
            "worse_frac": worse, "spread": spread, "verdict": outcome}
