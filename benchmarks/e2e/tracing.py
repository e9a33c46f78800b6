"""Per-layer spans for the traced pass, recorded from outside the code under test.

Child side: :func:`install` wraps the public entry points of each
``repro`` module (:data:`TARGETS`) so that every call records a span —
name, start, end, parent span, pid, CPU time and a request id (the job
label plus its attempt number inside ``run_job``). Modules that are not
imported yet are wrapped when they load, so a CLI that imports lazily
is traced the same way. A name that no longer exists is skipped, so a
deleted engine reads 0. Workers forked by the runner inherit the
wrappers; each buffers its spans and appends them to
``spans-<pid>.jsonl`` only when a ``run_job`` span closes, so an attempt
killed mid-job leaves nothing. The parent writes its spans at exit.

Analysis side: :func:`layer_metrics` turns one invocation's spans into
the ``per_layer`` metrics of ``BENCHMARK.json``. An ``_s`` metric is
self time: the span minus the union of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import importlib.abc
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

#: (module, attribute, span name). Module-level functions are wrapped in
#: the module's namespace and in every ``repro`` module that re-exports
#: the same object, so each call path is seen.
TARGETS = (
    ("repro.core.report", "Table.render", "cli.render"),
    ("repro.core.runner", "ExperimentRunner.run_suite", "runner.suite"),
    ("repro.core.runner", "ExperimentRunner.run_sharded", "runner.suite"),
    ("repro.core.runner", "run_job", "runner.job"),
    ("repro.core.journal", "SuiteJournal.record", "journal.record"),
    ("repro.synth.workload", "WorkloadProfile.synthesize", "synth.synthesize"),
    ("repro.disk.simulator", "DiskSimulator.run", "disk.run"),
    ("repro.disk.simulator", "_run_fcfs_vectorized", "disk.engine.fcfs_vectorized"),
    ("repro.disk.simulator", "run_fcfs_columnar", "disk.engine.fcfs_columnar"),
    ("repro.disk.simulator", "_run_fcfs_sequential", "disk.engine.fcfs_sequential"),
    ("repro.disk.simulator", "run_sstf_columnar", "disk.engine.sstf_columnar"),
    ("repro.disk.simulator", "run_sstf_windowed_columnar", "disk.engine.sstf_windowed"),
    ("repro.disk.simulator", "_run_sstf_sorted", "disk.engine.sstf_sorted"),
    ("repro.disk.simulator", "_run_event_loop", "disk.engine.event_loop"),
    ("repro.disk.simulator", "SimulationResult.describe_response", "disk.describe"),
    ("repro.fleet.run", "build_fleet_plan", "fleet.plan"),
    ("repro.fleet.multiplex", "synthesize_tenant_columns", "fleet.tenant_synth"),
    ("repro.fleet.multiplex", "combine_columns", "fleet.tenant_synth"),
    ("repro.fleet.qos", "tenant_qos_from_result", "fleet.qos"),
    ("repro.fleet.qos", "interference_report", "fleet.interference"),
    ("repro.fleet.scrub", "plan_fleet_scrub", "fleet.scrub"),
)

ENGINES = tuple(
    name.rpartition(".")[2] for _, _, name in TARGETS if name.startswith("disk.engine.")
)


def _simulated_requests(args, kwargs, result):
    trace = args[1] if len(args) > 1 else kwargs["trace"]
    return {"requests": len(trace)}


#: Extra per-span counts, taken at the same boundary as the span.
ANNOTATE = {"disk.run": _simulated_requests}


class Tracer:
    """Span buffer of one process; a forked child starts its own."""

    def __init__(self, out_dir) -> None:
        self.out_dir = Path(out_dir)
        self._start("main")

    def _start(self, request: str) -> None:
        self.pid = os.getpid()
        self.done: list = []
        self.stack: list = []
        self.next_id = 0
        self.request = request
        self.attempts: dict = {}

    def open(self, name: str) -> dict:
        if os.getpid() != self.pid:
            self._start("worker")
        span = {
            "id": self.next_id,
            "name": name,
            "parent": self.stack[-1]["id"] if self.stack else None,
            "pid": self.pid,
            "req": self.request,
            "cpu": time.process_time(),
            "start": time.monotonic(),
        }
        self.next_id += 1
        self.stack.append(span)
        return span

    def close(self, span: dict, attrs=None) -> None:
        span["end"] = time.monotonic()
        span["cpu"] = time.process_time() - span["cpu"]
        if attrs:
            span["attrs"] = attrs
        self.stack.remove(span)
        self.done.append(span)

    def record(self, name: str, start: float, end: float) -> None:
        """A span timed by the caller (no parent, no CPU reading)."""
        self.done.append({
            "id": self.next_id, "name": name, "parent": None, "pid": self.pid,
            "req": self.request, "cpu": 0.0, "start": start, "end": end,
        })
        self.next_id += 1

    def flush(self) -> None:
        if not self.done:
            return
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in self.done)
        self.done.clear()

    def job_span(self, job) -> dict:
        span = self.open("runner.job")
        label = getattr(job, "label", "?")
        self.attempts[label] = self.attempts.get(label, 0) + 1
        self.request = span["req"] = f"{label}#{self.attempts[label]}"
        return span


def _wrapper(tracer: Tracer, original, name: str):
    annotate = ANNOTATE.get(name)
    if name == "runner.job":
        @functools.wraps(original)
        def traced_job(job, *args, **kwargs):
            span = tracer.job_span(job)
            try:
                return original(job, *args, **kwargs)
            finally:
                tracer.close(span)
                tracer.request = "worker"
                tracer.flush()
        return traced_job

    @functools.wraps(original)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = original(*args, **kwargs)
        except BaseException:
            tracer.close(span)
            raise
        tracer.close(span, annotate(args, kwargs, result) if annotate else None)
        return result
    return traced


def wrap(tracer: Tracer, module, attribute: str, name: str) -> bool:
    """Wrap ``module.attribute`` (``Class.method`` allowed) in place.

    Returns False, wrapping nothing, when the name does not exist.
    """
    owner_path, _, leaf = attribute.rpartition(".")
    owner = module
    for part in filter(None, owner_path.split(".")):
        owner = getattr(owner, part, None)
    original = getattr(owner, leaf, None) if owner is not None else None
    if original is None:
        return False
    wrapped = _wrapper(tracer, original, name)
    setattr(owner, leaf, wrapped)
    if owner is module:
        for mod_name, other in list(sys.modules.items()):
            if other is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapped)
    return True


class _WrapOnImport(importlib.abc.MetaPathFinder):
    """Wraps a target module's names as soon as the module has executed."""

    def __init__(self, pending: dict) -> None:
        self.pending = pending  # module name -> callback(module)

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.pending:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        if spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        callback = self.pending.pop(fullname)

        def exec_and_wrap(module):
            exec_module(module)
            callback(module)

        spec.loader.exec_module = exec_and_wrap
        return spec


def install(out_dir) -> Tracer:
    """Wrap every target now or when its module loads; return the tracer."""
    tracer = Tracer(out_dir)
    by_module = defaultdict(list)
    for module_name, attribute, name in TARGETS:
        by_module[module_name].append((attribute, name))

    pending = {}
    for module_name, entries in by_module.items():
        def wrap_all(module, entries=entries):
            for attribute, name in entries:
                wrap(tracer, module, attribute, name)

        if module_name in sys.modules:
            wrap_all(sys.modules[module_name])
        else:
            pending[module_name] = wrap_all
    if pending:
        sys.meta_path.insert(0, _WrapOnImport(pending))
    return tracer


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def load_spans(trace_dir) -> list:
    """Every span the invocation's processes wrote. A worker killed while
    appending leaves a torn last line, which is dropped like the rest of
    that attempt."""
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            for line in fh:
                try:
                    spans.append(json.loads(line))
                except ValueError:
                    continue
    return spans


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def self_times(spans) -> dict:
    """``(pid, id) -> self time``: duration minus its children's union."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["pid"], span["parent"]].append(span)
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        inside = [
            (max(start, c["start"]), min(end, c["end"]))
            for c in children[span["pid"], span["id"]]
            if c["end"] > start and c["start"] < end
        ]
        result[span["pid"], span["id"]] = (end - start) - union_length(inside)
    return result


def layer_metrics(spans, setup_s: float, wall_s: float, payload: dict, workers: int) -> dict:
    """The per-layer metrics of one traced invocation (all but
    ``trace.overhead_frac``, which compares traced and untraced runs)."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    index = {(s["pid"], s["id"]): s for s in spans}

    def calls(name):
        return len(by_name[name])

    def total(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def self_s(*names):
        return sum(own[s["pid"], s["id"]] for name in names for s in by_name[name])

    def attr(name, key):
        return sum(s.get("attrs", {}).get(key, 0) for s in by_name[name])

    outer = [
        s for s in by_name["runner.suite"]
        if s["parent"] is None or index[s["pid"], s["parent"]]["name"] != "runner.suite"
    ]
    suite_wall = sum(s["end"] - s["start"] for s in outer)
    resilience = payload.get("resilience") or {}
    lost = resilience.get("suite.worker_crashes", 0) + resilience.get("suite.timeouts", 0)
    attempted = calls("runner.job") + lost
    first_describe = {}
    for span in by_name["disk.describe"]:
        best = first_describe.get(span["pid"])
        if best is None or span["start"] < best["start"]:
            first_describe[span["pid"]] = span
    requests = attr("disk.run", "requests")

    metrics = {
        "cli.import_s": self_s("cli.import"),
        "cli.render_s": self_s("cli.render"),
        "cli.residual_s": self_s("cli.main"),
        "runner.suite_s": self_s("runner.suite"),
        "runner.parent_cpu_s": sum(s["cpu"] for s in outer),
        "runner.job_busy_s": total("runner.job"),
        "runner.idle_frac": (
            1.0 - total("runner.job") / (workers * suite_wall) if suite_wall else 0.0
        ),
        "runner.jobs_attempted": attempted,
        "runner.useful_attempt_frac": (
            len(payload.get("jobs", ())) / attempted if attempted else 0.0
        ),
        "runner.kills": resilience.get("chaos.kills", 0),
        "runner.respawns": lost + resilience.get("guard.workers_recycled", 0),
        "journal.record_calls": calls("journal.record"),
        "journal.record_s": self_s("journal.record"),
        "synth.synthesize_calls": calls("synth.synthesize"),
        "synth.synthesize_s": self_s("synth.synthesize"),
        "disk.run_calls": calls("disk.run"),
        "disk.run_s": self_s("disk.run"),
        "disk.host_us_per_request": total("disk.run") / requests * 1e6 if requests else 0.0,
    }
    for engine in ENGINES:
        metrics[f"disk.engine.{engine}.calls"] = calls(f"disk.engine.{engine}")
        metrics[f"disk.engine.{engine}.s"] = self_s(f"disk.engine.{engine}")
    metrics.update({
        "disk.describe_s": self_s("disk.describe"),
        "disk.describe_first_s": sum(
            own[s["pid"], s["id"]] for s in first_describe.values()
        ),
        "fleet.plan_s": self_s("fleet.plan"),
        "fleet.tenant_synth_s": self_s("fleet.tenant_synth"),
        "fleet.qos_s": self_s("fleet.qos"),
        "fleet.interference_s": self_s("fleet.interference"),
        "fleet.scrub_s": self_s("fleet.scrub"),
        "trace.accounted_frac": (
            (setup_s + total("trace.install") + total("cli.main")) / wall_s
        ),
    })
    return metrics
