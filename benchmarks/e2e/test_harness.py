"""Tests of the benchmark's own machinery: ``pytest benchmarks/e2e -q``."""

import json
import pickle
import re
import statistics
import sys
import types

import pytest

import harness
import tracing

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def _span(pid, sid, start, end, parent=None, name="x"):
    return {"pid": pid, "id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "cpu": 0.0, "req": "main"}


def test_self_time_with_overlapping_and_nested_children():
    spans = [
        _span(1, 0, 0.0, 10.0),
        _span(1, 1, 1.0, 4.0, parent=0),   # overlaps its sibling ...
        _span(1, 2, 3.0, 6.0, parent=0),   # ... so the union is [1, 6]
        _span(1, 3, 2.0, 3.0, parent=1),   # nested one level deeper
        _span(1, 4, 9.0, 12.0, parent=0),  # runs past its parent: clipped
        _span(2, 0, 0.0, 1.0),             # same id, other process
    ]
    own = tracing.self_times(spans)
    assert own[1, 0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1, 1] == pytest.approx(2.0)
    assert own[1, 2] == pytest.approx(3.0)
    assert own[1, 3] == pytest.approx(1.0)
    assert own[2, 0] == pytest.approx(1.0)


def test_union_length():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)


def test_median_and_iqr():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    s = harness.summarize(values)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    assert (s["median"], s["q1"], s["q3"], s["n"]) == (3.0, q1, q3, 5)
    assert s["iqr"] == pytest.approx(2.0)
    pair = harness.summarize([1.0, 2.0])
    assert 1.0 <= pair["q1"] <= pair["q3"] <= 2.0
    single = harness.summarize([7.0])
    assert single["median"] == 7.0 and single["iqr"] == 0.0 and single["n"] == 1


PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


@pytest.mark.parametrize("change, better, expected", [
    ([0.80 + 0.001 * i for i in range(10)], "lower", "improved"),
    ([1.25 + 0.001 * i for i in range(10)], "lower", "regressed"),
    ([1.001, 1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99], "lower", "unchanged"),
    ([1.05] * 10, "lower", "unchanged"),  # worse, but within the bound
    ([0.80] * 10, "higher", "regressed"),
    ([1.30] * 10, "higher", "improved"),
])
def test_compare_verdicts(change, better, expected):
    assert harness.verdict(PARENT, change, better, 0.10)["verdict"] == expected


def test_compare_unresolved_when_spread_exceeds_bound():
    noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
    result = harness.verdict(noisy, [1.2] * 10, "lower", 0.10)
    assert result["spread"] > 0.10
    assert result["verdict"] == "unresolved"
    # ... unless every change run beats every parent run.
    assert harness.verdict(noisy, [0.6] * 10, "lower", 0.10)["verdict"] != "unresolved"


def test_compare_improvement_needs_nine_of_ten_wins():
    change = [0.8] * 8 + [1.05, 1.05]
    result = harness.verdict(PARENT, change, "lower", 0.10)
    assert result["win_frac"] == 0.8
    assert result["verdict"] == "unchanged"


def test_scrub_removes_only_volatile_keys():
    payload = {
        "n_jobs": 2, "workers": 2, "retries": 1, "wall_seconds": 0.5,
        "resilience": {"chaos.kills": 3},
        "jobs": [{"label": "a", "n_requests": 10, "wall_seconds": 0.1,
                  "replay_rate": 100.0, "phase_wall": None, "phase_cpu": None,
                  "tenant_qos": [{"tenant": 0, "p99": 0.01}]}],
    }
    assert harness.scrub(payload) == {
        "n_jobs": 2,
        "jobs": [{"label": "a", "n_requests": 10,
                  "tenant_qos": [{"tenant": 0, "p99": 0.01}]}],
    }
    moved = dict(payload, wall_seconds=9.9, workers=1)
    assert harness.digest(moved) == harness.digest(payload)
    assert harness.digest(dict(payload, n_jobs=3)) != harness.digest(payload)


def _fake_module(name):
    module = types.ModuleType(name)

    def run_job(job):
        return job * 2

    run_job.__module__, run_job.__qualname__ = name, "run_job"
    module.run_job = run_job
    module.Engine = type("Engine", (), {"run": lambda self, trace: len(trace)})
    return module


def test_wrapper_tolerates_missing_names(tmp_path, monkeypatch):
    module = _fake_module("fake_repro_mod")
    monkeypatch.setitem(sys.modules, module.__name__, module)
    tracer = tracing.Tracer(tmp_path)
    assert not tracing.wrap(tracer, module, "_run_deleted_engine", "disk.engine.gone")
    assert not tracing.wrap(tracer, module, "Missing.run", "disk.run")
    assert tracing.wrap(tracer, module, "Engine.run", "disk.run")
    assert module.Engine().run([1, 2, 3]) == 3
    (span,) = tracer.done
    assert span["name"] == "disk.run" and span["attrs"] == {"requests": 3}


def test_wrapped_job_pickles_by_name_and_flushes_on_close(tmp_path, monkeypatch):
    module = _fake_module("fake_repro_runner")
    monkeypatch.setitem(sys.modules, module.__name__, module)
    tracer = tracing.Tracer(tmp_path)
    assert tracing.wrap(tracer, module, "run_job", "runner.job")
    assert pickle.loads(pickle.dumps(module.run_job)) is module.run_job
    assert module.run_job(21) == 42 and module.run_job(21) == 42
    spans = tracing.load_spans(tmp_path)
    assert [s["name"] for s in spans] == ["runner.job", "runner.job"]
    assert tracer.done == []


def test_names_wrap_when_their_module_is_imported_later(tmp_path, monkeypatch):
    (tmp_path / "lazy_target_mod.py").write_text("def parse(path):\n    return [path]\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    tracer = tracing.Tracer(tmp_path)
    hook = tracing._WrapOnImport({
        "lazy_target_mod": lambda m: tracing.wrap(tracer, m, "parse", "fleet.plan"),
    })
    monkeypatch.setattr(sys, "meta_path", [hook, *sys.meta_path])
    monkeypatch.delitem(sys.modules, "lazy_target_mod", raising=False)
    import lazy_target_mod

    assert lazy_target_mod.parse("p") == ["p"]
    assert [s["name"] for s in tracer.done] == ["fleet.plan"]


def test_layer_metrics_of_a_small_trace():
    spans = [
        _span(1, 0, 0.30, 1.30, name="cli.main"),
        _span(1, 1, 0.40, 1.20, parent=0, name="runner.suite"),
        _span(1, 2, 1.20, 1.25, parent=0, name="cli.render"),
        _span(2, 0, 0.50, 0.90, name="runner.job"),
        _span(2, 1, 0.55, 0.60, parent=0, name="disk.describe"),
        _span(2, 2, 0.70, 0.71, parent=0, name="disk.describe"),
    ]
    payload = {"jobs": [{}], "resilience": {"chaos.kills": 1, "suite.worker_crashes": 1}}
    m = tracing.layer_metrics(spans, setup_s=0.25, wall_s=1.40, payload=payload, workers=2)
    assert m["cli.residual_s"] == pytest.approx(1.0 - 0.8 - 0.05)
    assert m["runner.idle_frac"] == pytest.approx(1 - 0.4 / (2 * 0.8))
    assert m["runner.jobs_attempted"] == 2 and m["runner.useful_attempt_frac"] == 0.5
    assert m["disk.describe_s"] == pytest.approx(0.06)
    assert m["disk.describe_first_s"] == pytest.approx(0.05)
    assert m["trace.accounted_frac"] == pytest.approx((0.25 + 1.0) / 1.40)
    assert m["disk.engine.sstf_sorted.calls"] == 0


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    layer_names = [m["name"] for m in SPEC["per_layer"]]
    computed = tracing.layer_metrics([], 1.0, 1.0, {}, 2)
    assert sorted(layer_names) == sorted([*computed, "trace.overhead_frac"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [*bounds, *layer_names, *harness.WORKLOADS]
    assert all(name.match(n) for n in names) and len(set(names)) == len(names)
