"""The repro-workloads command-line interface."""

from pathlib import Path

import pytest

from repro.cli.main import build_parser, main
from repro.traces.ingest import available_formats


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_profiles_lists_all(capsys):
    code, out, _ = run(capsys, "profiles")
    assert code == 0
    for name in ("web", "email", "database", "backup"):
        assert name in out


def test_study_reports_sections(capsys):
    code, out, _ = run(capsys, "study", "--profile", "web", "--span", "20")
    assert code == 0
    for heading in ("Workload", "Utilization", "Idleness", "Read/write dynamics"):
        assert heading in out


def test_study_unknown_profile_fails_cleanly(capsys):
    code, out, err = run(capsys, "study", "--profile", "nope", "--span", "5")
    assert code == 2
    assert "error:" in err


def test_synth_and_analyze_ms_roundtrip(tmp_path, capsys):
    trace_path = tmp_path / "t.csv"
    code, out, _ = run(
        capsys, "synth-ms", "--profile", "database", "--span", "15",
        "-o", str(trace_path),
    )
    assert code == 0
    assert trace_path.exists()
    assert "wrote" in out

    code, out, _ = run(capsys, "analyze-ms", str(trace_path))
    assert code == 0
    assert "database" in out
    assert "Utilization" in out


def test_analyze_ms_with_scheduler(tmp_path, capsys):
    trace_path = tmp_path / "t.csv"
    run(capsys, "synth-ms", "--profile", "web", "--span", "10", "-o", str(trace_path))
    code, out, _ = run(capsys, "analyze-ms", str(trace_path), "--scheduler", "sstf")
    assert code == 0


def test_ingest_native_round_trip_is_byte_identical(tmp_path, capsys):
    """``native`` is an ingest format like any other: reading the
    library's own CSV and writing it back reproduces the file exactly."""
    source = Path(__file__).parent / "golden" / "data" / "web_small.csv"
    out = tmp_path / "out.csv"
    code, stdout, _ = run(
        capsys, "ingest", str(source), "--format", "native", "-o", str(out)
    )
    assert code == 0
    assert "quarantined rows" in stdout
    assert out.read_bytes() == source.read_bytes()


def test_ingest_native_empty_trace_round_trips(tmp_path, capsys):
    """A native file that declares a span and holds no rows is a valid
    (all-idle) trace: ingest summarizes and rewrites it, no traceback."""
    from repro.traces.io import write_request_trace
    from repro.traces.millisecond import RequestTrace

    source, out = tmp_path / "idle.csv", tmp_path / "out.csv"
    write_request_trace(RequestTrace.empty(span=3.0, label="idle"), source)
    code, stdout, _ = run(
        capsys, "ingest", str(source), "--format", "native", "-o", str(out)
    )
    assert code == 0
    assert "wrote 0 requests" in stdout
    assert out.read_bytes() == source.read_bytes()


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_ingest_rejects_max_requests_below_one(limit, capsys):
    """A cap of no records is an input error, not a whole-file read."""
    source = Path(__file__).parent / "golden" / "data" / "web_small.csv"
    code, _, err = run(
        capsys, "ingest", str(source), "--format", "native", "--max-requests", limit
    )
    assert code == 2
    assert "max_requests must be >= 1" in err


def test_synth_and_analyze_hourly(tmp_path, capsys):
    path = tmp_path / "h.jsonl"
    code, out, _ = run(
        capsys, "synth-hourly", "--drives", "8", "--weeks", "1", "-o", str(path)
    )
    assert code == 0
    assert "8 drives" in out

    code, out, _ = run(capsys, "analyze-hourly", str(path))
    assert code == 0
    assert "Hour-scale analysis" in out
    assert "diurnal" in out


def test_synth_and_analyze_family(tmp_path, capsys):
    path = tmp_path / "f.csv"
    code, out, _ = run(capsys, "synth-family", "--drives", "200", "-o", str(path))
    assert code == 0

    code, out, _ = run(capsys, "analyze-family", str(path))
    assert code == 0
    assert "Family analysis" in out
    assert "Gini" in out


def test_drive_choice_respected(capsys):
    code, out, _ = run(
        capsys, "study", "--profile", "web", "--span", "10", "--drive", "enterprise-15k"
    )
    assert code == 0
    assert "enterprise-15k" in out


def test_run_suite_matrix(tmp_path, capsys):
    json_path = tmp_path / "suite.json"
    code, out, _ = run(
        capsys, "run-suite", "--profiles", "web", "database",
        "--schedulers", "fcfs", "sstf", "--span", "5", "--workers", "1",
        "--json", str(json_path),
    )
    assert code == 0
    assert "4 jobs" in out
    for token in ("web", "database", "fcfs", "sstf", "replay_req_s"):
        assert token in out

    import json

    payload = json.loads(json_path.read_text())
    assert payload["drive"] == "enterprise-10k"
    assert len(payload["jobs"]) == 4
    assert all(job["n_requests"] > 0 for job in payload["jobs"])


def test_run_suite_parallel_workers(capsys):
    code, out, _ = run(
        capsys, "run-suite", "--profiles", "web", "--span", "5",
        "--seeds", "2", "--workers", "2",
    )
    assert code == 0
    assert "2 jobs" in out


def test_run_suite_unknown_profile_fails_cleanly(capsys):
    code, _, err = run(capsys, "run-suite", "--profiles", "nope", "--workers", "1")
    assert code == 2
    assert "unknown profiles" in err


def _patch_failing_database_jobs(monkeypatch):
    from repro.core import runner as runner_module

    real = runner_module.run_job

    def flaky(job):
        if job.profile.name == "database":
            raise ValueError("injected database failure")
        return real(job)

    monkeypatch.setattr(runner_module, "run_job", flaky)


def test_run_suite_keep_going_reports_failures(tmp_path, capsys, monkeypatch):
    _patch_failing_database_jobs(monkeypatch)
    json_path = tmp_path / "suite.json"
    code, out, err = run(
        capsys, "run-suite", "--profiles", "web", "database", "--span", "5",
        "--workers", "1", "--keep-going", "--json", str(json_path),
    )
    assert code == 1
    assert "failures: 1 of 2" in out
    assert "ValueError" in out
    assert "injected database failure" in out
    assert "web" in out  # the surviving job is still tabulated

    import json

    payload = json.loads(json_path.read_text())
    assert len(payload["jobs"]) == 1
    assert len(payload["failures"]) == 1
    assert payload["failures"][0]["error_type"] == "ValueError"
    assert "Traceback" in payload["failures"][0]["traceback"]


def test_run_suite_fails_fast_by_default(capsys, monkeypatch):
    _patch_failing_database_jobs(monkeypatch)
    code, out, err = run(
        capsys, "run-suite", "--profiles", "database", "web", "--span", "5",
        "--workers", "1",
    )
    assert code == 1
    assert "error:" in err
    assert "failures: 1" in out


def test_run_suite_retry_flags_accepted(capsys):
    code, out, _ = run(
        capsys, "run-suite", "--profiles", "web", "--span", "5",
        "--workers", "1", "--max-retries", "2", "--job-timeout", "60",
    )
    assert code == 0
    assert "1 jobs" in out


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_drive():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["study", "--profile", "web", "--drive", "floppy"])


def test_run_suite_rejects_unknown_trace_format(tmp_path, capsys):
    """A misspelt --trace-format is a usage error before any job runs,
    like analyze-ms --format, not one TraceFormatError per job."""
    trace = tmp_path / "web.csv"
    trace.write_text("")
    with pytest.raises(SystemExit) as excinfo:
        main(["run-suite", "--trace", str(trace), "--trace-format", "msrr"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "--trace-format: invalid choice" in err
    for name in available_formats():
        assert repr(name) in err


def _registries():
    """Each registry-backed option's source of truth, in the CLI's order."""
    from repro.core.chaos import available_chaos_policies
    from repro.disk.faults import available_fault_profiles
    from repro.fleet.placement import PLACEMENT_POLICIES
    from repro.obs import OBS_LEVELS
    from repro.tier import TIER_MODES, available_heat_policies

    formats = list(available_formats())
    return {
        ("study", "--fault-profile"): list(available_fault_profiles()),
        ("study", "--tier"): ["off", *TIER_MODES],
        ("study", "--tier-policy"): list(available_heat_policies()),
        ("study", "--obs"): list(OBS_LEVELS),
        ("study", "--format"): formats,
        ("ingest", "--format"): formats,
        ("run-suite", "--trace-format"): formats,
        ("run-suite", "--chaos"): ["off", *available_chaos_policies()],
        ("fleet", "--placement"): list(PLACEMENT_POLICIES),
    }


def _action(command, option):
    parser = build_parser()
    (subparsers,) = [
        action for action in parser._subparsers._group_actions
        if hasattr(action, "choices")
    ]
    (action,) = [
        action for action in subparsers.choices[command]._actions
        if option in action.option_strings
    ]
    return action


@pytest.mark.parametrize("command, option", sorted(_registries()))
def test_option_choices_resolve_to_their_registry(command, option):
    action = _action(command, option)
    expected = _registries()[(command, option)]
    assert list(action.choices) == expected
    assert action.metavar is not None
    for name in expected:
        assert name in action.choices
    assert "no-such-name" not in action.choices
    # The help text lists the names in place of the metavar.
    assert ", ".join(expected) in action.help % {"choices": ", ".join(expected)}


def test_help_lists_registry_choices(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run-suite", "--help"])
    assert excinfo.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "one of light, moderate, severe" in out
    assert "one of off, metrics, trace" in out


def test_invalid_registry_choice_lists_the_names(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["study", "--profile", "web", "--obs", "loud"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "--obs: invalid choice: 'loud'" in err
    for level in ("off", "metrics", "trace"):
        assert repr(level) in err


def test_tenant_profiles_default_matches_fleet():
    from repro.cli.main import DEFAULT_TENANT_PROFILES
    from repro.fleet.tenant import DEFAULT_TENANT_PROFILES as fleet_default

    assert DEFAULT_TENANT_PROFILES == fleet_default
    args = build_parser().parse_args(["fleet"])
    assert args.tenant_profiles == list(fleet_default)
    assert " ".join(fleet_default) in _action("fleet", "--tenant-profiles").help


# run-suite and fleet share one runner/journal path; each case names the
# command's argv, its checkpoint unit, and how many units it journals.
SUITE_COMMANDS = {
    "run-suite": (
        ["run-suite", "--profiles", "web", "database", "--span", "5",
         "--workers", "1"],
        "job", 2,
    ),
    "fleet": (
        ["fleet", "--tenants", "4", "--drives", "3", "--span", "3",
         "--workers", "1", "--shard-size", "2"],
        "shard", 2,
    ),
}

SHARED_SUITE_FLAGS = {
    "--queue-depth", "--workers", "--max-retries", "--keep-going",
    "--journal", "--resume", "--chaos", "--chaos-seed", "--json",
    "--drive", "--fault-profile", "--tier", "--tier-policy", "--obs",
    "--trace-events",
}
RUN_SUITE_LIMITS = {"--job-timeout", "--suite-deadline", "--rss-limit-mb"}


def _option_strings(command):
    parser = build_parser()
    (subparsers,) = [
        action for action in parser._subparsers._group_actions
        if hasattr(action, "choices")
    ]
    return {
        option
        for action in subparsers.choices[command]._actions
        for option in action.option_strings
    }


def _canonical(payload):
    """The payload minus run-to-run volatile fields."""
    volatile = {"wall_seconds", "replay_rate", "resilience"}
    if isinstance(payload, dict):
        return {k: _canonical(v) for k, v in payload.items() if k not in volatile}
    if isinstance(payload, list):
        return [_canonical(v) for v in payload]
    return payload


@pytest.mark.parametrize("command", sorted(SUITE_COMMANDS))
def test_suite_journal_resume_replays_nothing(command, tmp_path, capsys):
    import json

    argv, unit, n_units = SUITE_COMMANDS[command]
    journal = str(tmp_path / "journal.jsonl")
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    code, out, _ = run(capsys, *argv, "--journal", journal, "--json", str(first))
    assert code == 0
    assert f"{n_units} {unit}(s) recorded this run, {n_units} of {n_units}" in out

    code, out, _ = run(
        capsys, *argv, "--journal", journal, "--resume", "--json", str(second)
    )
    assert code == 0
    assert (
        f"(resuming from journal {journal}: {n_units} of {n_units} {unit}s "
        "already recorded, skipping them)"
    ) in out
    assert f"0 {unit}(s) recorded this run, {n_units} of {n_units}" in out
    resumed = json.loads(second.read_text())
    assert resumed["resilience"]["journal.resumed_jobs"] == n_units
    assert _canonical(resumed) == _canonical(json.loads(first.read_text()))


@pytest.mark.parametrize("command", sorted(SUITE_COMMANDS))
def test_suite_resume_requires_journal(command, capsys):
    argv, _, _ = SUITE_COMMANDS[command]
    code, _, err = run(capsys, *argv, "--resume")
    assert code == 2
    assert "--resume requires --journal PATH" in err


def test_suite_commands_share_one_flag_set():
    run_suite, fleet = _option_strings("run-suite"), _option_strings("fleet")
    assert SHARED_SUITE_FLAGS <= run_suite and SHARED_SUITE_FLAGS <= fleet
    assert RUN_SUITE_LIMITS <= run_suite
    assert not RUN_SUITE_LIMITS & fleet


def test_analyze_ms_is_study_over_a_trace(tmp_path, capsys):
    trace_path = tmp_path / "t.csv"
    run(capsys, "synth-ms", "--profile", "web", "--span", "10", "-o", str(trace_path))
    flags = ["--scheduler", "sstf", "--fault-profile", "light", "--tier", "wt"]
    code_a, analyzed, _ = run(capsys, "analyze-ms", str(trace_path), *flags)
    code_s, studied, _ = run(capsys, "study", "--trace", str(trace_path), *flags)
    assert code_a == code_s == 0
    assert analyzed == studied


@pytest.mark.parametrize("command", sorted(SUITE_COMMANDS))
def test_suite_trace_events_dump_every_job(command, tmp_path, capsys):
    import json

    argv, _, _ = SUITE_COMMANDS[command]
    path = tmp_path / "events.jsonl"
    code, out, _ = run(capsys, *argv, "--trace-events", str(path))
    assert code == 0
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert events and all("job" in event for event in events)
    assert f"wrote {len(events)} trace events to {path}" in out


@pytest.mark.parametrize("command", sorted(SUITE_COMMANDS))
def test_suite_obs_renders_phases_and_metrics(command, tmp_path, capsys):
    import json

    argv, _, _ = SUITE_COMMANDS[command]
    path = tmp_path / "out.json"
    code, out, _ = run(capsys, *argv, "--obs", "metrics", "--json", str(path))
    assert code == 0
    assert "per-phase breakdown (obs=metrics)" in out
    assert "(suite-wide metrics: " in out
    payload = json.loads(path.read_text())
    assert payload["obs_level"] == "metrics"
    assert "simulate" in payload["phase_breakdown"]
    assert payload["metrics"]
