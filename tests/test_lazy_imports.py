"""Package ``__init__``s resolve their public names lazily (PEP 562)."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY_PACKAGES = (
    "repro",
    "repro.cli",
    "repro.core",
    "repro.disk",
    "repro.fleet",
    "repro.host",
    "repro.obs",
    "repro.stats",
    "repro.synth",
    "repro.tier",
    "repro.traces",
    "repro.traces.ingest",
)

# Modules (an entry also covers its submodules) that importing the CLI
# must not load: each subcommand's handler imports what it uses, and an
# option's choices are resolved only when the option is given. A bare
# run-suite loads none of them either.
NOT_AT_CLI_START = (
    "repro.fleet",
    "repro.tier",
    "repro.disk.faults",
    "repro.traces.io",
    "repro.traces.hourly",
    "repro.traces.lifetime",
    "repro.traces.ingest",
    "repro.core.chaos",
    "repro.core.journal",
    "repro.synth.family",
    "repro.synth.calibrate",
    "repro.core.timescales",
    "repro.core.hour_analysis",
    "repro.core.lifetime_analysis",
    "repro.core.dossier",
    "repro.obs.events",
)

# Start-up budgets: the repro modules that ``import repro.cli.main`` and
# a bare ``run-suite`` load (43 and 59 before handlers imported their
# own subsystems).
CLI_IMPORT_BUDGET = 24
BARE_SUITE_BUDGET = 34

# Prints the sorted repro modules loaded once the CLI is imported and,
# with arguments, once ``main(argv)`` has run, as one JSON list.
LOADED_CODE = """
import contextlib, importlib, io, json, sys
cli = importlib.import_module('repro.cli.main')
argv = sys.argv[1:]
if argv == ['build_parser']:
    cli.build_parser()
elif argv:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))
"""


def _loaded(*argv):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", LOADED_CODE, *argv], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout)


def _subsystems(loaded):
    return sorted(
        name for name in loaded
        if any(name == m or name.startswith(m + ".") for m in NOT_AT_CLI_START)
    )


BARE_SUITE = (
    "run-suite", "--profiles", "devel", "--span", "2", "--workers", "1",
)


def test_build_parser_skips_trace_source():
    # The --format choices resolve the ingest registry only when an
    # option is given, so building the parser loads no ingest module.
    assert [m for m in _loaded("build_parser") if m.startswith("repro.traces.ingest")] == []
    from repro.traces.ingest import TraceSource
    from repro.traces.ingest.source import TraceSource as defined

    assert TraceSource is defined


def test_cli_import_skips_unused_subsystems():
    loaded = _loaded()
    assert _subsystems(loaded) == []
    assert len(loaded) <= CLI_IMPORT_BUDGET, loaded


def test_bare_run_suite_skips_unused_subsystems():
    loaded = _loaded(*BARE_SUITE)
    assert "repro.core.runner" in loaded
    assert _subsystems(loaded) == []
    assert len(loaded) <= BARE_SUITE_BUDGET, loaded


def test_subsystems_load_when_their_command_runs():
    # The positive control: the budget tests above would pass on a CLI
    # that never ran a tier, a fault profile or a fleet.
    degraded = _loaded(*BARE_SUITE, "--tier", "wb", "--fault-profile", "moderate")
    assert {"repro.tier", "repro.tier.device", "repro.disk.faults"} <= set(degraded)
    fleet = _loaded(
        "fleet", "--tenants", "2", "--drives", "1", "--span", "2", "--workers", "1",
    )
    assert {"repro.fleet", "repro.fleet.run", "repro.synth.family"} <= set(fleet)


def test_pooled_workers_import_no_repro_module():
    # Forked workers inherit the parent's modules. A subsystem the parent
    # never imported would be imported (and, without a bytecode cache,
    # compiled) once per worker, so -X importtime would list it twice.
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro.cli.main",
         "run-suite", "--profiles", "devel", "--span", "2", "--workers", "2",
         "--schedulers", "fcfs", "sstf", "--tier", "wb",
         "--fault-profile", "moderate", "--obs", "trace"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    imported = [
        line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines()
        if line.startswith("import time:") and "repro" in line
    ]
    assert "repro.obs.events" in imported
    assert sorted(m for m in set(imported) if imported.count(m) > 1) == []


def test_module_run_executes_main_once():
    # ``python -m repro.cli.main`` must not find the module already
    # imported by its package (runpy warns and runs it twice).
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.cli.main",
         "profiles"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert "web" in out.stdout


# The first np.quantile/np.unique call in a process imports numpy.ma
# (~25 ms in a fresh worker), so the job path must not make one. Runs a
# plain job, a faulted write-back tier job and a fleet job with
# interference, checking after the CLI import and after each job.
JOB_PATH_CODE = """
import importlib, sys
importlib.import_module('repro.cli.main')
loaded = ['numpy.ma' in sys.modules]
from repro.core.runner import ExperimentJob, run_job
from repro.disk.drive import DriveSpec
from repro.disk.faults import get_fault_profile
from repro.fleet import sample_tenants
from repro.synth.profiles import get_profile
from repro.tier import TierConfig
from repro.units import ms
drive = DriveSpec(
    name='tiny', rpm=10_000, heads=2, cylinders=2_000, nzones=4,
    outer_spt=300, inner_spt=200, single_cylinder_seek=ms(0.5),
    full_stroke_seek=ms(5.0),
)
web = get_profile('web')
jobs = (
    ExperimentJob(profile=web, drive=drive, span=2.0),
    ExperimentJob(
        profile=web, drive=drive, span=2.0,
        faults=get_fault_profile('moderate'),
        tier=TierConfig(mode='wb', capacity_bytes=1 << 22),
    ),
    ExperimentJob(
        profile=None, drive=drive, span=3.0, seed=5,
        tenants=sample_tenants(3, seed=42), interference=True,
    ),
)
for job in jobs:
    run_job(job)
    loaded.append('numpy.ma' in sys.modules)
print(loaded)
"""


def test_job_path_never_imports_numpy_ma():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", JOB_PATH_CODE], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[False, False, False, False]"


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_export_resolves_and_is_listed(name):
    package = importlib.import_module(name)
    listed = dir(package)
    for export in package.__all__:
        assert getattr(package, export) is not None
        assert export in listed


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_star_import_binds_all(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    package = importlib.import_module(name)
    for export in package.__all__:
        assert namespace[export] is getattr(package, export)


def test_unknown_name_raises_attribute_error():
    import repro.core

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.core.nope
