"""Package ``__init__``s resolve their public names lazily (PEP 562)."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.disk",
    "repro.fleet",
    "repro.stats",
    "repro.synth",
    "repro.traces",
    "repro.traces.ingest",
)

# Modules no run-suite or fleet invocation needs before it parses its
# arguments; importing the CLI must not load them.
NOT_AT_CLI_START = (
    "repro.fleet.run",
    "repro.synth.calibrate",
    "repro.core.timescales",
    "repro.core.hour_analysis",
    "repro.core.lifetime_analysis",
    "repro.core.dossier",
)


def test_build_parser_skips_trace_source():
    # build_parser imports repro.traces.ingest for the --format choices;
    # TraceSource is a lazy export, so listing formats must not load it.
    code = (
        "import importlib, sys\n"
        "importlib.import_module('repro.cli.main').build_parser()\n"
        "print('repro.traces.ingest' in sys.modules,"
        " 'repro.traces.ingest.source' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "True False"
    from repro.traces.ingest import TraceSource
    from repro.traces.ingest.source import TraceSource as defined

    assert TraceSource is defined


def test_cli_import_skips_unused_subsystems():
    code = (
        "import importlib, sys\n"
        "importlib.import_module('repro.cli.main')\n"
        f"print(sorted(set({NOT_AT_CLI_START!r}) & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


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
