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
