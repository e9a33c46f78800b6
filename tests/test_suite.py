"""The suite runner."""

import pytest

from repro.core.suite import run_suite, suite_table
from repro.errors import AnalysisError


@pytest.fixture(scope="module")
def suite(tiny_spec):
    return run_suite(tiny_spec, profiles=["web", "database"], span=30.0, seed=4)


def test_runs_requested_profiles(suite):
    assert list(suite) == ["web", "database"]
    for study in suite.values():
        assert 0.0 < study.utilization.overall < 1.0


def test_default_runs_everything(tiny_spec):
    from repro.synth.profiles import available_profiles

    # A minute-long window: every profile (including the long-OFF HPC
    # one) has traffic at this seed.
    suite = run_suite(tiny_spec, span=60.0, seed=2)
    assert set(suite) == set(available_profiles())


def test_unknown_profile_rejected(tiny_spec):
    with pytest.raises(AnalysisError, match="unknown"):
        run_suite(tiny_spec, profiles=["nope"])


def test_empty_request_rejected(tiny_spec):
    with pytest.raises(AnalysisError):
        run_suite(tiny_spec, profiles=[])


def test_table_renders_rows(suite):
    table = suite_table(suite)
    text = table.render()
    assert "web" in text and "database" in text
    assert "hurst" in text


def test_table_rejects_empty():
    with pytest.raises(AnalysisError):
        suite_table({})
