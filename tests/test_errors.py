"""Exception hierarchy: everything the library raises is a ReproError."""

import pytest

from repro import errors


@pytest.mark.parametrize(
    "exc",
    [
        errors.TraceError,
        errors.TraceFormatError,
        errors.DiskModelError,
        errors.SimulationError,
        errors.SynthesisError,
        errors.AnalysisError,
        errors.StatsError,
        errors.ProfileError,
        errors.CliError,
    ],
)
def test_all_derive_from_repro_error(exc):
    assert issubclass(exc, errors.ReproError)


def test_validation_error_is_trace_error():
    assert issubclass(errors.TraceFormatError, errors.TraceError)


def test_profile_error_is_synthesis_error():
    assert issubclass(errors.ProfileError, errors.SynthesisError)


def test_catching_base_catches_all():
    with pytest.raises(errors.ReproError):
        raise errors.SimulationError("boom")
