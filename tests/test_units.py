"""Unit-conversion helpers."""

import pytest

from repro import units


def test_ms_converts_to_seconds():
    assert units.ms(8.3) == pytest.approx(0.0083)


def test_us_converts_to_seconds():
    assert units.us(250) == pytest.approx(2.5e-4)


def test_hours_scale_up():
    assert units.hours(1.5) == 5400.0


def test_bytes_to_sectors_rounds_up():
    assert units.bytes_to_sectors(4096) == 8
    assert units.bytes_to_sectors(1) == 1
    assert units.bytes_to_sectors(513) == 2
    assert units.bytes_to_sectors(0) == 0


@pytest.mark.parametrize(
    "nbytes,expected",
    [
        (512, "512 B"),
        (2048, "2.00 KiB"),
        (3 * units.MIB, "3.00 MiB"),
        (5 * units.GIB, "5.00 GiB"),
    ],
)
def test_format_bytes_picks_binary_unit(nbytes, expected):
    assert units.format_bytes(nbytes) == expected


def test_format_bytes_negative():
    assert units.format_bytes(-2048) == "-2.00 KiB"


@pytest.mark.parametrize(
    "seconds,contains",
    [
        (5e-6, "us"),
        (0.005, "ms"),
        (2.0, "s"),
        (90.0, "min"),
        (7200.0, "h"),
        (200000.0, "d"),
    ],
)
def test_format_duration_picks_unit(seconds, contains):
    assert contains in units.format_duration(seconds)


def test_format_duration_negative():
    assert units.format_duration(-2.0).startswith("-")


def test_week_constants_consistent():
    assert units.HOURS_PER_WEEK == 7 * units.HOURS_PER_DAY
    assert units.SECONDS_PER_DAY == 24 * units.SECONDS_PER_HOUR
