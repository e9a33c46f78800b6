"""Unit conventions and conversion helpers used across the library.

Conventions
-----------
* **Time** is measured in *seconds* as ``float`` everywhere in the public
  API. Millisecond traces therefore carry sub-millisecond resolution
  naturally; hour traces index time by integer hour numbers.
* **Space** is measured in 512-byte *sectors* for LBAs and request lengths
  (the unit disk firmware itself uses) and in *bytes* for throughput
  figures reported to humans.
* **Rates** are requests/second or bytes/second.

The helpers here exist so magnitude conversions are written once and read
everywhere (``ms(4.2)`` instead of ``4.2e-3`` scattered through code).
"""

from __future__ import annotations

SECTOR_BYTES = 512
"""Size of one logical block (sector) in bytes."""

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

MS_PER_SECOND = 1000.0
US_PER_SECOND = 1_000_000.0
SECONDS_PER_MINUTE = 60.0
SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 24 * SECONDS_PER_HOUR
HOURS_PER_DAY = 24
HOURS_PER_WEEK = 7 * HOURS_PER_DAY


def ms(value: float) -> float:
    """Convert milliseconds to seconds: ``ms(8.3) == 0.0083``."""
    return value / MS_PER_SECOND


def us(value: float) -> float:
    """Convert microseconds to seconds."""
    return value / US_PER_SECOND


def hours(value: float) -> float:
    """Convert hours to seconds."""
    return value * SECONDS_PER_HOUR


def bytes_to_sectors(nbytes: int) -> int:
    """Convert bytes to whole sectors, rounding up to cover ``nbytes``."""
    return -(-nbytes // SECTOR_BYTES)


def format_bytes(nbytes: float) -> str:
    """Render a byte count with a binary-prefix unit, e.g. ``'3.2 MiB'``.

    Values below 1 KiB are shown as integer bytes. The function accepts
    floats because throughput aggregates are naturally fractional.
    """
    if nbytes < 0:
        return "-" + format_bytes(-nbytes)
    for unit, scale in (("GiB", GIB), ("MiB", MIB), ("KiB", KIB)):
        if nbytes >= scale:
            return f"{nbytes / scale:.2f} {unit}"
    return f"{nbytes:.0f} B"


def format_duration(seconds: float) -> str:
    """Render a duration with an adaptive unit: us, ms, s, min, h or d."""
    if seconds < 0:
        return "-" + format_duration(-seconds)
    if seconds < 1e-3:
        return f"{seconds * US_PER_SECOND:.1f} us"
    if seconds < 1.0:
        return f"{seconds * MS_PER_SECOND:.2f} ms"
    if seconds < SECONDS_PER_MINUTE:
        return f"{seconds:.2f} s"
    if seconds < SECONDS_PER_HOUR:
        return f"{seconds / SECONDS_PER_MINUTE:.1f} min"
    if seconds < SECONDS_PER_DAY:
        return f"{seconds / SECONDS_PER_HOUR:.2f} h"
    return f"{seconds / SECONDS_PER_DAY:.2f} d"
