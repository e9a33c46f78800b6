"""Report rendering: tables and text figures.

The benchmark harness reproduces the paper's tables and figures as
*series of numbers*; this module renders them legibly in a terminal —
aligned tables via :class:`Table`, (x, y) series via
:func:`render_series`, and a quick-look ASCII plot via
:func:`ascii_plot` for eyeballing shapes without a plotting stack.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from repro.errors import AnalysisError

Cell = Union[str, float, int]


def _format_cell(value: Cell, precision: int) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if v != v:
            return "nan"
        if v == 0:
            return "0"
        if abs(v) >= 10 ** (precision + 2) or abs(v) < 10 ** (-precision):
            return f"{v:.{precision}g}"
        return f"{v:.{precision}f}".rstrip("0").rstrip(".")
    return str(value)


class Table:
    """A simple aligned text table.

    >>> t = Table(["workload", "util"])
    >>> t.add_row(["web", 0.104])
    >>> print(t.render())          # doctest: +SKIP
    """

    def __init__(self, headers: Sequence[str], title: str = "", precision: int = 4) -> None:
        if not headers:
            raise AnalysisError("a table needs at least one column")
        self.headers = [str(h) for h in headers]
        self.title = title
        self.precision = int(precision)
        self._rows: List[List[str]] = []

    def add_row(self, cells: Sequence[Cell]) -> None:
        """Append one row; must match the header width."""
        if len(cells) != len(self.headers):
            raise AnalysisError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self._rows.append([_format_cell(c, self.precision) for c in cells])

    def render(self) -> str:
        """The table as aligned text, first column left-, rest right-aligned."""
        widths = [len(h) for h in self.headers]
        for row in self._rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def fmt(cells: Sequence[str]) -> str:
            parts = [cells[0].ljust(widths[0])]
            parts += [c.rjust(w) for c, w in zip(cells[1:], widths[1:])]
            return "  ".join(parts)

        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(fmt(self.headers))
        lines.append("  ".join("-" * w for w in widths))
        lines.extend(fmt(row) for row in self._rows)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def render_series(
    xs: Sequence[float],
    ys: Sequence[float],
    x_name: str = "x",
    y_name: str = "y",
    title: str = "",
    precision: int = 4,
) -> str:
    """Render an (x, y) series — one figure curve — as a two-column table."""
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys):
        raise AnalysisError(f"series lengths differ: {len(xs)} vs {len(ys)}")
    table = Table([x_name, y_name], title=title, precision=precision)
    for x, y in zip(xs, ys):
        table.add_row([float(x), float(y)])
    return table.render()


def ascii_plot(
    xs: Sequence[float],
    ys: Sequence[float],
    width: int = 60,
    height: int = 15,
    log_x: bool = False,
    title: str = "",
) -> str:
    """A quick-look scatter of a series in ASCII.

    Each point becomes a ``*`` on a ``width x height`` canvas with the
    y-range annotated; enough to eyeball whether a CDF bends where it
    should without leaving the terminal.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size != ys.size:
        raise AnalysisError(f"series lengths differ: {xs.size} vs {ys.size}")
    finite = np.isfinite(xs) & np.isfinite(ys)
    if log_x:
        finite &= xs > 0
    xs, ys = xs[finite], ys[finite]
    if xs.size == 0:
        raise AnalysisError("nothing to plot: no finite points")
    if width < 2 or height < 2:
        raise AnalysisError("canvas must be at least 2x2")

    px = np.log10(xs) if log_x else xs
    x_lo, x_hi = float(px.min()), float(px.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    x_span = x_hi - x_lo or 1.0
    y_span = y_hi - y_lo or 1.0

    canvas = [[" "] * width for _ in range(height)]
    for x, y in zip(px, ys):
        col = min(width - 1, int((x - x_lo) / x_span * (width - 1)))
        row = min(height - 1, int((y - y_lo) / y_span * (height - 1)))
        canvas[height - 1 - row][col] = "*"

    lines = []
    if title:
        lines.append(title)
    lines.append(f"y: [{y_lo:.4g}, {y_hi:.4g}]")
    lines.extend("|" + "".join(row) for row in canvas)
    lines.append("+" + "-" * width)
    x_label = "log10(x)" if log_x else "x"
    lines.append(f"{x_label}: [{x_lo:.4g}, {x_hi:.4g}]")
    return "\n".join(lines)


def format_percent(fraction: float, precision: int = 1) -> str:
    """Render a fraction as a percentage string (NaN-safe)."""
    if fraction != fraction:
        return "nan"
    return f"{100.0 * fraction:.{precision}f}%"


def section(title: str, body: str) -> str:
    """A titled report section with an underline."""
    return f"{title}\n{'=' * len(title)}\n{body}\n"
