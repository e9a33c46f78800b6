"""Report rendering."""

import pytest

from repro.core.report import (
    Table,
    ascii_plot,
    format_percent,
    render_series,
    section,
)
from repro.errors import AnalysisError


class TestTable:
    def test_render_aligned(self):
        t = Table(["name", "value"], title="demo")
        t.add_row(["alpha", 1.5])
        t.add_row(["b", 20])
        out = t.render()
        lines = out.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows equally wide

    def test_row_width_checked(self):
        t = Table(["a", "b"])
        with pytest.raises(AnalysisError):
            t.add_row([1])

    def test_empty_headers_rejected(self):
        with pytest.raises(AnalysisError):
            Table([])

    def test_numeric_formatting(self):
        t = Table(["x"])
        t.add_row([0.000012345])
        t.add_row([3])
        t.add_row([float("nan")])
        t.add_row([0.0])
        out = t.render()
        assert "1.234e-05" in out or "1.2345e-05" in out
        assert "nan" in out

    def test_str_same_as_render(self):
        t = Table(["x"])
        t.add_row([1])
        assert str(t) == t.render()


class TestRenderSeries:
    def test_rows_match_points(self):
        out = render_series([1, 2], [0.5, 1.0], x_name="scale", y_name="idc")
        assert "scale" in out and "idc" in out
        assert len(out.splitlines()) == 4

    def test_length_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            render_series([1], [1, 2])


class TestAsciiPlot:
    def test_basic_shape(self):
        out = ascii_plot([0, 1, 2, 3], [0, 1, 4, 9], width=20, height=5, title="sq")
        lines = out.splitlines()
        assert lines[0] == "sq"
        assert "*" in out
        assert any(line.startswith("+") for line in lines)

    def test_log_x(self):
        out = ascii_plot([1, 10, 100], [1, 2, 3], log_x=True)
        assert "log10(x)" in out

    def test_log_x_drops_nonpositive(self):
        out = ascii_plot([0, 1, 10], [5, 1, 2], log_x=True)
        assert "*" in out

    def test_constant_series_ok(self):
        out = ascii_plot([0, 1], [5, 5])
        assert "*" in out

    def test_no_finite_points_rejected(self):
        with pytest.raises(AnalysisError):
            ascii_plot([float("nan")], [1.0])

    def test_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            ascii_plot([1], [1, 2])

    def test_tiny_canvas_rejected(self):
        with pytest.raises(AnalysisError):
            ascii_plot([1, 2], [1, 2], width=1)


def test_format_percent():
    assert format_percent(0.123) == "12.3%"
    assert format_percent(float("nan")) == "nan"
    assert format_percent(1.0, precision=0) == "100%"


def test_section_underlined():
    out = section("Title", "body")
    lines = out.splitlines()
    assert lines[0] == "Title"
    assert lines[1] == "=" * 5
    assert lines[2] == "body"
