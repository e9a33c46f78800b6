"""Trace persistence: round trips and malformed-file rejection."""

import numpy as np
import pytest

from repro.errors import TraceFormatError
from repro.traces.ingest import get_parser
from repro.traces.hourly import HourlyDataset, HourlyTrace
from repro.traces.io import (
    QuarantinedRow,
    read_hourly_dataset,
    read_lifetime_dataset,
    write_hourly_dataset,
    write_lifetime_dataset,
    write_request_trace,
)
from repro.traces.lifetime import DriveFamilyDataset, LifetimeRecord
from repro.traces.millisecond import RequestTrace

NATIVE = get_parser("native")


class TestRequestTraceIo:
    def make_trace(self):
        return RequestTrace(
            times=[0.125, 1.5, 2.75],
            lbas=[0, 1000, 1008],
            nsectors=[8, 8, 16],
            is_write=[False, True, False],
            span=5.0,
            label="roundtrip",
        )

    def test_roundtrip_exact(self, tmp_path):
        original = self.make_trace()
        path = tmp_path / "trace.csv"
        write_request_trace(original, path)
        loaded = NATIVE.parse(path)
        assert loaded.label == "roundtrip"
        assert loaded.span == 5.0
        np.testing.assert_array_equal(loaded.times, original.times)
        np.testing.assert_array_equal(loaded.lbas, original.lbas)
        np.testing.assert_array_equal(loaded.nsectors, original.nsectors)
        np.testing.assert_array_equal(loaded.is_write, original.is_write)

    def test_roundtrip_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_request_trace(RequestTrace.empty(span=3.0, label="e"), path)
        loaded = NATIVE.parse(path)
        assert len(loaded) == 0
        assert loaded.span == 3.0

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n1,2,3,R\n")
        with pytest.raises(TraceFormatError):
            NATIVE.parse(path)

    def test_bad_op_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,lba,nsectors,op\n0.0,0,8,X\n")
        with pytest.raises(TraceFormatError):
            NATIVE.parse(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,lba,nsectors,op\nnot_a_number,0,8,R\n")
        with pytest.raises(TraceFormatError):
            NATIVE.parse(path)

    def test_file_without_comment_line(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("time,lba,nsectors,op\n0.5,10,8,W\n")
        loaded = NATIVE.parse(path)
        assert len(loaded) == 1
        assert loaded.label == "plain"

    @pytest.mark.parametrize(
        "label",
        [
            "web server (rack 3)",
            "a label\twith a tab",
            'quoted "inner" label',
            "it's got quotes",
            "span=fake label=nested",
            "",
        ],
    )
    def test_label_roundtrips_exactly(self, tmp_path, label):
        # Regression: labels containing whitespace used to be truncated
        # at the first space by the whitespace-splitting header parser.
        original = RequestTrace(
            times=[0.0], lbas=[8], nsectors=[8], is_write=[True],
            span=2.0, label=label,
        )
        path = tmp_path / "labelled.csv"
        write_request_trace(original, path)
        loaded = NATIVE.parse(path)
        assert loaded.label == label
        assert loaded.span == 2.0

    def test_simple_label_header_stays_unquoted(self, tmp_path):
        # Old readers split the header on whitespace; plain labels must
        # keep producing the exact bytes they expect.
        path = tmp_path / "simple.csv"
        write_request_trace(self.make_trace(), path)
        assert path.read_text().splitlines()[0] == "# span=5.0 label=roundtrip"

    def test_label_with_newline_rejected(self, tmp_path):
        trace = RequestTrace(
            times=[0.0], lbas=[8], nsectors=[8], is_write=[False],
            span=1.0, label="two\nlines",
        )
        with pytest.raises(TraceFormatError):
            write_request_trace(trace, tmp_path / "bad.csv")


class TestHourlyIo:
    def make_dataset(self):
        return HourlyDataset(
            [
                HourlyTrace("d0", [1e9, 2e9], [3e9, 4e9], start_hour=5),
                HourlyTrace("d1", [0.0, 0.0], [0.0, 1.0]),
            ]
        )

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "hourly.jsonl"
        write_hourly_dataset(self.make_dataset(), path)
        loaded = read_hourly_dataset(path)
        assert len(loaded) == 2
        assert loaded.by_id("d0").start_hour == 5
        np.testing.assert_allclose(loaded.by_id("d0").read_bytes, [1e9, 2e9])
        np.testing.assert_allclose(loaded.by_id("d1").write_bytes, [0.0, 1.0])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "hourly.jsonl"
        write_hourly_dataset(self.make_dataset(), path)
        path.write_text(path.read_text() + "\n\n")
        assert len(read_hourly_dataset(path)) == 2

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(TraceFormatError):
            read_hourly_dataset(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"drive_id": "d0"}\n')
        with pytest.raises(TraceFormatError):
            read_hourly_dataset(path)


class TestLifetimeIo:
    def make_dataset(self):
        return DriveFamilyDataset(
            [
                LifetimeRecord("a", 1000.0, 1e12, 2e12, "m1"),
                LifetimeRecord("b", 500.5, 0.0, 1.0, "m2"),
            ],
            family="testfam",
        )

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "family.csv"
        write_lifetime_dataset(self.make_dataset(), path)
        loaded = read_lifetime_dataset(path)
        assert loaded.family == "testfam"
        assert len(loaded) == 2
        r = loaded.by_id("b")
        assert r.power_on_hours == 500.5
        assert r.model == "m2"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(TraceFormatError):
            read_lifetime_dataset(path)

    def test_family_with_spaces_roundtrips(self, tmp_path):
        dataset = DriveFamilyDataset(
            [LifetimeRecord("a", 1.0, 0.0, 0.0, "m")],
            family="enterprise 10k (2009 fleet)",
        )
        path = tmp_path / "family.csv"
        write_lifetime_dataset(dataset, path)
        assert read_lifetime_dataset(path).family == "enterprise 10k (2009 fleet)"

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "drive_id,power_on_hours,bytes_read,bytes_written,model\na,notnum,0,0,m\n"
        )
        with pytest.raises(TraceFormatError):
            read_lifetime_dataset(path)


class TestStrictAndPermissiveModes:
    GOOD = "time,lba,nsectors,op\n0.5,10,8,R\n"

    def test_strict_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(self.GOOD + "oops,0,8,R\n")
        with pytest.raises(TraceFormatError, match=rf"{path}:3"):
            NATIVE.parse(path)

    def test_permissive_skips_and_quarantines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(self.GOOD + "oops,0,8,R\n1.5,20,8,W\n")
        quarantine = []
        loaded = NATIVE.parse(path, strict=False, quarantine=quarantine)
        assert len(loaded) == 2
        assert len(quarantine) == 1
        row = quarantine[0]
        assert isinstance(row, QuarantinedRow)
        assert row.path == str(path)
        assert row.lineno == 3
        assert row.content == "oops,0,8,R"
        assert "malformed" in row.reason

    def test_permissive_without_quarantine_list(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(self.GOOD + "oops,0,8,R\n")
        assert len(NATIVE.parse(path, strict=False)) == 1

    def test_lineno_accounts_for_comment_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# span=5.0 label=x\n" + self.GOOD + "bad,0,8,R\n")
        quarantine = []
        NATIVE.parse(path, strict=False, quarantine=quarantine)
        assert quarantine[0].lineno == 4

    def test_invariant_violations_quarantined(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            self.GOOD
            + "nan,0,8,R\n"      # non-finite time
            + "-1.0,0,8,R\n"     # negative time
            + "2.0,-5,8,R\n"     # negative LBA
            + "3.0,0,0,R\n"      # non-positive length
            + "4.0,0,8,Q\n"      # bad op
        )
        quarantine = []
        loaded = NATIVE.parse(path, strict=False, quarantine=quarantine)
        assert len(loaded) == 1
        reasons = " | ".join(row.reason for row in quarantine)
        assert "non-finite time" in reasons
        assert "negative time" in reasons
        assert "negative LBA" in reasons
        assert "non-positive nsectors" in reasons
        assert "op must be R or W" in reasons

    def test_nan_time_rejected_strict(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(self.GOOD + "nan,0,8,R\n")
        with pytest.raises(TraceFormatError, match="non-finite time"):
            NATIVE.parse(path)

    def test_file_level_problems_raise_in_both_modes(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n1,2,3,R\n")
        for strict in (True, False):
            with pytest.raises(TraceFormatError):
                NATIVE.parse(path, strict=strict)

    def test_hourly_permissive_quarantines(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text(
            '{"drive_id": "d0", "read_bytes": [1.0], "write_bytes": [2.0]}\n'
            "{not json}\n"
        )
        quarantine = []
        loaded = read_hourly_dataset(path, strict=False, quarantine=quarantine)
        assert len(loaded) == 1
        assert quarantine[0].lineno == 2

    def test_lifetime_permissive_quarantines_negative_counters(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(
            "drive_id,power_on_hours,bytes_read,bytes_written,model\n"
            "a,100.0,1.0,2.0,m\n"
            "b,-5.0,1.0,2.0,m\n"
            "c,1.0,inf,2.0,m\n"
        )
        quarantine = []
        loaded = read_lifetime_dataset(path, strict=False, quarantine=quarantine)
        assert [r.drive_id for r in loaded] == ["a"]
        assert len(quarantine) == 2
        assert "finite" in quarantine[0].reason

    def test_lifetime_strict_rejects_negative_counters(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(
            "drive_id,power_on_hours,bytes_read,bytes_written,model\n"
            "b,-5.0,1.0,2.0,m\n"
        )
        with pytest.raises(TraceFormatError, match=rf"{path}:2"):
            read_lifetime_dataset(path)


class TestCapacityHeader:
    def test_capacity_roundtrips(self, tmp_path):
        trace = RequestTrace(
            times=[0.0], lbas=[8], nsectors=[8], is_write=[False],
            span=1.0, capacity_sectors=1024,
        )
        path = tmp_path / "cap.csv"
        write_request_trace(trace, path)
        assert "capacity=1024" in path.read_text().splitlines()[0]
        assert NATIVE.parse(path).capacity_sectors == 1024

    def test_unknown_capacity_omitted(self, tmp_path):
        path = tmp_path / "nocap.csv"
        write_request_trace(
            RequestTrace([0.0], [8], [8], [False], span=1.0), path
        )
        assert "capacity" not in path.read_text().splitlines()[0]
        assert NATIVE.parse(path).capacity_sectors is None

    def test_row_past_capacity_rejected_strict(self, tmp_path):
        path = tmp_path / "cap.csv"
        path.write_text(
            "# span=5.0 label=x capacity=100\n"
            "time,lba,nsectors,op\n"
            "0.0,96,8,R\n"
        )
        with pytest.raises(TraceFormatError, match="exceeds the header capacity"):
            NATIVE.parse(path)

    def test_row_past_capacity_quarantined_permissive(self, tmp_path):
        path = tmp_path / "cap.csv"
        path.write_text(
            "# span=5.0 label=x capacity=100\n"
            "time,lba,nsectors,op\n"
            "0.0,0,8,R\n"
            "1.0,96,8,R\n"
        )
        quarantine = []
        loaded = NATIVE.parse(path, strict=False, quarantine=quarantine)
        assert len(loaded) == 1
        assert loaded.capacity_sectors == 100
        assert quarantine[0].lineno == 4

    def test_bad_capacity_header_raises_in_both_modes(self, tmp_path):
        for value in ("0", "-5", "llama"):
            path = tmp_path / "cap.csv"
            path.write_text(
                f"# span=5.0 label=x capacity={value}\n"
                "time,lba,nsectors,op\n"
            )
            for strict in (True, False):
                with pytest.raises(TraceFormatError, match=rf"{path}:1"):
                    NATIVE.parse(path, strict=strict)

    def test_row_past_span_rejected_strict_with_location(self, tmp_path):
        path = tmp_path / "span.csv"
        path.write_text(
            "# span=5.0 label=x\n"
            "time,lba,nsectors,op\n"
            "1.0,0,8,R\n"
            "10.0,8,8,W\n"
        )
        with pytest.raises(TraceFormatError, match=rf"{path}:4: .*header span"):
            NATIVE.parse(path)

    def test_row_past_span_quarantined_permissive(self, tmp_path):
        path = tmp_path / "span.csv"
        path.write_text(
            "# span=5.0 label=x\n"
            "time,lba,nsectors,op\n"
            "1.0,0,8,R\n"
            "10.0,8,8,W\n"
            "4.5,16,8,R\n"
        )
        quarantine = []
        loaded = NATIVE.parse(path, strict=False, quarantine=quarantine)
        assert len(loaded) == 2
        assert loaded.span == 5.0
        assert [(row.lineno, row.content) for row in quarantine] == [(4, "10.0,8,8,W")]
        assert "header span" in quarantine[0].reason

    def test_non_finite_span_header_rejected(self, tmp_path):
        path = tmp_path / "span.csv"
        path.write_text("# span=inf label=x\ntime,lba,nsectors,op\n")
        with pytest.raises(TraceFormatError, match="finite"):
            NATIVE.parse(path)
