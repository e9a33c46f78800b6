"""The trace-ingest package: registry, per-format parsers, streaming."""

from pathlib import Path

import numpy as np
import pytest

from repro.errors import TraceFormatError
from repro.traces.ingest import (
    AlibabaParser,
    BlktraceParser,
    MsrParser,
    ParseRowError,
    SpcParser,
    TraceParser,
    TraceSource,
    available_formats,
    get_parser,
    register_parser,
)
from repro.traces.io import write_request_trace

SAMPLE_DIR = Path(__file__).parent / "golden" / "data" / "ingest"

#: (format, sample file, pinned good-record count) — regenerate samples
#: with tests/golden/data/ingest/_regen_samples.py if synthesis changes.
SAMPLES = [
    ("msr", "sample_msr.csv", 1087),
    ("blktrace", "sample_blktrace.txt", 1820),
    ("alibaba", "sample_alibaba.csv", 1704),
    ("spc", "sample_spc.csv", 3239),
]

#: Every committed sample plants exactly this many corrupt rows.
N_CORRUPT = 2


class TestRegistry:
    def test_builtin_formats_registered(self):
        formats = available_formats()
        for key in ("msr", "blktrace", "alibaba", "spc"):
            assert key in formats
            assert formats[key]  # every format carries a description

    def test_unknown_format_names_alternatives(self):
        with pytest.raises(TraceFormatError, match="blktrace"):
            get_parser("not-a-format")

    def test_options_reach_the_parser(self):
        parser = get_parser("msr", disknum=3)
        assert isinstance(parser, MsrParser)
        assert parser.disknum == 3

    def test_reregistering_same_class_is_idempotent(self):
        assert register_parser(MsrParser) is MsrParser

    def test_conflicting_registration_rejected(self):
        class Impostor(TraceParser):
            format = "msr"

        with pytest.raises(TraceFormatError, match="already registered"):
            register_parser(Impostor)

    def test_registration_requires_format_key(self):
        class Nameless(TraceParser):
            pass

        with pytest.raises(TraceFormatError, match="format key"):
            register_parser(Nameless)


class TestSampleRoundTrips:
    @pytest.mark.parametrize("fmt,filename,count", SAMPLES)
    def test_permissive_parse_pins_counts(self, fmt, filename, count):
        quarantine = []
        trace = get_parser(fmt).parse(
            SAMPLE_DIR / filename, strict=False, quarantine=quarantine
        )
        assert len(trace) == count
        assert len(quarantine) == N_CORRUPT
        # First-arrival normalization: every sample's capture clock
        # starts mid-recording, yet the parsed trace starts at 0.
        assert trace.times[0] == 0.0
        assert trace.span > 0
        assert 0.0 < trace.write_fraction < 1.0

    @pytest.mark.parametrize("fmt,filename,count", SAMPLES)
    def test_strict_parse_fails_with_location(self, fmt, filename, count):
        path = SAMPLE_DIR / filename
        with pytest.raises(TraceFormatError, match=rf"{filename}:\d+"):
            get_parser(fmt).parse(path, strict=True)

    @pytest.mark.parametrize("fmt,filename,count", SAMPLES)
    def test_quarantine_carries_path_and_lineno(self, fmt, filename, count):
        quarantine = []
        get_parser(fmt).parse(
            SAMPLE_DIR / filename, strict=False, quarantine=quarantine
        )
        for row in quarantine:
            assert str(row.path).endswith(filename)
            assert row.lineno > 0
            assert row.reason

    @pytest.mark.parametrize("fmt,filename,count", SAMPLES)
    def test_native_round_trip(self, fmt, filename, count, tmp_path):
        """Foreign parse -> native write -> native read is lossless for
        the columns both sides model (times keep microsecond fidelity)."""
        trace = get_parser(fmt).parse(SAMPLE_DIR / filename, strict=False)
        out = tmp_path / "native.csv"
        write_request_trace(trace, out)
        back = get_parser("native").parse(out)
        assert len(back) == len(trace)
        np.testing.assert_array_equal(back.lbas, trace.lbas)
        np.testing.assert_array_equal(back.nsectors, trace.nsectors)
        np.testing.assert_array_equal(back.is_write, trace.is_write)
        np.testing.assert_allclose(back.times, trace.times, atol=1e-6)

    @pytest.mark.parametrize("fmt,filename,count", SAMPLES)
    def test_chunked_stream_matches_whole_file(self, fmt, filename, count):
        """iter_chunks over small chunks reassembles to parse()'s result."""
        parser = get_parser(fmt)
        whole = parser.parse(SAMPLE_DIR / filename, strict=False)
        chunks = list(
            parser.iter_chunks(SAMPLE_DIR / filename, chunk_rows=97, strict=False)
        )
        assert len(chunks) > 1
        assert all(len(c) <= 97 for c in chunks)
        times = np.concatenate([c.times for c in chunks])
        lbas = np.concatenate([c.lbas for c in chunks])
        np.testing.assert_allclose(times, whole.times, atol=1e-9)
        np.testing.assert_array_equal(lbas, whole.lbas)


class TestParserDetails:
    def test_msr_units(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("128166372003061629,h,0,Write,1048576,4096,10\n")
        trace = get_parser("msr").parse(path)
        assert trace.lbas[0] == 1048576 // 512
        assert trace.nsectors[0] == 8
        assert bool(trace.is_write[0]) is True

    def test_msr_disknum_filter(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "100,h,0,Read,0,4096,1\n"
            "200,h,1,Read,4096,4096,1\n"
            "300,h,0,Read,8192,4096,1\n"
        )
        trace = get_parser("msr", disknum=0).parse(path)
        assert len(trace) == 2

    def test_blktrace_keeps_only_requested_actions(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text(
            "8,0 0 1 10.0 99 Q R 64 + 8 [app]\n"
            "8,0 0 2 10.1 99 D R 64 + 8 [app]\n"
            "8,0 0 3 10.2 99 C R 64 + 8 [app]\n"
        )
        assert len(get_parser("blktrace").parse(path)) == 1
        assert len(get_parser("blktrace", actions=("Q", "C")).parse(path)) == 2

    def test_blktrace_skips_non_event_noise(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text(
            "CPU0 (8,0):\n"
            "8,0 0 1 10.0 99 D W 64 + 8 [app]\n"
            "Total (8,0): 1 event\n"
        )
        assert len(get_parser("blktrace").parse(path, strict=True)) == 1

    def test_alibaba_header_and_device_filter(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "device_id,opcode,offset,length,timestamp\n"
            "1,R,0,4096,1000000\n"
            "2,W,4096,4096,2000000\n"
        )
        assert len(get_parser("alibaba").parse(path, strict=True)) == 2
        assert len(get_parser("alibaba", device=2).parse(path)) == 1

    def test_alibaba_microsecond_clock(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,R,0,4096,1000000\n1,R,0,4096,3500000\n")
        trace = get_parser("alibaba").parse(path)
        assert trace.times[1] == pytest.approx(2.5)

    def test_spc_asu_filter_and_sector_lbas(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,100,4096,r,0.5\n1,200,4096,w,0.6\n")
        trace = get_parser("spc", asu=1).parse(path)
        assert len(trace) == 1
        assert trace.lbas[0] == 200  # SPC LBAs are already sectors

    def test_empty_file_rejected_in_both_modes(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# only a comment\n")
        for strict in (True, False):
            with pytest.raises(TraceFormatError, match="no usable"):
                get_parser("msr").parse(path, strict=strict)

    def test_max_requests_truncates(self):
        fmt, filename, count = SAMPLES[0]
        trace = get_parser(fmt).parse(
            SAMPLE_DIR / filename, strict=False, max_requests=50
        )
        assert len(trace) == 50

    def test_physical_invariants_quarantined(self, tmp_path):
        """Rows that parse but violate physics (negative LBA via offset
        math is impossible here, so use a negative timestamp) are policed
        by the shared pipeline, not each parser."""
        path = tmp_path / "t.csv"
        path.write_text("0,100,4096,r,-5.0\n0,100,4096,r,1.0\n")
        quarantine = []
        trace = get_parser("spc").parse(path, strict=False, quarantine=quarantine)
        assert len(trace) == 1
        assert "negative timestamp" in quarantine[0].reason


#: Hand-written SPC and MSR files: a comment, a blank line, mixed-case
#: opcodes, and one record on a second ASU / disk.
_SPC_ROWS = (
    "# header comment\n"
    "0,1000,4096,R,0.5\n"
    "1,2000,8192,W,0.6\n"
    "0,1008,4096,r,0.75\n"
    "\n"
    "0,5000,512,W,1.0\n"
)
_MSR_ROWS = (
    "10000000,host,0,Read,512000,4096,100\n"
    "20000000,host,1,Write,1024000,8192,200\n"
    "30000000,host,0,Write,2048000,4096,300\n"
)

#: format -> (hand-written file, a filter option that matches no row).
_ROW_FILES = {"spc": (_SPC_ROWS, {"asu": 99}), "msr": (_MSR_ROWS, {"disknum": 7})}

#: One corrupt row per format and defect: case -> (format, row).
_CORRUPT_ROWS = {
    "spc-bad-opcode": ("spc", "0,0,512,X,0.0"),
    "spc-short": ("spc", "0,0,512"),
    "spc-malformed": ("spc", "0,zero,512,R,0.0"),
    "spc-zero-length": ("spc", "0,0,0,R,0.0"),
    "msr-bad-opcode": ("msr", "0,h,0,Erase,0,512,0"),
    "msr-short": ("msr", "0,h,0,Read,0"),
    "msr-malformed": ("msr", "0,h,zero,Read,0,512,0"),
    "msr-zero-length": ("msr", "0,h,0,Read,0,0,0"),
}


class TestSpcAndMsrRows:
    @pytest.fixture(params=sorted(_ROW_FILES))
    def capture(self, request, tmp_path):
        fmt = request.param
        text, no_match = _ROW_FILES[fmt]
        path = tmp_path / f"capture.{fmt}"
        path.write_text(text)
        return fmt, path, no_match

    def test_spc_reads_every_asu(self, tmp_path):
        path = tmp_path / "financial.spc"
        path.write_text(_SPC_ROWS)
        trace = get_parser("spc").parse(path)
        assert len(trace) == 4
        assert trace.times[0] == 0.0
        assert trace.times[-1] == pytest.approx(0.5)
        assert trace.nsectors.tolist() == [8, 16, 8, 1]
        assert trace.is_write.tolist() == [False, True, False, True]

    def test_spc_asu_filter(self, tmp_path):
        path = tmp_path / "financial.spc"
        path.write_text(_SPC_ROWS)
        trace = get_parser("spc", asu=0).parse(path)
        assert len(trace) == 3
        assert not trace.is_write[:2].any()

    def test_msr_converts_ticks_and_bytes(self, tmp_path):
        path = tmp_path / "msr.csv"
        path.write_text(_MSR_ROWS)
        trace = get_parser("msr").parse(path)
        assert trace.times.tolist() == [0.0, 1.0, 2.0]
        assert trace.lbas[0] == 1000  # 512000 bytes / 512
        assert trace.is_write.tolist() == [False, True, True]

    def test_label_defaults_to_stem_and_can_be_set(self, capture):
        fmt, path, _ = capture
        assert get_parser(fmt).parse(path).label == "capture"
        assert get_parser(fmt).parse(path, label="x").label == "x"

    def test_max_requests(self, capture):
        fmt, path, _ = capture
        assert len(get_parser(fmt).parse(path, max_requests=2)) == 2

    @pytest.mark.parametrize("limit", [0, -1])
    def test_max_requests_below_one_rejected(self, capture, limit):
        fmt, path, _ = capture
        parser = get_parser(fmt)
        with pytest.raises(TraceFormatError, match="max_requests must be >= 1"):
            parser.parse(path, max_requests=limit)
        with pytest.raises(TraceFormatError, match="max_requests must be >= 1"):
            next(parser.iter_chunks(path, max_requests=limit))

    def test_filter_matching_nothing_rejected(self, capture):
        fmt, path, no_match = capture
        with pytest.raises(TraceFormatError, match="no usable"):
            get_parser(fmt, **no_match).parse(path)

    @pytest.mark.parametrize("case", sorted(_CORRUPT_ROWS))
    def test_corrupt_row_rejected_with_location(self, case, tmp_path):
        fmt, row = _CORRUPT_ROWS[case]
        path = tmp_path / f"bad.{fmt}"
        path.write_text(row + "\n")
        with pytest.raises(TraceFormatError, match=r"bad\.\w+:1"):
            get_parser(fmt).parse(path)

    def test_parsed_trace_is_analyzable(self, capture, tiny_spec):
        from repro.core.timescales import run_millisecond_study

        fmt, path, _ = capture
        trace = get_parser(fmt).parse(path)
        # The toy files span under three seconds: use a sub-second scale.
        study = run_millisecond_study(trace, tiny_spec, utilization_scales=(0.1,))
        assert study.summary.n_requests == len(trace)


class TestTraceSource:
    def test_native_and_foreign_loads(self, tmp_path):
        fmt, filename, count = SAMPLES[0]
        src = TraceSource(str(SAMPLE_DIR / filename), format=fmt, strict=False)
        trace = src.load()
        assert len(trace) == count
        assert src.label == Path(filename).stem

        native = tmp_path / "native.csv"
        write_request_trace(trace, native)
        back = TraceSource(str(native)).load()
        assert len(back) == count

    def test_max_requests_applies_to_both_formats(self, tmp_path):
        fmt, filename, _ = SAMPLES[0]
        src = TraceSource(
            str(SAMPLE_DIR / filename), format=fmt, strict=False, max_requests=10
        )
        trace = src.load()
        assert len(trace) == 10
        native = tmp_path / "native.csv"
        write_request_trace(trace, native)
        assert len(TraceSource(str(native), max_requests=4).load()) == 4

    def test_max_requests_below_one_rejected(self):
        src = TraceSource(
            str(Path(__file__).parent / "golden" / "data" / "web_small.csv"),
            max_requests=0,
        )
        with pytest.raises(TraceFormatError, match="max_requests must be >= 1"):
            src.load()

    def test_is_picklable(self):
        import pickle

        src = TraceSource("somewhere.csv", format="msr")
        assert pickle.loads(pickle.dumps(src)) == src


class TestRunnerIntegration:
    def test_trace_job_replays_the_file(self):
        from repro.core.runner import ExperimentJob, ExperimentRunner
        from repro.disk.drive import cheetah_10k

        fmt, filename, count = SAMPLES[0]
        job = ExperimentJob(
            None,
            cheetah_10k(),
            trace=TraceSource(str(SAMPLE_DIR / filename), format=fmt, strict=False),
        )
        report = ExperimentRunner(workers=1).run_suite([job])
        result = report.results[0]
        assert result.n_requests == count
        assert result.profile == "sample_msr"
        assert result.span == pytest.approx(28.08, abs=0.1)

    def test_pooled_trace_jobs_match_inline(self):
        """Each pooled worker parses the file itself; results match an
        inline run job for job."""
        from repro.core.runner import ExperimentJob, ExperimentRunner
        from repro.disk.drive import cheetah_10k

        fmt, filename, count = SAMPLES[0]
        source = TraceSource(str(SAMPLE_DIR / filename), format=fmt, strict=False)
        jobs = [ExperimentJob(None, cheetah_10k(), trace=source, seed=s) for s in range(3)]
        pooled = ExperimentRunner(workers=2).run_suite(jobs)
        inline = ExperimentRunner(workers=1).run_suite(jobs)
        assert pooled.canonical_json() == inline.canonical_json()
        assert all(r.n_requests == count for r in pooled.results)

    def test_job_requires_exactly_one_source(self):
        from repro.core.runner import ExperimentJob
        from repro.disk.drive import cheetah_10k
        from repro.errors import SimulationError
        from repro.synth.profiles import get_profile

        with pytest.raises(SimulationError, match="exactly one"):
            ExperimentJob(None, cheetah_10k())
        with pytest.raises(SimulationError, match="exactly one"):
            ExperimentJob(
                get_profile("web"),
                cheetah_10k(),
                trace=TraceSource("x.csv"),
            )


def test_parse_row_error_is_value_error():
    assert issubclass(ParseRowError, ValueError)


def test_parser_classes_exported():
    for cls in (MsrParser, BlktraceParser, AlibabaParser, SpcParser):
        assert issubclass(cls, TraceParser)
        assert cls.format
