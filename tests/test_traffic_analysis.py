"""Read/write traffic dynamics."""

import numpy as np
import pytest

from repro.core.traffic import analyze_traffic, write_bursts
from repro.errors import AnalysisError
from repro.traces.millisecond import RequestTrace


def make_trace():
    # 4 windows of 1 s: [all reads][all writes][mixed][empty]
    return RequestTrace(
        times=[0.1, 0.5, 1.2, 1.8, 2.1, 2.9],
        lbas=[0] * 6,
        nsectors=[8, 8, 8, 8, 8, 24],
        is_write=[False, False, True, True, True, False],
        span=4.0,
        label="traffic",
    )


def test_rates_per_window():
    d = analyze_traffic(make_trace(), scale=1.0)
    bytes_8 = 8 * 512
    np.testing.assert_allclose(d.read_rate, [2 * bytes_8, 0.0, 3 * bytes_8, 0.0])
    np.testing.assert_allclose(d.write_rate, [0.0, 2 * bytes_8, bytes_8, 0.0])


def test_write_fraction_series():
    d = analyze_traffic(make_trace(), scale=1.0)
    assert d.write_fraction[0] == 0.0
    assert d.write_fraction[1] == 1.0
    assert d.write_fraction[2] == pytest.approx(0.25)
    assert np.isnan(d.write_fraction[3])


def test_mean_write_fraction_matches_trace():
    t = make_trace()
    d = analyze_traffic(t, scale=1.0)
    assert d.mean_write_fraction == pytest.approx(t.write_byte_fraction)


def test_dynamics_std_positive_for_swinging_mix():
    d = analyze_traffic(make_trace(), scale=1.0)
    assert d.write_fraction_std > 0.3


def test_empty_trace_rejected():
    with pytest.raises(AnalysisError):
        analyze_traffic(RequestTrace.empty(span=1.0))


def test_bad_scale_rejected():
    with pytest.raises(AnalysisError):
        analyze_traffic(make_trace(), scale=0.0)


class TestWriteBursts:
    def test_detects_write_window(self):
        episodes = write_bursts(make_trace(), scale=1.0, threshold=0.9)
        assert episodes == [(1.0, 1.0)]

    def test_consecutive_windows_merge(self):
        t = RequestTrace(
            times=[0.5, 1.5, 2.5],
            lbas=[0] * 3,
            nsectors=[8] * 3,
            is_write=[True, True, False],
            span=3.0,
        )
        assert write_bursts(t, scale=1.0) == [(0.0, 2.0)]

    def test_burst_extends_to_end(self):
        t = RequestTrace(times=[0.5], lbas=[0], nsectors=[8], is_write=[True], span=1.0)
        assert write_bursts(t, scale=1.0) == [(0.0, 1.0)]

    def test_empty_windows_break_bursts(self):
        t = RequestTrace(
            times=[0.5, 2.5],
            lbas=[0, 0],
            nsectors=[8, 8],
            is_write=[True, True],
            span=3.0,
        )
        assert write_bursts(t, scale=1.0) == [(0.0, 1.0), (2.0, 1.0)]

    def test_bad_threshold_rejected(self):
        with pytest.raises(AnalysisError):
            write_bursts(make_trace(), threshold=0.0)


def test_markov_mix_swings_more_than_bernoulli(tiny_spec):
    from repro.synth.mix import BernoulliMix, MarkovMix
    from repro.synth.sizes import FixedSizes
    from repro.synth.workload import ArrivalSpec, WorkloadProfile

    base = dict(
        rate=100.0, arrival=ArrivalSpec("poisson"), spatial="uniform",
        sizes=FixedSizes(8),
    )
    markov = WorkloadProfile(name="m", mix=MarkovMix(0.5, 50.0), **base)
    bernoulli = WorkloadProfile(name="b", mix=BernoulliMix(0.5), **base)
    cap = tiny_spec.capacity_sectors
    dm = analyze_traffic(markov.synthesize(120.0, cap, seed=1), scale=1.0)
    db = analyze_traffic(bernoulli.synthesize(120.0, cap, seed=1), scale=1.0)
    assert dm.write_fraction_std > 1.5 * db.write_fraction_std
