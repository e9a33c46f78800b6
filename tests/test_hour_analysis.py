"""Hour-scale population analysis."""

import warnings

import numpy as np
import pytest

from repro.core.hour_analysis import (
    analyze_hour_scale,
    diurnal_peak_ratio,
    population_weekly_curve,
)
from repro.errors import AnalysisError
from repro.synth.hourly import HourlyWorkloadModel
from repro.traces.hourly import HourlyDataset, HourlyTrace
from repro.units import MIB, SECONDS_PER_HOUR


@pytest.fixture(scope="module")
def dataset():
    model = HourlyWorkloadModel(bandwidth=80 * MIB, saturated_fraction=0.2)
    return model.generate(n_drives=80, weeks=2, seed=13)


def test_analysis_shape(dataset):
    a = analyze_hour_scale(dataset, bandwidth=80 * MIB)
    assert a.n_drives == 80
    assert a.hours == 336
    assert a.mean_throughput_ecdf.n == 80
    assert set(a.longest_stretches) == set(dataset.drives)


def test_peak_exceeds_mean(dataset):
    a = analyze_hour_scale(dataset, bandwidth=80 * MIB)
    assert a.peak_throughput_ecdf.median > a.mean_throughput_ecdf.median
    assert a.peak_to_mean_ecdf.median > 1.5


def test_saturation_statistics_consistent(dataset):
    a = analyze_hour_scale(dataset, bandwidth=80 * MIB)
    assert 0.0 <= a.saturated_hour_fraction <= 1.0
    assert a.multi_hour_saturated_fraction <= a.saturated_drive_fraction
    # With a 20% saturated-episode population, some drives saturate >= 3h.
    assert a.multi_hour_saturated_fraction > 0.02


def test_empty_dataset_rejected():
    with pytest.raises(AnalysisError):
        analyze_hour_scale(HourlyDataset([]), bandwidth=1.0)


def test_bad_bandwidth_rejected(dataset):
    with pytest.raises(AnalysisError):
        analyze_hour_scale(dataset, bandwidth=0.0)


def test_bad_multi_hour_rejected(dataset):
    with pytest.raises(AnalysisError):
        analyze_hour_scale(dataset, bandwidth=1.0, multi_hour=0)


class TestWeeklyCurve:
    def test_shape_and_positivity(self, dataset):
        curve = population_weekly_curve(dataset)
        assert curve.shape == (168,)
        assert np.nanmin(curve) >= 0

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            population_weekly_curve(HourlyDataset([]))

    def test_diurnal_peak_ratio_above_one(self, dataset):
        assert diurnal_peak_ratio(dataset) > 1.5

    def test_flat_population_ratio_one(self):
        flat = HourlyDataset(
            [HourlyTrace(f"d{i}", np.ones(336) * 1e9, np.zeros(336)) for i in range(4)]
        )
        assert diurnal_peak_ratio(flat) == pytest.approx(1.0)

    def test_ratio_nan_for_sparse_observation(self):
        short = HourlyDataset([HourlyTrace("d", np.ones(24), np.zeros(24))])
        assert np.isnan(diurnal_peak_ratio(short))

    def test_unobserved_hours_nan_without_warning(self):
        # One day observed: the other 144 hours of the week have no data.
        short = HourlyDataset([
            HourlyTrace("a", np.ones(24), np.zeros(24)),
            HourlyTrace("b", np.full(24, 3.0), np.zeros(24)),
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = population_weekly_curve(short)
            assert np.isnan(diurnal_peak_ratio(short))
        assert curve[:24].tolist() == [2.0] * 24
        assert np.isnan(curve[24:]).all()


def test_saturated_drive_detection_exact():
    bw = 1.0
    cap = bw * SECONDS_PER_HOUR
    quiet = HourlyTrace("quiet", np.full(10, 0.1 * cap), np.zeros(10))
    busy = HourlyTrace("busy", np.full(10, 0.95 * cap), np.zeros(10))
    ds = HourlyDataset([quiet, busy])
    a = analyze_hour_scale(ds, bandwidth=bw, threshold=0.9, multi_hour=3)
    assert a.saturated_drive_fraction == pytest.approx(0.5)
    assert a.multi_hour_saturated_fraction == pytest.approx(0.5)
    assert a.saturated_hour_fraction == pytest.approx(0.5)
    assert a.longest_stretches["busy"] == 10
    assert a.longest_stretches["quiet"] == 0
