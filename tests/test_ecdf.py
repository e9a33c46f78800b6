"""Empirical CDF."""

import numpy as np
import pytest

from repro.errors import StatsError
from repro.stats.ecdf import Ecdf


def test_basic_evaluation():
    e = Ecdf([1.0, 2.0, 3.0, 4.0])
    assert e(0.5) == 0.0
    assert e(1.0) == 0.25
    assert e(2.5) == 0.5
    assert e(4.0) == 1.0
    assert e(100.0) == 1.0


def test_vectorized_matches_scalar():
    sample = [3.0, 1.0, 2.0, 2.0, 5.0]
    e = Ecdf(sample)
    xs = np.linspace(0, 6, 13)
    np.testing.assert_allclose(e.evaluate(xs), [e(float(x)) for x in xs])


def test_nans_dropped():
    e = Ecdf([1.0, float("nan"), 2.0])
    assert e.n == 2


def test_empty_rejected():
    with pytest.raises(StatsError):
        Ecdf([])
    with pytest.raises(StatsError):
        Ecdf([float("nan")])


def test_quantiles():
    e = Ecdf([10.0, 20.0, 30.0, 40.0])
    assert e.quantile(0.0) == 10.0
    assert e.quantile(0.25) == 10.0
    assert e.quantile(0.5) == 20.0
    assert e.quantile(1.0) == 40.0
    assert e.median == 20.0


def test_quantile_bounds_checked():
    e = Ecdf([1.0])
    with pytest.raises(StatsError):
        e.quantile(-0.1)
    with pytest.raises(StatsError):
        e.quantile(1.1)


def test_quantiles_vectorized():
    e = Ecdf([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(e.quantiles([0.25, 0.5]), [1.0, 2.0])


def test_mean():
    assert Ecdf([1.0, 3.0]).mean == 2.0


def test_survival_complements_cdf():
    e = Ecdf([1.0, 2.0, 3.0])
    assert e.survival(1.5) == pytest.approx(1.0 - e(1.5))


def test_sample_points_linear():
    e = Ecdf(np.arange(1, 101, dtype=float))
    xs, ys = e.sample_points(k=10)
    assert xs.size == 10
    assert ys[0] <= ys[-1] == 1.0
    assert np.all(np.diff(ys) >= 0)


def test_sample_points_log():
    e = Ecdf(np.logspace(0, 3, 200))
    xs, ys = e.sample_points(k=20, log_x=True)
    assert np.all(xs > 0)
    assert np.all(np.diff(np.log(xs)) > 0)


def test_sample_points_log_rejects_nonpositive_only_sample():
    with pytest.raises(StatsError):
        Ecdf([0.0, -1.0]).sample_points(log_x=True)


def test_sample_points_needs_two():
    with pytest.raises(StatsError):
        Ecdf([1.0]).sample_points(k=1)


def test_quantile_inverse_property():
    rng = np.random.default_rng(0)
    sample = rng.exponential(1.0, 500)
    e = Ecdf(sample)
    for q in (0.1, 0.5, 0.9, 0.99):
        assert e(e.quantile(q)) >= q
