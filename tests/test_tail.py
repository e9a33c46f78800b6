"""Heavy-tail diagnostics: the tail heaviness ratio."""

import numpy as np
import pytest

from repro.errors import StatsError
from repro.stats.tail import tail_heaviness_ratio
from repro.synth.arrivals import pareto_sample


class TestTailHeavinessRatio:
    def test_uniform_top_decile_share(self):
        sample = np.arange(1, 101, dtype=float)
        share = tail_heaviness_ratio(sample, 0.1)
        assert share == pytest.approx(sum(range(91, 101)) / sum(range(1, 101)))

    def test_heavy_tail_concentrates(self):
        rng = np.random.default_rng(32)
        heavy = pareto_sample(rng, alpha=1.1, xm=1.0, size=20000)
        light = rng.exponential(1.0, 20000)
        assert tail_heaviness_ratio(heavy) > tail_heaviness_ratio(light) + 0.2

    def test_exponential_reference_value(self):
        rng = np.random.default_rng(33)
        sample = rng.exponential(1.0, 100000)
        # Top 10% of an exponential carries ~33% of the mass.
        assert tail_heaviness_ratio(sample) == pytest.approx(0.33, abs=0.03)

    def test_all_zero_nan(self):
        assert np.isnan(tail_heaviness_ratio([0.0, 0.0]))

    def test_fraction_bounds_checked(self):
        with pytest.raises(StatsError):
            tail_heaviness_ratio([1.0], 0.0)
        with pytest.raises(StatsError):
            tail_heaviness_ratio([1.0], 1.0)

    def test_empty_rejected(self):
        with pytest.raises(StatsError):
            tail_heaviness_ratio([], 0.1)

    def test_nans_dropped(self):
        share = tail_heaviness_ratio([1.0, float("nan"), 9.0], 0.5)
        assert share == pytest.approx(0.9)
