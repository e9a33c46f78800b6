"""Property-based tests on the statistics substrate (hypothesis)."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import StatsError
from repro.stats.ecdf import Ecdf
from repro.stats.inequality import gini_coefficient, lorenz_curve, top_share
from repro.stats.moments import StreamingMoments, describe, sorted_quantiles
from repro.stats.tail import tail_heaviness_ratio

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
positive_floats = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)


@given(st.lists(finite_floats, min_size=1, max_size=200))
def test_ecdf_is_a_cdf(sample):
    e = Ecdf(sample)
    xs = np.linspace(min(sample) - 1, max(sample) + 1, 50)
    ys = e.evaluate(xs)
    assert np.all(np.diff(ys) >= 0)          # monotone
    assert 0.0 <= ys[0] and ys[-1] == 1.0    # bounded, reaches 1
    assert e(min(sample) - 1e-9) <= 1.0 / e.n


@given(st.lists(finite_floats, min_size=1, max_size=200), st.floats(0.0, 1.0))
def test_ecdf_quantile_galois(sample, q):
    e = Ecdf(sample)
    v = e.quantile(q)
    assert e(v) >= q - 1e-12
    assert v in e.values


@given(st.lists(finite_floats, min_size=2, max_size=300))
def test_streaming_matches_batch(sample):
    s = StreamingMoments()
    s.add_many(sample)
    arr = np.asarray(sample)
    assert np.isclose(s.mean, arr.mean(), rtol=1e-9, atol=1e-6)
    assert np.isclose(s.variance, arr.var(ddof=1), rtol=1e-6, atol=1e-6)


@given(
    st.lists(finite_floats, min_size=1, max_size=150),
    st.lists(finite_floats, min_size=1, max_size=150),
)
def test_streaming_merge_commutes(a, b):
    sa, sb = StreamingMoments(), StreamingMoments()
    sa.add_many(a)
    sb.add_many(b)
    ab, ba = sa.merge(sb), sb.merge(sa)
    assert np.isclose(ab.mean, ba.mean, rtol=1e-9, atol=1e-9)
    assert np.isclose(ab.variance, ba.variance, rtol=1e-6, atol=1e-9)


@given(st.lists(finite_floats, min_size=1, max_size=200))
def test_describe_orders_quantiles(sample):
    d = describe(sample)
    assert d.minimum <= d.p25 <= d.median <= d.p75 <= d.p95 <= d.p99 <= d.maximum


# Few distinct values force ties; the infinities and a NaN tail reach
# numpy's inf - inf and NaN-propagation branches.
quantile_samples = st.tuples(
    st.lists(
        st.one_of(
            finite_floats,
            st.sampled_from([0.0, 1.0, 2.5, -3.0, np.inf, -np.inf]),
        ),
        min_size=1,
        max_size=200,
    ),
    st.integers(0, 3),
).map(lambda drawn: drawn[0] + [np.nan] * drawn[1])
quantile_lists = st.lists(
    st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0])),
    min_size=1,
    max_size=8,
)


@given(quantile_samples, quantile_lists)
# At gamma = 0.5 the two sides of numpy's lerp round differently, and
# next to an infinity only the side numpy picks avoids inf - inf.
@example([0.1, 0.7], [0.5])
@example([-np.inf, 1.0], [0.5, 1.0, 0.0])
def test_sorted_quantiles_equal_numpy_quantile(sample, quantiles):
    values = np.asarray(sample, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        expected = np.quantile(values, quantiles)
        got = sorted_quantiles(np.sort(values), quantiles)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected, equal_nan=True)


def test_sorted_quantiles_rejects_empty_sample():
    with pytest.raises(StatsError, match="empty"):
        sorted_quantiles(np.array([], dtype=np.float64), [0.5])


@given(st.lists(positive_floats, min_size=1, max_size=200))
def test_lorenz_curve_below_diagonal(sample):
    pop, cum = lorenz_curve(sample)
    assert np.all(cum <= pop + 1e-9)
    assert np.all(np.diff(cum) >= -1e-12)


@given(st.lists(positive_floats, min_size=2, max_size=200))
def test_gini_in_unit_interval_and_scale_invariant(sample):
    g = gini_coefficient(sample)
    assert -1e-9 <= g < 1.0
    assert np.isclose(g, gini_coefficient([v * 7.5 for v in sample]), atol=1e-9)


@given(st.lists(positive_floats, min_size=1, max_size=200), st.floats(0.01, 0.99))
def test_top_share_bounds(sample, fraction):
    share = top_share(sample, fraction)
    k = max(1, int(round(fraction * len(sample))))
    assert k / len(sample) <= share + 1e-9  # top-k carries at least its headcount share
    assert share <= 1.0 + 1e-12


@given(st.lists(positive_floats, min_size=1, max_size=200))
def test_tail_heaviness_at_least_headcount_share(sample):
    share = tail_heaviness_ratio(sample, 0.25)
    k = max(1, int(round(0.25 * len(sample))))
    # The k largest values always carry at least k/n of the total.
    assert share >= k / len(sample) - 1e-9
    assert share <= 1.0 + 1e-12
