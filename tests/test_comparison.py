"""Cross-workload comparison."""

import numpy as np
import pytest

from repro.core.comparison import FEATURE_NAMES, compare_studies, feature_vector
from repro.core.timescales import run_millisecond_study
from repro.errors import AnalysisError
from repro.synth.profiles import get_profile


@pytest.fixture(scope="module")
def studies(tiny_spec):
    names = ("web", "email", "database", "fileserver")
    return {
        name: run_millisecond_study(get_profile(name), tiny_spec, span=40.0, seed=19)
        for name in names
    }


def test_feature_vector_shape(studies):
    v = feature_vector(studies["web"])
    assert v.shape == (len(FEATURE_NAMES),)
    assert np.isfinite(v[0])  # rate always defined


def test_compare_structure(studies):
    result = compare_studies(studies)
    n = len(studies)
    assert result.distances.shape == (n, n)
    assert np.allclose(result.distances, result.distances.T)
    assert np.allclose(np.diag(result.distances), 0.0)
    assert result.features.shape == (n, len(FEATURE_NAMES))


def test_distances_positive_off_diagonal(studies):
    result = compare_studies(studies)
    n = len(studies)
    for i in range(n):
        for j in range(i + 1, n):
            assert result.distances[i, j] > 0


def test_similar_pairs_consistent(studies):
    result = compare_studies(studies)
    a, b, d_min = result.most_similar_pair()
    x, y, d_max = result.least_similar_pair()
    assert d_min <= d_max
    assert {a, b} != {x, y} or len(studies) == 2


def test_self_similarity(tiny_spec):
    # Two seeds of the same profile should be nearer to each other than
    # to a structurally different workload.
    web_a = run_millisecond_study(get_profile("web"), tiny_spec, span=40.0, seed=1)
    web_b = run_millisecond_study(get_profile("web"), tiny_spec, span=40.0, seed=2)
    backup = run_millisecond_study(get_profile("backup"), tiny_spec, span=40.0, seed=1)
    result = compare_studies({"web_a": web_a, "web_b": web_b, "backup": backup})
    a, b, _ = result.most_similar_pair()
    assert {a, b} == {"web_a", "web_b"}


def test_needs_two_studies(studies):
    with pytest.raises(AnalysisError):
        compare_studies({"one": studies["web"]})
