"""Tests for the shared numerics: entropy, regression, traces."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.analysis.entropy import field_entropy, joint_entropy, quantize
from repro.analysis.regression import LinearModel, fit_linear, polynomial_features
from repro.analysis.traces import correlate, crest_indices, moving_average, pearson
from repro.errors import DefenseError, ReproError


class TestEntropy:
    def test_constant_field_zero_entropy(self):
        assert field_entropy([5, 5, 5, 5]) == 0.0

    def test_uniform_field_max_entropy(self):
        assert field_entropy([1, 2, 3, 4]) == pytest.approx(2.0)

    def test_empty_is_zero(self):
        assert field_entropy([]) == 0.0

    def test_joint_entropy_sums_fields(self):
        fields = {"a": [1, 2, 3, 4], "b": [1, 1, 2, 2]}
        assert joint_entropy(fields) == pytest.approx(2.0 + 1.0)

    @given(st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=50))
    def test_entropy_bounds(self, values):
        h = field_entropy(values)
        assert 0.0 <= h <= math.log2(len(values)) + 1e-9

    def test_quantize_constant(self):
        assert quantize([3.0, 3.0, 3.0]) == [0, 0, 0]

    def test_quantize_range(self):
        buckets = quantize([0.0, 50.0, 100.0], bins=4)
        assert buckets[0] == 0
        assert buckets[-1] == 3

    def test_quantize_subnormal_span(self):
        assert quantize([0.0, 5e-324]) == [0, 63]

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    def test_quantize_in_bounds(self, values):
        assert all(0 <= b < 64 for b in quantize(values))


class TestRegression:
    def test_exact_linear_recovery(self):
        features = [[1.0, 2.0], [2.0, 1.0], [3.0, 5.0], [0.0, 0.0]]
        targets = [3.0 * x + 2.0 * y + 1.0 for x, y in features]
        model = fit_linear(features, targets)
        assert model.weights[0] == pytest.approx(3.0)
        assert model.weights[1] == pytest.approx(2.0)
        assert model.intercept == pytest.approx(1.0)
        assert model.r_squared == pytest.approx(1.0)

    def test_predict(self):
        model = LinearModel(weights=(2.0,), intercept=1.0, r_squared=1.0)
        assert model.predict([3.0]) == 7.0

    def test_predict_dimension_checked(self):
        model = LinearModel(weights=(2.0,), intercept=1.0, r_squared=1.0)
        with pytest.raises(DefenseError):
            model.predict([1.0, 2.0])

    def test_empty_fit_rejected(self):
        with pytest.raises(DefenseError):
            fit_linear([], [])

    def test_underdetermined_rejected(self):
        with pytest.raises(DefenseError):
            fit_linear([[1.0, 2.0]], [3.0])

    def test_polynomial_features_degrees(self):
        assert polynomial_features(2.0, 3.0, 1) == [2.0, 3.0]
        assert polynomial_features(2.0, 3.0, 2) == [2.0, 3.0, 4.0, 6.0, 9.0]
        assert len(polynomial_features(2.0, 3.0, 3)) == 9

    def test_bad_degree_rejected(self):
        with pytest.raises(DefenseError):
            polynomial_features(1.0, 1.0, 0)


class TestTraces:
    def test_pearson_perfect_correlation(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_pearson_anticorrelation(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_pearson_constant_pairs(self):
        assert pearson([5, 5], [5, 5]) == 1.0
        assert pearson([5, 5], [6, 6]) == 0.0

    def test_pearson_length_mismatch(self):
        with pytest.raises(ReproError):
            pearson([1, 2], [1, 2, 3])

    def test_correlate_ignores_offsets(self):
        a = [100, 110, 105, 120, 118]
        b = [900, 910, 905, 920, 918]  # same movements, different base
        assert correlate(a, b) == pytest.approx(1.0)

    def test_correlate_uncorrelated_low(self):
        a = [1, 5, 2, 8, 3, 9, 4]
        b = [9, 2, 8, 1, 9, 2, 7]
        assert correlate(a, b) < 0.5

    def test_correlate_needs_three_samples(self):
        with pytest.raises(ReproError):
            correlate([1, 2], [1, 2])

    def test_crest_indices(self):
        values = [0, 1, 2, 10, 2, 1, 9, 0]
        crests = crest_indices(values, threshold_fraction=0.8)
        assert crests == [3, 6]

    def test_crest_flat_series_empty(self):
        assert crest_indices([5, 5, 5]) == []

    def test_crest_threshold_validated(self):
        with pytest.raises(ReproError):
            crest_indices([1, 2], threshold_fraction=1.5)

    def test_moving_average(self):
        assert moving_average([2, 4, 6, 8], window=2) == [2.0, 3.0, 5.0, 7.0]

    def test_moving_average_bad_window(self):
        with pytest.raises(ReproError):
            moving_average([1], window=0)
