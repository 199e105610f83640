"""Unit tests for the Binomial goodness-of-fit utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.binomial_fit import chi_square_binomial_test, fit_binomial


class TestFitBinomial:
    def test_mle_estimate(self):
        counts = np.array([8, 9, 10, 7, 6])
        fit = fit_binomial(counts, executions=10, reference_probability=0.8)
        assert fit.estimated_probability == pytest.approx(np.mean(counts) / 10)
        assert fit.absolute_difference == pytest.approx(abs(fit.estimated_probability - 0.8))

    def test_perfect_counts(self):
        fit = fit_binomial(np.full(20, 10), executions=10, reference_probability=1.0)
        assert fit.estimated_probability == 1.0
        assert fit.absolute_difference == 0.0

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            fit_binomial(np.array([]), executions=10, reference_probability=0.5)

    def test_out_of_range_counts_rejected(self):
        with pytest.raises(ValueError):
            fit_binomial(np.array([11]), executions=10, reference_probability=0.5)

    def test_invalid_reference(self):
        with pytest.raises(ValueError):
            fit_binomial(np.array([5]), executions=10, reference_probability=1.5)


class TestChiSquare:
    def test_binomial_samples_not_rejected(self):
        rng = np.random.default_rng(1)
        counts = rng.binomial(20, 0.95, size=300)
        result = chi_square_binomial_test(counts, executions=20, probability=0.95)
        assert result.p_value > 0.01
        assert result.degrees_of_freedom == result.pooled_bins - 1

    def test_wrong_probability_rejected(self):
        rng = np.random.default_rng(2)
        counts = rng.binomial(20, 0.5, size=300)
        result = chi_square_binomial_test(counts, executions=20, probability=0.95)
        assert result.p_value < 0.05

    def test_degenerate_pooling(self):
        # Tiny sample: everything pools into very few bins but the call succeeds.
        counts = np.array([20, 20, 19])
        result = chi_square_binomial_test(counts, executions=20, probability=0.99)
        assert result.pooled_bins >= 1
        assert 0.0 <= result.p_value <= 1.0

    def test_statistic_non_negative(self):
        rng = np.random.default_rng(3)
        counts = rng.binomial(10, 0.7, size=100)
        result = chi_square_binomial_test(counts, executions=10, probability=0.7)
        assert result.statistic >= 0.0

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            chi_square_binomial_test(np.array([]), executions=10, probability=0.5)
        with pytest.raises(ValueError):
            chi_square_binomial_test(np.array([-1]), executions=10, probability=0.5)
