"""Unit tests for the success-of-gossiping model (Eqs. 5-6)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.success import (
    min_executions,
    success_count_cdf,
    success_count_pmf,
    success_probability,
)


class TestSuccessProbability:
    def test_single_execution_equals_reliability(self):
        assert success_probability(0.7, 1) == pytest.approx(0.7)

    def test_zero_executions_is_zero(self):
        assert success_probability(0.9, 0) == 0.0

    def test_formula(self):
        assert success_probability(0.5, 3) == pytest.approx(1 - 0.5**3)

    def test_perfect_reliability(self):
        assert success_probability(1.0, 1) == 1.0

    def test_zero_reliability(self):
        assert success_probability(0.0, 100) == 0.0

    def test_monotone_in_executions(self):
        values = [success_probability(0.4, t) for t in range(6)]
        assert all(b >= a for a, b in zip(values, values[1:], strict=False))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            success_probability(1.5, 2)
        with pytest.raises(ValueError):
            success_probability(0.5, -1)

    @given(
        p=st.floats(min_value=0.0, max_value=1.0),
        t=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_result_is_probability(self, p, t):
        value = success_probability(p, t)
        assert 0.0 <= value <= 1.0


class TestMinExecutions:
    def test_paper_example(self):
        # The paper: p_s = 0.999, p_r = 0.967 => t >= lg(0.001)/lg(0.033) ~= 2.03,
        # hence the minimum integer number of executions is 3.
        assert min_executions(0.999, 0.967) == 3

    def test_high_reliability_needs_few_executions(self):
        assert min_executions(0.999, 0.99) == 2
        assert min_executions(0.999, 0.9995) == 1

    def test_low_reliability_needs_many(self):
        assert min_executions(0.999, 0.3) == 20

    def test_result_satisfies_requirement_minimally(self):
        for p_r in (0.2, 0.4, 0.6, 0.8, 0.95):
            t = min_executions(0.999, p_r)
            assert success_probability(p_r, t) >= 0.999
            assert success_probability(p_r, t - 1) < 0.999

    def test_perfect_reliability_needs_one(self):
        assert min_executions(0.99, 1.0) == 1

    def test_zero_requirement_needs_none(self):
        assert min_executions(0.0, 0.5) == 0

    def test_zero_reliability_raises(self):
        with pytest.raises(ValueError):
            min_executions(0.9, 0.0)

    def test_requirement_of_one_rejected(self):
        with pytest.raises(ValueError):
            min_executions(1.0, 0.9)

    @given(
        p_s=st.floats(min_value=0.01, max_value=0.9999),
        p_r=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_minimality_property(self, p_s, p_r):
        t = min_executions(p_s, p_r)
        assert success_probability(p_r, t) >= p_s - 1e-12
        if t > 1:
            assert success_probability(p_r, t - 1) < p_s + 1e-9


class TestSuccessCountDistribution:
    def test_pmf_sums_to_one(self):
        pmf = success_count_pmf(20, 0.967)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
        assert len(pmf) == 21

    def test_pmf_mode_near_t_for_high_reliability(self):
        pmf = success_count_pmf(20, 0.967)
        assert int(np.argmax(pmf)) == 20

    def test_mean_matches_binomial(self):
        pmf = success_count_pmf(10, 0.4)
        mean = float(np.sum(np.arange(11) * pmf))
        assert mean == pytest.approx(4.0, abs=1e-9)

    def test_cdf_matches_cumsum_of_pmf(self):
        pmf = success_count_pmf(15, 0.6)
        cdf = success_count_cdf(15, 0.6)
        np.testing.assert_allclose(cdf, np.cumsum(pmf), atol=1e-9)

    def test_degenerate_probabilities(self):
        pmf0 = success_count_pmf(5, 0.0)
        assert pmf0[0] == pytest.approx(1.0)
        pmf1 = success_count_pmf(5, 1.0)
        assert pmf1[5] == pytest.approx(1.0)
