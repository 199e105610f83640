"""Unit tests for the percolation analysis (Eqs. 2-4 of the paper)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distributions import (
    EmpiricalFanout,
    FixedFanout,
    GeometricFanout,
    PoissonFanout,
    UniformFanout,
    ZipfFanout,
)
from repro.core.percolation import (
    critical_fanout_scale,
    critical_mean_fanout,
    critical_ratio,
    giant_component_size,
    giant_component_size_all_nodes,
    mean_component_size,
    percolation_analysis,
    spanning_fanout_condition,
)


class TestCriticalRatio:
    def test_poisson_critical_ratio_is_reciprocal_of_mean(self):
        # Eq. 10: q_c = 1/z for Poisson fanout.
        for z in (1.5, 2.0, 4.0, 6.0):
            assert critical_ratio(PoissonFanout(z)) == pytest.approx(1.0 / z, rel=1e-9)

    def test_fixed_fanout_critical_ratio(self):
        # G1'(1) = k - 1 for a fixed fanout k, so q_c = 1/(k-1).
        assert critical_ratio(FixedFanout(4)) == pytest.approx(1.0 / 3.0)

    def test_degenerate_distributions_have_infinite_threshold(self):
        assert critical_ratio(FixedFanout(0)) == math.inf
        assert critical_ratio(FixedFanout(1)) == math.inf
        assert critical_ratio(EmpiricalFanout([0.5, 0.5])) == math.inf

    def test_critical_mean_fanout_inverse(self):
        assert critical_mean_fanout(0.5) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            critical_mean_fanout(0.0)

    def test_heavier_tail_lowers_threshold_at_equal_mean(self):
        # At equal mean, a heavier-tailed fanout has a larger excess degree
        # and therefore a smaller critical ratio.
        poisson = PoissonFanout(3.0)
        geometric = GeometricFanout.from_mean(3.0)
        assert critical_ratio(geometric) < critical_ratio(poisson)


class TestMeanComponentSize:
    def test_subcritical_value_matches_formula(self):
        dist = PoissonFanout(2.0)
        q = 0.3  # q z = 0.6 < 1: subcritical
        expected = q * (1.0 + q * dist.g0_prime(1.0) / (1.0 - q * dist.g1_prime(1.0)))
        assert mean_component_size(dist, q) == pytest.approx(expected)

    def test_diverges_at_critical_point(self):
        dist = PoissonFanout(2.0)
        assert mean_component_size(dist, 0.5) == math.inf
        assert mean_component_size(dist, 0.9) == math.inf

    def test_grows_towards_threshold(self):
        dist = PoissonFanout(2.0)
        values = [mean_component_size(dist, q) for q in (0.1, 0.2, 0.3, 0.4, 0.45)]
        assert all(b > a for a, b in zip(values, values[1:], strict=False))

    def test_q_zero(self):
        assert mean_component_size(PoissonFanout(3.0), 0.0) == 0.0


class TestGiantComponentSize:
    def test_zero_below_threshold(self):
        assert giant_component_size(PoissonFanout(2.0), 0.4) == pytest.approx(0.0, abs=1e-6)

    def test_positive_above_threshold(self):
        assert giant_component_size(PoissonFanout(2.0), 0.7) > 0.2

    def test_matches_poisson_closed_form(self):
        from repro.core.poisson_case import poisson_reliability

        for z, q in [(4.0, 0.9), (6.0, 0.6), (2.0, 0.8), (3.0, 1.0)]:
            assert giant_component_size(PoissonFanout(z), q) == pytest.approx(
                poisson_reliability(z, q), abs=1e-6
            )

    def test_monotone_in_q(self):
        dist = PoissonFanout(3.0)
        sizes = [giant_component_size(dist, q) for q in (0.4, 0.5, 0.7, 0.9, 1.0)]
        assert all(b >= a - 1e-9 for a, b in zip(sizes, sizes[1:], strict=False))

    def test_monotone_in_mean_fanout(self):
        sizes = [giant_component_size(PoissonFanout(z), 0.8) for z in (1.5, 2.0, 3.0, 5.0, 8.0)]
        assert all(b >= a - 1e-9 for a, b in zip(sizes, sizes[1:], strict=False))

    def test_all_nodes_normalisation(self):
        dist = PoissonFanout(4.0)
        q = 0.75
        assert giant_component_size_all_nodes(dist, q) == pytest.approx(
            q * giant_component_size(dist, q)
        )

    def test_zero_mean_distribution(self):
        assert giant_component_size(FixedFanout(0), 0.9) == 0.0

    @pytest.mark.parametrize(
        ("dist", "q"),
        [
            (UniformFanout(0, 2), 0.9),  # q_c = 1.5
            (GeometricFanout.from_mean(0.4), 0.9),  # q_c = 1.25
            (GeometricFanout.from_mean(1.0), 0.5),  # exactly at q_c = 0.5
        ],
        ids=["uniform-0-2", "geometric-0.4", "geometric-1-at-q_c"],
    )
    def test_exactly_zero_at_or_below_threshold(self, dist, q):
        """The solver stops just short of u = 1 there; Eq. 3 decides, as ``supercritical`` does."""
        assert q <= critical_ratio(dist)
        assert giant_component_size(dist, q) == 0.0
        assert giant_component_size_all_nodes(dist, q) == 0.0
        result = percolation_analysis(dist, q)
        assert not result.supercritical
        assert result.giant_component_size == result.giant_component_size_all == 0.0
        assert result.u == 1.0

    def test_q_zero_gives_zero(self):
        assert giant_component_size(PoissonFanout(5.0), 0.0) == 0.0

    def test_fixed_fanout_reliability_higher_than_poisson_at_same_mean(self):
        # Lower fanout variance concentrates the degree at the mean, which for
        # supercritical settings yields a slightly larger giant component.
        q = 0.9
        assert giant_component_size(FixedFanout(4), q) > giant_component_size(
            PoissonFanout(4.0), q
        )

    @given(
        z=st.floats(min_value=0.3, max_value=12.0),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_size_in_unit_interval(self, z, q):
        size = giant_component_size(PoissonFanout(z), q)
        assert 0.0 <= size <= 1.0

    @given(
        alpha=st.floats(min_value=1.2, max_value=3.5),
        q=st.floats(min_value=0.1, max_value=1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_zipf_size_in_unit_interval(self, alpha, q):
        size = giant_component_size(ZipfFanout(alpha, 30), q)
        assert 0.0 <= size <= 1.0


class TestPercolationAnalysis:
    def test_record_is_consistent(self):
        dist = PoissonFanout(4.0)
        result = percolation_analysis(dist, 0.9)
        assert result.q == 0.9
        assert result.mean_fanout == pytest.approx(4.0)
        assert result.critical_ratio == pytest.approx(0.25)
        assert result.supercritical
        assert result.giant_component_size == pytest.approx(
            giant_component_size(dist, 0.9), abs=1e-9
        )
        assert result.giant_component_size_all == pytest.approx(
            0.9 * result.giant_component_size
        )
        assert 0.0 <= result.u < 1.0

    def test_subcritical_record(self):
        result = percolation_analysis(PoissonFanout(2.0), 0.3)
        assert not result.supercritical
        assert result.giant_component_size == pytest.approx(0.0, abs=1e-6)
        assert result.u == pytest.approx(1.0, abs=1e-6)
        assert math.isfinite(result.mean_component_size)

    def test_q_zero_record(self):
        result = percolation_analysis(PoissonFanout(3.0), 0.0)
        assert result.giant_component_size == 0.0
        assert not result.supercritical

    def test_zero_mean_record(self):
        result = percolation_analysis(FixedFanout(0), 0.8)
        assert result.giant_component_size == 0.0
        assert result.critical_ratio == math.inf


class TestSpanningCondition:
    def test_condition_matches_threshold(self):
        dist = PoissonFanout(4.0)
        assert spanning_fanout_condition(dist, 0.3)
        assert not spanning_fanout_condition(dist, 0.2)

    def test_scale_factor(self):
        dist = PoissonFanout(4.0)
        assert critical_fanout_scale(dist, 0.5) == pytest.approx(2.0)
        assert critical_fanout_scale(dist, 0.25) == pytest.approx(1.0)

    def test_zero_mean(self):
        assert not spanning_fanout_condition(FixedFanout(0), 0.9)
        assert critical_fanout_scale(FixedFanout(0), 0.9) == 0.0
