"""Unit tests for the closed-form Poisson case study (Section 4.3)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.poisson_case import (
    mean_fanout_for_reliability,
    poisson_critical_fanout,
    poisson_reliability,
)


class TestCriticalPoints:
    def test_critical_fanout(self):
        assert poisson_critical_fanout(0.5) == pytest.approx(2.0)
        assert poisson_critical_fanout(1.0) == pytest.approx(1.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            poisson_critical_fanout(0.0)


class TestPoissonReliability:
    def test_paper_headline_value(self):
        # The paper reports R(q=0.9, Po(4)) ~= 0.967 (it solves Eq. 12 with
        # rounded values); the exact fixed point of Eq. 11 is ~0.9695.
        value = poisson_reliability(4.0, 0.9)
        assert value == pytest.approx(0.9695, abs=2e-3)

    def test_paper_equivalent_pairs_have_equal_reliability(self):
        # {f=4.0, q=0.9} and {f=6.0, q=0.6} share f*q = 3.6 and therefore the
        # same analytical reliability (the observation behind Figs. 6-7).
        assert poisson_reliability(4.0, 0.9) == pytest.approx(
            poisson_reliability(6.0, 0.6), abs=1e-9
        )

    def test_zero_below_critical_point(self):
        assert poisson_reliability(2.0, 0.4) == 0.0
        assert poisson_reliability(1.0, 1.0) == 0.0  # exactly at threshold

    def test_satisfies_fixed_point_equation(self):
        for z, q in [(3.0, 0.8), (5.0, 0.5), (2.0, 0.9)]:
            s = poisson_reliability(z, q)
            assert s == pytest.approx(1.0 - math.exp(-z * q * s), abs=1e-9)

    def test_full_reliability_limit(self):
        # Very large fanout: essentially every nonfailed member is reached.
        assert poisson_reliability(50.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_fanout_and_q(self):
        zs = [1.5, 2.0, 3.0, 4.0, 6.0]
        values = [poisson_reliability(z, 0.8) for z in zs]
        assert all(b >= a for a, b in zip(values, values[1:], strict=False))
        qs = [0.3, 0.5, 0.7, 0.9, 1.0]
        values = [poisson_reliability(3.0, q) for q in qs]
        assert all(b >= a for a, b in zip(values, values[1:], strict=False))

    def test_invalid_fanout(self):
        with pytest.raises(ValueError):
            poisson_reliability(-1.0, 0.5)

    @given(
        z=st.floats(min_value=0.2, max_value=20.0),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_reliability_is_valid_probability(self, z, q):
        s = poisson_reliability(z, q)
        assert 0.0 <= s <= 1.0
        if z * q <= 1.0:
            assert s == 0.0
        else:
            assert s > 0.0


class TestEquation12:
    def test_round_trip_with_equation_11(self):
        # Eq. 12 then Eq. 11 must recover the target reliability.
        for s_target in (0.2, 0.5, 0.9, 0.99):
            for q in (0.4, 0.8, 1.0):
                z = mean_fanout_for_reliability(s_target, q)
                assert poisson_reliability(z, q) == pytest.approx(s_target, abs=1e-9)

    def test_known_value_from_paper(self):
        # Figs. 6-7: reliability 0.967 at q=0.9 needs mean fanout ~ 3.92,
        # i.e. roughly the f=4.0 the paper picks.
        z = mean_fanout_for_reliability(0.967, 0.9)
        assert z == pytest.approx(3.92, abs=0.02)

    def test_smaller_q_needs_larger_fanout(self):
        z_small_q = mean_fanout_for_reliability(0.9, 0.4)
        z_large_q = mean_fanout_for_reliability(0.9, 0.9)
        assert z_small_q > z_large_q

    def test_extreme_reliability_requires_huge_fanout(self):
        assert mean_fanout_for_reliability(0.9999, 0.2) > 40.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            mean_fanout_for_reliability(0.0, 0.5)
        with pytest.raises(ValueError):
            mean_fanout_for_reliability(1.0, 0.5)
        with pytest.raises(ValueError):
            mean_fanout_for_reliability(0.5, 0.0)
