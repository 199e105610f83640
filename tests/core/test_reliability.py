"""Unit tests for the reliability API (R(q, P) and the tolerable failure ratio)."""

from __future__ import annotations

import math

import pytest

from repro.core.distributions import FixedFanout, PoissonFanout
from repro.core.poisson_case import mean_fanout_for_reliability, poisson_reliability
from repro.core.reliability import ReliabilityModel, reliability


class TestReliabilityFunction:
    def test_poisson_uses_closed_form(self):
        assert reliability(PoissonFanout(4.0), 0.9) == pytest.approx(
            poisson_reliability(4.0, 0.9), abs=1e-12
        )

    def test_generic_distribution(self):
        value = reliability(FixedFanout(4), 0.9)
        assert 0.9 < value <= 1.0

    def test_subcritical_is_zero(self):
        assert reliability(PoissonFanout(1.0), 0.5) == pytest.approx(0.0, abs=1e-6)

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            reliability(PoissonFanout(2.0), -0.1)


class TestReliabilityModel:
    def test_critical_ratio_delegates(self):
        model = ReliabilityModel(PoissonFanout(4.0))
        assert model.critical_ratio() == pytest.approx(0.25)

    def test_reliability_cached_and_correct(self):
        model = ReliabilityModel(PoissonFanout(4.0))
        first = model.reliability(0.9)
        second = model.reliability(0.9)
        assert first == second == pytest.approx(poisson_reliability(4.0, 0.9))

    def test_analysis_record(self):
        model = ReliabilityModel(PoissonFanout(5.0))
        record = model.analysis(0.5)
        assert record.supercritical
        assert record.giant_component_size == pytest.approx(model.reliability(0.5), abs=1e-9)

    def test_tolerable_failure_ratio_consistency(self):
        model = ReliabilityModel(PoissonFanout(4.0))
        target = 0.9
        max_failures = model.tolerable_failure_ratio(target)
        assert 0.0 < max_failures < 1.0
        q_min = 1.0 - max_failures
        # At the boundary the reliability meets the target; slightly beyond it fails.
        assert model.reliability(q_min) >= target - 1e-3
        assert model.reliability(max(q_min - 0.05, 0.0)) < target

    def test_tolerable_failure_ratio_unreachable_target(self):
        # Mean fanout 1.2 cannot reach 0.99 reliability even with q = 1.
        model = ReliabilityModel(PoissonFanout(1.2))
        assert model.tolerable_failure_ratio(0.99) == 0.0

    def test_tolerable_failure_ratio_monotone_in_target(self):
        model = ReliabilityModel(PoissonFanout(5.0))
        loose = model.tolerable_failure_ratio(0.5)
        strict = model.tolerable_failure_ratio(0.95)
        assert loose > strict

    def test_tolerable_failure_ratio_inverts_eq12(self):
        # Eq. 12, z = -ln(1 - s) / (q s), solved for q is the smallest q
        # that still reaches reliability s.
        for z, s in [(5.0, 0.9), (4.0, 0.5), (8.0, 0.99)]:
            q_min = -math.log(1.0 - s) / (z * s)
            ratio = ReliabilityModel(PoissonFanout(z)).tolerable_failure_ratio(s)
            assert ratio == pytest.approx(1.0 - q_min, abs=1e-5)
        s, q = 0.8, 0.7
        z = mean_fanout_for_reliability(s, q)
        ratio = ReliabilityModel(PoissonFanout(z)).tolerable_failure_ratio(s)
        assert ratio == pytest.approx(1.0 - q, abs=1e-5)

    def test_tolerable_failure_ratio_brackets_the_target(self, any_distribution):
        model = ReliabilityModel(any_distribution)
        target = 0.5
        ratio = model.tolerable_failure_ratio(target)
        if model.reliability(1.0) < target:
            assert ratio == 0.0
            return
        q_min = 1.0 - ratio
        assert model.reliability(q_min) >= target - 1e-9
        assert model.reliability(q_min - 1e-5) < target

    def test_invalid_target(self):
        model = ReliabilityModel(PoissonFanout(3.0))
        with pytest.raises(ValueError):
            model.tolerable_failure_ratio(1.0)
