"""Unit tests for the empirical giant-component estimate."""

from __future__ import annotations

import pytest

from repro.core.distributions import FixedFanout, PoissonFanout
from repro.core.poisson_case import poisson_reliability
from repro.graphs.metrics import empirical_giant_component


class TestEmpiricalGiantComponent:
    def test_matches_analysis_supercritical(self):
        estimate = empirical_giant_component(
            PoissonFanout(4.0), 3000, 0.9, repetitions=5, seed=1
        )
        # The undirected configuration graph with Poisson degrees under site
        # percolation follows the same Eq. 11 fixed point.
        assert estimate.mean_fraction == pytest.approx(poisson_reliability(4.0, 0.9), abs=0.05)

    def test_small_below_threshold(self):
        estimate = empirical_giant_component(
            PoissonFanout(1.0), 3000, 0.5, repetitions=5, seed=2
        )
        assert estimate.mean_fraction < 0.05

    def test_repetition_bookkeeping(self):
        estimate = empirical_giant_component(FixedFanout(3), 500, 0.8, repetitions=3, seed=3)
        assert estimate.repetitions == 3
        assert estimate.std_fraction >= 0.0

    def test_q_zero(self):
        estimate = empirical_giant_component(PoissonFanout(3.0), 200, 0.0, repetitions=2, seed=4)
        assert estimate.mean_fraction <= 1.0

    def test_single_repetition_has_zero_std(self):
        estimate = empirical_giant_component(PoissonFanout(3.0), 200, 0.8, repetitions=1, seed=5)
        assert estimate.std_fraction == 0.0

    def test_invalid_repetitions(self):
        with pytest.raises(ValueError):
            empirical_giant_component(PoissonFanout(3.0), 100, 0.5, repetitions=0)
