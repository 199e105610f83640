"""Unit tests for the success-count simulation (Figs. 6-7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distributions import FixedFanout, PoissonFanout
from repro.simulation.rounds import simulate_success_counts


class TestSuccessCounts:
    def test_shapes_and_ranges(self):
        result = simulate_success_counts(
            150, PoissonFanout(4.0), 0.9, executions=10, simulations=15, seed=4
        )
        assert result.counts.shape == (15,)
        assert result.counts.min() >= 0 and result.counts.max() <= 10
        assert result.executions == 10
        assert result.empirical_pmf.shape == (11,)

    def test_per_member_mode_matches_binomial_mean(self):
        result = simulate_success_counts(
            600, PoissonFanout(4.0), 0.9, executions=20, simulations=40, seed=5
        )
        expected_mean = 20 * result.analytical_reliability
        assert result.counts.mean() == pytest.approx(expected_mean, abs=1.5)

    def test_all_members_mode_is_stricter(self):
        per_member = simulate_success_counts(
            400, PoissonFanout(4.0), 0.9, executions=10, simulations=20, seed=6, mode="per_member"
        )
        all_members = simulate_success_counts(
            400, PoissonFanout(4.0), 0.9, executions=10, simulations=20, seed=6, mode="all_members"
        )
        assert all_members.counts.mean() <= per_member.counts.mean() + 1e-9

    def test_all_members_with_threshold(self):
        strict = simulate_success_counts(
            300, PoissonFanout(4.0), 0.9, executions=8, simulations=15, seed=7,
            mode="all_members", success_threshold=1.0,
        )
        relaxed = simulate_success_counts(
            300, PoissonFanout(4.0), 0.9, executions=8, simulations=15, seed=7,
            mode="all_members", success_threshold=0.8,
        )
        assert relaxed.counts.mean() >= strict.counts.mean() - 1e-9

    def test_huge_fanout_always_succeeds(self):
        result = simulate_success_counts(
            80, FixedFanout(79), 1.0, executions=5, simulations=10, seed=8, mode="all_members"
        )
        assert np.all(result.counts == 5)

    def test_subcritical_rarely_succeeds(self):
        result = simulate_success_counts(
            500, PoissonFanout(0.5), 1.0, executions=10, simulations=10, seed=9
        )
        assert result.counts.mean() < 2.0

    def test_observer_never_equals_nonzero_source(self):
        # With a subcritical fanout the gossip rarely leaves the source, so
        # an observer drawn equal to the source would register trivial
        # always-success simulations; the count must stay near zero for any
        # source placement.
        result = simulate_success_counts(
            80, PoissonFanout(0.2), 1.0, executions=20, simulations=40, source=5, seed=21
        )
        assert result.counts.max() < 15

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            simulate_success_counts(100, PoissonFanout(3.0), 0.9, mode="bogus")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            simulate_success_counts(1, PoissonFanout(3.0), 0.9)
        with pytest.raises(ValueError):
            simulate_success_counts(100, PoissonFanout(3.0), 0.9, executions=0)
        with pytest.raises(ValueError):
            simulate_success_counts(100, PoissonFanout(3.0), 0.9, simulations=0)

    def test_reproducible(self):
        a = simulate_success_counts(200, PoissonFanout(3.0), 0.8, executions=5, simulations=10, seed=10)
        b = simulate_success_counts(200, PoissonFanout(3.0), 0.8, executions=5, simulations=10, seed=10)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_condition_on_spread_matches_binomial_reference(self):
        conditional = simulate_success_counts(
            600, PoissonFanout(4.0), 0.9, executions=20, simulations=40, seed=11,
            condition_on_spread=True,
        )
        unconditional = simulate_success_counts(
            600, PoissonFanout(4.0), 0.9, executions=20, simulations=40, seed=11,
        )
        # Conditioning on take-off makes the per-trial success probability
        # equal to the analytical reliability, so the empirical mean moves
        # towards (and at least as high as) the Binomial reference mean.
        reference_mean = 20 * conditional.analytical_reliability
        assert conditional.counts.mean() == pytest.approx(reference_mean, abs=1.0)
        assert conditional.counts.mean() >= unconditional.counts.mean() - 1e-9
        assert conditional.total_variation_distance() <= unconditional.total_variation_distance() + 0.05
