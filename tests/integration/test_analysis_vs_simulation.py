"""Integration tests: the analytical model against the simulators.

These are the library-level statements of the paper's validation claims
(Section 5): the simulated reliability tracks the giant-component size, the
critical point sits at ``f·q = 1``, and the success counts follow the
Binomial of Eq. 5.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.binomial_fit import fit_binomial
from repro.core.distributions import FixedFanout, GeometricFanout, PoissonFanout
from repro.core.percolation import critical_ratio, giant_component_size
from repro.core.poisson_case import poisson_reliability
from repro.graphs.metrics import empirical_giant_component
from repro.simulation.rounds import simulate_success_counts
from repro.simulation.runner import estimate_reliability


class TestReliabilityAgreement:
    @pytest.mark.parametrize(
        "mean_fanout,q",
        [(4.0, 0.9), (6.0, 0.6), (3.0, 0.8), (5.0, 1.0), (2.5, 0.7)],
    )
    def test_poisson_simulation_matches_equation_11(self, mean_fanout, q):
        estimate = estimate_reliability(
            2000,
            PoissonFanout(mean_fanout),
            q,
            repetitions=12,
            seed=hash((mean_fanout, q)) % (2**31),
            conditional_on_spread=True,
        )
        assert estimate.mean_reliability == pytest.approx(
            poisson_reliability(mean_fanout, q), abs=0.04
        )

    @pytest.mark.parametrize(
        "dist",
        [FixedFanout(4), GeometricFanout.from_mean(4.0)],
        ids=["fixed", "geometric"],
    )
    def test_non_poisson_conditional_reach_is_governed_by_in_degree(self, dist):
        # A reproduction finding (examples/fanout_distribution_study.py): the
        # algorithm's targets are chosen uniformly, so in-degrees are Poisson
        # regardless of the fanout distribution.  Given that the gossip took
        # off, the reached fraction therefore follows the Poisson fixed point
        # at the same mean fanout; the fanout *shape* shows up in the take-off
        # probability instead (tested below).
        estimate = estimate_reliability(
            2000, dist, 0.9, repetitions=12, seed=7, conditional_on_spread=True
        )
        assert estimate.mean_reliability == pytest.approx(
            poisson_reliability(dist.mean(), 0.9), abs=0.04
        )

    def test_fanout_shape_controls_takeoff_probability(self):
        # At equal mean fanout, a degenerate (fixed) fanout never dies out in
        # the first hop while a geometric fanout (20% chance of fanout 0)
        # dies out noticeably often; Poisson sits in between.
        rates = {}
        for name, dist in (
            ("fixed", FixedFanout(4)),
            ("poisson", PoissonFanout(4.0)),
            ("geometric", GeometricFanout.from_mean(4.0)),
        ):
            rates[name] = estimate_reliability(
                1500, dist, 0.9, repetitions=30, seed=31, conditional_on_spread=True
            ).spread_rate
        assert rates["fixed"] >= rates["poisson"] - 0.05
        assert rates["poisson"] >= rates["geometric"] + 0.03
        assert rates["fixed"] > 0.95

    def test_subcritical_configuration_has_negligible_reliability(self):
        estimate = estimate_reliability(2000, PoissonFanout(1.5), 0.4, repetitions=10, seed=9)
        assert estimate.mean_reliability < 0.05
        assert giant_component_size(PoissonFanout(1.5), 0.4) == pytest.approx(0.0, abs=1e-6)

    def test_undirected_configuration_graph_matches_percolation(self):
        dist = PoissonFanout(3.0)
        estimate = empirical_giant_component(dist, 4000, 0.8, repetitions=4, seed=10)
        assert estimate.mean_fraction == pytest.approx(giant_component_size(dist, 0.8), abs=0.04)


class TestCriticalPoint:
    def test_reliability_transitions_around_fq_equal_one(self):
        q = 0.5
        below = estimate_reliability(
            3000, PoissonFanout(1.6), q, repetitions=8, seed=11, conditional_on_spread=True
        )
        above = estimate_reliability(
            3000, PoissonFanout(3.2), q, repetitions=8, seed=12, conditional_on_spread=True
        )
        # f*q = 0.8 (below threshold) vs 1.6 (above threshold).
        assert below.mean_reliability < 0.15
        assert above.mean_reliability > 0.4

    def test_empirical_critical_ratio_matches_analysis(self):
        # Scan q for a fixed fanout and find where the simulated reliability
        # first exceeds 10%; it must be near q_c = 1/z.
        z = 4.0
        qc = critical_ratio(PoissonFanout(z))
        qs = np.arange(0.05, 0.65, 0.05)
        reliabilities = [
            estimate_reliability(
                2500, PoissonFanout(z), float(q), repetitions=6, seed=20 + i,
                conditional_on_spread=True,
            ).mean_reliability
            for i, q in enumerate(qs)
        ]
        crossing = next(q for q, r in zip(qs, reliabilities, strict=True) if r > 0.1)
        assert crossing == pytest.approx(qc, abs=0.15)


class TestSuccessOfGossiping:
    def test_success_counts_follow_binomial(self):
        result = simulate_success_counts(
            800, PoissonFanout(4.0), 0.9, executions=20, simulations=60, seed=13
        )
        fit = fit_binomial(result.counts, 20, result.analytical_reliability)
        assert fit.absolute_difference < 0.05
        assert result.total_variation_distance() < 0.4

    def test_equivalent_parameter_pairs_have_similar_but_not_identical_distributions(self):
        # The paper's Figs. 6-7 observation: {4.0, 0.9} and {6.0, 0.6} share
        # the analytical reliability but the realised distributions differ.
        a = simulate_success_counts(
            600, PoissonFanout(4.0), 0.9, executions=20, simulations=50, seed=14
        )
        b = simulate_success_counts(
            600, PoissonFanout(6.0), 0.6, executions=20, simulations=50, seed=14
        )
        assert a.analytical_reliability == pytest.approx(b.analytical_reliability)
        assert a.counts.mean() == pytest.approx(b.counts.mean(), abs=2.0)

    def test_minimum_executions_sufficient_in_simulation(self):
        # Eq. 6 says 2-3 executions of the f=4, q=0.9 configuration give
        # 0.999 success for a member; verify the per-member miss rate after
        # that many executions is tiny.
        from repro.core.success import min_executions

        p_r = poisson_reliability(4.0, 0.9)
        t = min_executions(0.999, p_r)
        result = simulate_success_counts(
            600, PoissonFanout(4.0), 0.9, executions=t, simulations=80, seed=15
        )
        never_received = np.mean(result.counts == 0)
        assert never_received <= 0.05
