"""Unit tests for the loss-aware auto-dimensioning solver."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.analysis.dimensioning import (
    analytic_required_fanout,
    dimension_fanout,
    dimension_pareto,
    pareto_frontier,
    wilson_interval,
)
from repro.core.distributions import GeometricFanout, PoissonFanout
from repro.core.poisson_case import mean_fanout_for_reliability, poisson_reliability
from repro.core.reliability import reliability as analytical_reliability
from repro.experiments.protocol_comparison import zoo_protocol

from tests.helpers.statistical import assert_means_close
from tests.reference.dimensioning_grid import dense_grid_dimension


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(18, 20, 0.95)
        assert lo < 18 / 20 < hi
        assert 0.0 <= lo <= hi <= 1.0

    def test_shrinks_with_sample_size(self):
        lo_small, hi_small = wilson_interval(18, 20, 0.95)
        lo_big, hi_big = wilson_interval(180, 200, 0.95)
        assert (hi_big - lo_big) < (hi_small - lo_small)

    def test_widens_with_confidence(self):
        lo95, hi95 = wilson_interval(50, 100, 0.95)
        lo99, hi99 = wilson_interval(50, 100, 0.99)
        assert (hi99 - lo99) > (hi95 - lo95)

    def test_degenerate_samples(self):
        lo, hi = wilson_interval(0, 10, 0.95)
        assert lo == 0.0 and hi > 0.0
        lo, hi = wilson_interval(10, 10, 0.95)
        assert hi == pytest.approx(1.0) and lo < 1.0
        # The perfect-sample lower bound is 1 / (1 + z^2/R).
        assert lo == pytest.approx(1.0 / (1.0 + 1.96**2 / 10.0), abs=1e-3)

    def test_fractional_successes_accepted(self):
        lo, hi = wilson_interval(17.5, 20, 0.95)
        assert lo < 17.5 / 20 < hi

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0, 0.95)
        with pytest.raises(ValueError):
            wilson_interval(11, 10, 0.95)
        with pytest.raises(ValueError):
            wilson_interval(5, 10, 1.0)


class TestAnalyticRequiredFanout:
    def test_poisson_matches_eq12(self):
        assert analytic_required_fanout(0.99, 0.9) == pytest.approx(
            mean_fanout_for_reliability(0.99, 0.9)
        )

    def test_loss_is_effective_fanout_thinning(self):
        base = analytic_required_fanout(0.95, 0.9)
        lossy = analytic_required_fanout(0.95, 0.9, loss=0.2)
        assert lossy == pytest.approx(base / 0.8)
        # Exact for Poisson: the thinned fanout hits the target on the curve.
        assert poisson_reliability(lossy * 0.8, 0.9) == pytest.approx(0.95, abs=1e-9)

    def test_generic_family_round_trip(self):
        f = analytic_required_fanout(
            0.9, 0.9, distribution_factory=GeometricFanout.from_mean
        )
        achieved = analytical_reliability(GeometricFanout.from_mean(f), 0.9)
        assert achieved == pytest.approx(0.9, abs=1e-4)

    def test_generic_family_with_loss(self):
        f = analytic_required_fanout(
            0.9, 0.9, loss=0.25, distribution_factory=GeometricFanout.from_mean
        )
        achieved = analytical_reliability(GeometricFanout.from_mean(f * 0.75), 0.9)
        assert achieved == pytest.approx(0.9, abs=1e-4)

    def test_monotone_in_target_and_q(self):
        assert analytic_required_fanout(0.99, 0.9) > analytic_required_fanout(0.9, 0.9)
        assert analytic_required_fanout(0.9, 0.6) > analytic_required_fanout(0.9, 0.9)

    def test_unreachable_configurations_raise(self):
        with pytest.raises(ValueError):
            analytic_required_fanout(0.9, 0.0)
        with pytest.raises(ValueError):
            analytic_required_fanout(0.9, 0.9, loss=1.0)


class TestDimensionFanout:
    def test_round_trip_against_analytical_curve(self):
        # The solved fanout must clear the target on the analytical curve:
        # the Monte-Carlo certificate is *conservative* (Wilson + finite n),
        # so reliability(f*) >= target holds with analytic slack only from
        # finite-size effects.
        target = 0.9
        res = dimension_fanout(2000, 0.9, target, seed=101, conditional_on_spread=True)
        assert res.feasible and res.certified
        assert res.ci_low >= target
        assert poisson_reliability(res.fanout, 0.9) >= target - 0.01
        # The certifiable boundary sits above the analytic one (certifying
        # needs margin), so the answer never undercuts the seed curve by
        # more than the bisection resolution.
        assert res.fanout >= res.analytical_fanout - 0.25

    def test_certificate_holds_out_of_sample(self):
        # Fresh replicas at the solved fanout, a seed the solver never saw:
        # the measured mean must sit above the certified lower bound's band.
        from repro.simulation.gossip import simulate_gossip_batch

        target = 0.9
        res = dimension_fanout(1500, 0.9, target, seed=7, conditional_on_spread=True)
        fresh = simulate_gossip_batch(
            1500, PoissonFanout(res.fanout), 0.9, repetitions=64, seed=987654
        )
        reliability = np.where(fresh.spread_occurred(), fresh.reliability(), 0.0)
        assert_means_close(
            reliability,
            np.full(64, res.achieved_reliability),
            band=0.03,
            label="out-of-sample reliability at solved fanout",
        )
        assert float(reliability.mean()) >= target - 0.02

    def test_monotone_in_q(self):
        harsh = dimension_fanout(800, 0.7, 0.9, seed=5, conditional_on_spread=True)
        mild = dimension_fanout(800, 1.0, 0.9, seed=5, conditional_on_spread=True)
        assert harsh.fanout >= mild.fanout

    def test_monotone_in_loss(self):
        clean = dimension_fanout(800, 0.9, 0.9, seed=6, conditional_on_spread=True)
        lossy = dimension_fanout(800, 0.9, 0.9, loss=0.3, seed=6, conditional_on_spread=True)
        assert lossy.fanout >= clean.fanout
        assert lossy.analytical_fanout == pytest.approx(clean.analytical_fanout / 0.7)

    def test_loss_zero_identical_to_lossless_solver(self):
        # The engines consume no randomness for a zero-loss network, so the
        # loss=0 solve must be bit-identical to not mentioning loss at all.
        a = dimension_fanout(600, 0.9, 0.9, seed=8, conditional_on_spread=True)
        b = dimension_fanout(600, 0.9, 0.9, loss=0.0, seed=8, conditional_on_spread=True)
        assert a == b

    def test_deterministic_at_fixed_seed(self):
        a = dimension_fanout(600, 0.9, 0.9, seed=9, conditional_on_spread=True)
        b = dimension_fanout(600, 0.9, 0.9, seed=9, conditional_on_spread=True)
        assert a == b

    def test_small_n_exact_edge_case(self):
        # n=2, q=1: the group is {source, one peer}; a replica succeeds iff
        # the source's Poisson draw sends >= 1 gossip to the peer, so the
        # exact reliability at fanout z is (1 + e^{-z}) / 2 ... actually
        # delivered/alive is 1.0 on success and 0.5 on failure.  A 0.95
        # target therefore needs mean >= 0.95, i.e. P(miss) <= 0.1, i.e.
        # z >= ln 10.  The solver must land at or above that point.
        import math

        res = dimension_fanout(
            2,
            1.0,
            0.95,
            seed=10,
            fanout_tol=0.25,
            max_replicas=256,
            conditional_on_spread=False,
        )
        assert res.feasible
        exact_mean = 1.0 - math.exp(-res.fanout) / 2.0
        assert exact_mean >= 0.95 - 0.02
        assert res.ci_low >= 0.95

    def test_protocol_mode_integer_fanout(self):
        res = dimension_fanout(
            400,
            0.9,
            0.9,
            protocol_factory=partial(zoo_protocol, "fixed-fanout"),
            seed=11,
        )
        assert res.feasible
        assert res.fanout == int(res.fanout)
        assert res.rounds is None  # solve_rounds not requested
        assert res.ci_low >= 0.9

    def test_protocol_mode_minimal_rounds(self):
        res = dimension_fanout(
            400,
            0.9,
            0.9,
            protocol_factory=partial(zoo_protocol, "pbcast"),
            rounds=8,
            solve_rounds=True,
            seed=12,
        )
        assert res.feasible
        assert res.rounds is not None and 1 <= res.rounds <= 8
        assert res.ci_low >= 0.9

    def test_protocol_mode_with_targeted_failure_model(self):
        from repro.simulation.failures import TargetedCrashModel

        # Engineered failures replace the uniform-q draw: the solver must
        # dimension against exactly the injected crash set.  Failing a fixed
        # tenth of the group is harsher than q=0.975 uniform crashes on
        # average, so the targeted run can never need a smaller fanout.
        factory = partial(zoo_protocol, "fixed-fanout")
        targeted = dimension_fanout(
            400,
            0.975,
            0.9,
            protocol_factory=factory,
            failure_model=TargetedCrashModel(failed=tuple(range(10, 50))),
            seed=19,
        )
        uniform = dimension_fanout(
            400, 0.975, 0.9, protocol_factory=factory, seed=19
        )
        assert targeted.feasible
        assert targeted.ci_low >= 0.9
        assert targeted.fanout >= uniform.fanout

    def test_infeasible_target_reported(self):
        # Cap the search at a fanout well below what the target needs.
        res = dimension_fanout(
            400, 0.5, 0.95, seed=13, max_fanout=2.0, conditional_on_spread=True
        )
        assert not res.feasible
        assert res.fanout == 2.0

    def test_replica_accounting(self):
        res = dimension_fanout(500, 0.9, 0.9, seed=14, conditional_on_spread=True)
        assert res.replicas_used >= res.evaluations * 2
        assert res.evaluations >= 2

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            dimension_fanout(1, 0.9, 0.9)
        with pytest.raises(ValueError):
            dimension_fanout(100, 0.9, 1.0)
        with pytest.raises(ValueError):
            dimension_fanout(100, 0.9, 0.9, fanout_tol=0.0)
        with pytest.raises(ValueError):
            dimension_fanout(100, 0.9, 0.9, loss=1.5)


class TestDenseGridAgreement:
    def test_grid_confirms_solver_within_resolution(self):
        solver = dimension_fanout(600, 0.9, 0.9, seed=15, conditional_on_spread=True)
        grid = dense_grid_dimension(
            600, 0.9, 0.9, seed=15, conditional_on_spread=True, replicas_per_point=256
        )
        assert grid.feasible
        # Same decision rule, so both answers certify the target...
        assert solver.ci_low >= 0.9 and grid.ci_low >= 0.9
        # ... and agree on where the certifiable region roughly begins.
        assert abs(solver.fanout - grid.fanout) < 2.0

    def test_solver_cheaper_than_grid(self):
        solver = dimension_fanout(600, 0.9, 0.95, seed=16, conditional_on_spread=True)
        grid = dense_grid_dimension(600, 0.9, 0.95, seed=16, conditional_on_spread=True)
        assert solver.replicas_used < grid.replicas_used

    def test_grid_infeasible_below_cap(self):
        res = dense_grid_dimension(
            300, 0.5, 0.9, seed=17, max_fanout=1.5, conditional_on_spread=True
        )
        assert not res.feasible


class TestParetoFrontier:
    def test_drops_dominated_points(self):
        frontier = pareto_frontier(
            [(4, 8), (5, 6), (5, 8), (6, 5)], keys=lambda item: item
        )
        assert frontier == [(4, 8), (5, 6), (6, 5)]

    def test_single_point(self):
        assert pareto_frontier([(3, 3)], keys=lambda item: item) == [(3, 3)]

    def test_deduplicates_equal_scores(self):
        frontier = pareto_frontier(
            [("a", 2, 2), ("b", 2, 2)], keys=lambda item: (item[1], item[2])
        )
        assert len(frontier) == 1

    def test_empty(self):
        assert pareto_frontier([], keys=lambda item: item) == []


_pbcast_factory = partial(zoo_protocol, "pbcast")


class TestDimensionPareto:
    @pytest.fixture(scope="class")
    def result(self):
        return dimension_pareto(
            300, 0.9, 0.9, protocol_factory=_pbcast_factory, max_rounds=6, seed=42
        )

    def test_feasible_and_certified(self, result):
        assert result.feasible
        assert result.frontier
        for candidate in result.frontier:
            assert candidate.certified
            assert candidate.ci_low >= 0.9

    def test_frontier_non_dominated(self, result):
        for candidate in result.frontier:
            for other in result.frontier:
                if other is candidate:
                    continue
                assert not (
                    other.fanout <= candidate.fanout
                    and other.rounds <= candidate.rounds
                    and (other.fanout, other.rounds) != (candidate.fanout, candidate.rounds)
                )

    def test_frontier_is_a_staircase(self, result):
        # Sorted by rising fanout, rounds must strictly fall.
        fanouts = [c.fanout for c in result.frontier]
        rounds = [c.rounds for c in result.frontier]
        assert fanouts == sorted(fanouts)
        assert rounds == sorted(rounds, reverse=True)

    def test_cost_pick_is_cheapest(self, result):
        assert result.best_cost is not None
        costs = [c.messages_per_member for c in result.frontier]
        assert result.best_cost.messages_per_member == min(costs)

    def test_lexicographic_is_min_fanout_corner(self, result):
        lex = result.lexicographic()
        assert lex is not None
        assert lex.fanout == min(c.fanout for c in result.frontier)

    def test_infeasible_when_capped(self):
        result = dimension_pareto(
            200, 0.5, 0.95, protocol_factory=_pbcast_factory,
            max_rounds=1, max_fanout=1.0, seed=43,
        )
        assert not result.feasible
        assert result.frontier == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            dimension_pareto(100, 0.9, 1.0, protocol_factory=_pbcast_factory)
        with pytest.raises(ValueError):
            dimension_pareto(
                100, 0.9, 0.9, protocol_factory=_pbcast_factory, max_rounds=0
            )


class TestLossSemanticsContract:
    """The documented contract: ``loss`` is per-message Bernoulli everywhere.

    For Poisson fanout the two views coincide exactly (thinning a Poisson(f)
    message stream at rate p yields Poisson(f(1-p))), which is why the
    analytic seed may use effective fanout.  The simulated engine must agree:
    Poisson(f) under per-message loss p == Poisson(f(1-p)) lossless.
    """

    def test_thinning_equivalence_at_quarter_loss(self):
        from repro.simulation.gossip import simulate_gossip_batch
        from repro.simulation.network import NetworkModel

        n, p, fanout, reps = 400, 0.25, 6.0, 600
        lossy = simulate_gossip_batch(
            n, PoissonFanout(fanout), 0.9, repetitions=reps, seed=918,
            network=NetworkModel(loss_probability=p),
        )
        thinned = simulate_gossip_batch(
            n, PoissonFanout(fanout * (1.0 - p)), 0.9, repetitions=reps, seed=919
        )
        assert_means_close(
            lossy.reliability(), thinned.reliability(), label="thinning equivalence"
        )

    def test_dimensioning_respects_thinning_at_quarter_loss(self):
        # Both solvers certify with Wilson margin above the analytic curve,
        # so compare them to each other: the lossy solve's *effective*
        # fanout f(1-p) must land where the lossless solve lands.
        clean = dimension_fanout(600, 0.9, 0.9, seed=920, conditional_on_spread=True)
        lossy = dimension_fanout(
            600, 0.9, 0.9, loss=0.25, seed=920, conditional_on_spread=True
        )
        assert clean.feasible and lossy.feasible
        assert lossy.fanout > clean.fanout  # loss always costs fanout
        effective = lossy.fanout * 0.75
        # Agreement within the two bisections' tolerance plus Monte-Carlo
        # wobble of the certifiable boundary.
        assert abs(effective - clean.fanout) < 1.0
        # And the documented analytic identity for the seed itself.
        assert lossy.analytical_fanout == pytest.approx(clean.analytical_fanout / 0.75)
