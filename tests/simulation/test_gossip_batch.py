"""Equivalence and edge-case tests for the batched gossip engine.

The batched engine (:func:`simulate_gossip_batch`) must agree with the scalar
oracle (:func:`tests.reference.scalar_protocols.simulate_gossip_once`) **in
distribution**: the two consume
randomness in different orders, so the tests compare statistics over matched
replica counts through the shared harness in ``tests/helpers/statistical.py``
(tolerance-banded mean reliability, KS and chi-square checks on the
delivered-count samples) rather than per-seed outputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distributions import FixedFanout, PoissonFanout
from repro.core.poisson_case import poisson_reliability
from repro.simulation.churn import PoissonChurnModel
from repro.simulation.gossip import BatchGossipResult, GossipExecution, simulate_gossip_batch
from repro.simulation.network import (
    GilbertElliottNetworkModel,
    NetworkModel,
    latency_constant,
    latency_exponential,
)
from tests.helpers.statistical import (
    assert_reliability_within_band,
    assert_same_counts_chisquare,
    assert_same_distribution,
)
from tests.reference.scalar_protocols import simulate_gossip_once


def _scalar_samples(n, dist, q, repetitions, seed):
    rng = np.random.default_rng(seed)
    return [simulate_gossip_once(n, dist, q, seed=rng) for _ in range(repetitions)]


class TestBatchBasics:
    def test_shapes_and_invariants(self):
        result = simulate_gossip_batch(400, PoissonFanout(4.0), 0.8, repetitions=12, seed=1)
        assert isinstance(result, BatchGossipResult)
        assert result.alive.shape == result.delivered.shape == (12, 400)
        assert result.rounds.shape == (12,)
        assert result.repetitions == 12
        # Delivered members are always alive; the source is always delivered.
        assert not np.any(result.delivered & ~result.alive)
        assert np.all(result.delivered[:, result.source])
        assert np.all(result.alive[:, result.source])
        assert np.all((result.reliability() >= 0.0) & (result.reliability() <= 1.0))
        assert np.all(result.duplicates >= 0)
        assert np.all(result.messages_sent >= result.duplicates)

    def test_deterministic_for_seed(self):
        a = simulate_gossip_batch(300, PoissonFanout(3.0), 0.7, repetitions=6, seed=42)
        b = simulate_gossip_batch(300, PoissonFanout(3.0), 0.7, repetitions=6, seed=42)
        np.testing.assert_array_equal(a.delivered, b.delivered)
        np.testing.assert_array_equal(a.rounds, b.rounds)
        np.testing.assert_array_equal(a.messages_sent, b.messages_sent)
        np.testing.assert_array_equal(a.duplicates, b.duplicates)

    def test_replicas_are_independent(self):
        result = simulate_gossip_batch(200, PoissonFanout(3.0), 0.6, repetitions=8, seed=2)
        masks = {tuple(row.tolist()) for row in result.alive}
        assert len(masks) > 1

    def test_metrics_match_the_scalar_record(self):
        result = simulate_gossip_batch(150, PoissonFanout(4.0), 0.9, repetitions=5, seed=3)
        metrics = result.metrics()
        assert len(metrics) == 5
        for r in range(5):
            execution = GossipExecution(
                n=result.n,
                source=result.source,
                alive=result.alive[r],
                delivered=result.delivered[r],
                rounds=int(result.rounds[r]),
                messages_sent=int(result.messages_sent[r]),
                duplicates=int(result.duplicates[r]),
            )
            assert execution.metrics() == metrics[r]

    def test_alive_override(self):
        n, reps = 30, 4
        alive = np.zeros((reps, n), dtype=bool)
        alive[:, :5] = True  # only members 0-4 are alive
        result = simulate_gossip_batch(
            n, FixedFanout(n - 1), 1.0, repetitions=reps, seed=4, alive=alive
        )
        assert np.all(result.n_alive() == 5)
        assert np.all(result.reliability() == 1.0)
        assert not np.any(result.delivered[:, 5:])

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            simulate_gossip_batch(100, PoissonFanout(3.0), 0.5, repetitions=0)
        with pytest.raises(ValueError):
            simulate_gossip_batch(
                100, PoissonFanout(3.0), 0.5, repetitions=3, alive=np.ones((2, 100), bool)
            )
        with pytest.raises(ValueError):
            simulate_gossip_batch(100, PoissonFanout(3.0), 1.5, repetitions=3)


class TestEdgeCases:
    def test_single_member_group(self):
        result = simulate_gossip_batch(1, PoissonFanout(3.0), 1.0, repetitions=6, seed=5)
        assert np.all(result.n_delivered() == 1)
        assert np.all(result.reliability() == 1.0)
        assert np.all(result.messages_sent == 0)
        assert np.all(result.rounds == 1)

    def test_zero_fanout_dies_immediately(self):
        result = simulate_gossip_batch(50, FixedFanout(0), 1.0, repetitions=5, seed=6)
        assert np.all(result.n_delivered() == 1)
        assert np.all(result.rounds == 1)
        assert np.all(result.messages_sent == 0)
        scalar = simulate_gossip_once(50, FixedFanout(0), 1.0, seed=6)
        assert scalar.rounds == result.rounds[0]

    @pytest.mark.parametrize("plane", ["latency", "churn"])
    def test_zero_fanout_dies_immediately_under_a_plane(self, plane):
        rng = np.random.default_rng(6)
        network = churn = None
        if plane == "latency":
            network = NetworkModel(latency=latency_exponential(1.5))
        else:
            churn = PoissonChurnModel(leave_rate=0.1).draw_batch(50, 5, rng)
        result = simulate_gossip_batch(
            50, FixedFanout(0), 1.0, repetitions=5, seed=rng, network=network, churn=churn
        )
        assert np.all(result.n_delivered() == 1)
        assert np.all(result.rounds == 1)
        assert np.all(result.messages_sent == 0)

    def test_q_zero_only_source_alive(self):
        result = simulate_gossip_batch(40, FixedFanout(5), 0.0, repetitions=5, seed=7)
        assert np.all(result.n_alive() == 1)
        assert np.all(result.reliability() == 1.0)

    def test_huge_fanout_reaches_everyone_in_two_hops(self):
        result = simulate_gossip_batch(120, FixedFanout(119), 1.0, repetitions=4, seed=8)
        assert np.all(result.reliability() == 1.0)
        assert np.all(result.rounds == 2)


_NETWORKS = {
    "none": lambda: None,
    "iid-loss": lambda: NetworkModel(loss_probability=0.2),
    "latency": lambda: NetworkModel(latency=latency_exponential(1.5)),
    "loss+latency": lambda: NetworkModel(latency=latency_exponential(1.5), loss_probability=0.2),
}


def _conservation_gap(result: BatchGossipResult) -> np.ndarray:
    """Per replica: messages sent, not dropped and not duplicates, minus members reached.

    Every sent message is dropped, a duplicate, the first copy a member
    gets, or wasted on an absent member, so at q = 1 the gap is the wasted
    sends.
    """
    fresh = result.messages_sent - result.messages_dropped - result.duplicates
    return fresh - (result.delivered.sum(axis=1) - 1)


class TestConservation:
    """Every arrived message is either a duplicate or the first copy a member gets."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        repetitions=st.integers(1, 6),
        mean=st.floats(0.5, 6.0),
        network=st.sampled_from(sorted(_NETWORKS)),
        q=st.sampled_from([1.0, 0.9, 0.5]),
    )
    def test_sent_minus_dropped_minus_duplicates_is_fresh(
        self, seed, n, repetitions, mean, network, q
    ):
        result = simulate_gossip_batch(
            n,
            PoissonFanout(mean),
            q,
            repetitions=repetitions,
            seed=seed,
            network=_NETWORKS[network](),
        )
        gap = _conservation_gap(result)
        if q == 1.0:
            np.testing.assert_array_equal(gap, 0)
        else:
            # A failed member receives (and books) its first copy without
            # being delivered.
            assert np.all(gap >= 0)

    @pytest.mark.parametrize(
        "network",
        [
            lambda: GilbertElliottNetworkModel(
                loss_probability=0.05,
                bad_loss_probability=0.6,
                p_good_to_bad=0.3,
                p_bad_to_good=0.4,
            ),
            # Within the round period: one arrival time per round.
            lambda: NetworkModel(latency=latency_constant(0.4), loss_probability=0.2),
        ],
        ids=["gilbert-elliott", "constant-latency-below-period"],
    )
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        repetitions=st.integers(1, 6),
        mean=st.floats(0.5, 6.0),
    )
    def test_law_is_exact_on_lossy_planes(self, network, seed, n, repetitions, mean):
        result = simulate_gossip_batch(
            n, PoissonFanout(mean), 1.0, repetitions=repetitions, seed=seed, network=network()
        )
        np.testing.assert_array_equal(_conservation_gap(result), 0)

    @pytest.mark.parametrize("trivial", [False, True], ids=["churn", "trivial-schedule"])
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        repetitions=st.integers(1, 6),
        mean=st.floats(0.5, 6.0),
        latency=st.sampled_from([None, 0.4, "exponential"]),
    )
    def test_churn_gap_is_the_wasted_sends(self, trivial, seed, n, repetitions, mean, latency):
        model = (
            PoissonChurnModel(leave_rate=0.0, join_rate=0.0, initially_absent=0.0)
            if trivial
            else PoissonChurnModel(leave_rate=0.1, join_rate=0.3, initially_absent=0.2)
        )
        rng = np.random.default_rng(seed)
        network = NetworkModel(
            latency=latency_exponential(1.2)
            if latency == "exponential"
            else latency_constant(1.0 if latency is None else latency),
            loss_probability=0.2,
        )
        result = simulate_gossip_batch(
            n,
            PoissonFanout(mean),
            1.0,
            repetitions=repetitions,
            seed=rng,
            network=network,
            churn=model.draw_batch(n, repetitions, rng),
        )
        gap = _conservation_gap(result)
        if trivial:
            np.testing.assert_array_equal(gap, 0)
        else:
            assert np.all(gap >= 0)


class TestDistributionEquivalence:
    """The batched and scalar engines agree in distribution."""

    N = 600
    REPS = 150

    @pytest.fixture(scope="class")
    def matched_runs(self):
        dist = PoissonFanout(4.0)
        scalar = _scalar_samples(self.N, dist, 0.9, self.REPS, seed=100)
        batch = simulate_gossip_batch(
            self.N, dist, 0.9, repetitions=self.REPS, seed=200
        )
        return scalar, batch

    def test_mean_reliability_within_confidence_bounds(self, matched_runs):
        scalar, batch = matched_runs
        assert_reliability_within_band(
            [e.reliability() for e in scalar], batch.reliability()
        )

    def test_conditional_mean_matches_analysis(self, matched_runs):
        _, batch = matched_runs
        spread = batch.spread_occurred()
        conditional = batch.reliability()[spread].mean()
        assert conditional == pytest.approx(poisson_reliability(4.0, 0.9), abs=0.01)

    def test_delivered_counts_distribution(self, matched_runs):
        scalar, batch = matched_runs
        s = [e.n_delivered() for e in scalar]
        assert_same_distribution(s, batch.n_delivered(), label="delivered counts")
        assert_same_counts_chisquare(s, batch.n_delivered(), label="delivered counts")

    def test_messages_and_duplicates_distribution(self, matched_runs):
        scalar, batch = matched_runs
        assert_same_distribution(
            [e.messages_sent for e in scalar], batch.messages_sent, label="messages"
        )
        assert_same_distribution(
            [e.duplicates for e in scalar], batch.duplicates, label="duplicates"
        )

    def test_rounds_distribution_close(self, matched_runs):
        scalar, batch = matched_runs
        s = np.array([e.rounds for e in scalar], dtype=float)
        assert abs(s.mean() - batch.rounds.mean()) < 1.0

    def test_fixed_fanout_equivalence(self):
        dist = FixedFanout(4)
        scalar = _scalar_samples(500, dist, 0.8, 100, seed=300)
        batch = simulate_gossip_batch(500, dist, 0.8, repetitions=100, seed=400)
        assert_same_distribution(
            [e.n_delivered() for e in scalar], batch.n_delivered(), label="delivered counts"
        )

    def test_subcritical_equivalence(self):
        # Below the percolation threshold both engines die out fast.
        dist = PoissonFanout(0.5)
        scalar = _scalar_samples(800, dist, 1.0, 60, seed=700)
        batch = simulate_gossip_batch(800, dist, 1.0, repetitions=60, seed=800)
        s = np.array([e.n_delivered() for e in scalar])
        assert s.mean() < 20 and batch.n_delivered().mean() < 20
        assert_same_distribution(s, batch.n_delivered(), label="delivered counts")
