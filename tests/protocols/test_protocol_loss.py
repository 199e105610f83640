"""Loss-plane tests for the protocol engines.

The vectorised message-loss plane must (1) be invisible at
``loss_probability = 0`` — bit-for-bit identical results to the loss-free
path, (2) kill all dissemination at ``loss_probability = 1``, (3) keep the
``messages_sent`` / ``messages_dropped`` accounting consistent between the
protocol results and the :class:`NetworkModel` counters, (4) compose with
the failure layer (mid-execution crashes included), and (5) agree between
the scalar oracle (:mod:`tests.reference.scalar_protocols`) and the batched
engine **in distribution** at intermediate loss — pinned through the shared
statistical harness, exactly like the loss-free engines are.  The
``test_scalar_*`` cases check the oracle, except the two counter tests,
which check that :meth:`~repro.protocols.base.Protocol.run` resets its
network.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distributions import PoissonFanout
from repro.protocols import (
    FixedFanoutGossip,
    FloodingProtocol,
    LpbcastProtocol,
    PbcastProtocol,
    RandomFanoutGossip,
    RouteDrivenGossip,
)
from repro.simulation.failures import UniformCrashModel
from repro.simulation.gossip import (
    simulate_gossip_batch,
    simulate_gossip_event_driven,
)
from repro.simulation.network import NetworkModel
from repro.simulation.protocol_batch import simulate_protocol_batch
from tests.helpers.statistical import (
    assert_reliability_within_band,
    assert_same_distribution,
)
from tests.reference import scalar_protocols as reference


def all_protocols():
    return [
        FixedFanoutGossip(4),
        RandomFanoutGossip(PoissonFanout(4.0)),
        PbcastProtocol(fanout=2, rounds=5),
        LpbcastProtocol(fanout=3, rounds=6, view_size=20),
        RouteDrivenGossip(fanout=2, rounds=5, pull_fanout=1),
        FloodingProtocol(degree=4),
    ]


@pytest.fixture(params=all_protocols(), ids=lambda p: p.name)
def protocol(request):
    return request.param


class TestZeroLossIsExact:
    """A loss-free network must not perturb the engines at all."""

    def test_batched_identical_to_no_network(self, protocol):
        base = simulate_protocol_batch(protocol, 150, 0.85, repetitions=8, seed=11)
        zero = simulate_protocol_batch(
            protocol, 150, 0.85, repetitions=8, seed=11,
            network=NetworkModel(loss_probability=0.0),
        )
        np.testing.assert_array_equal(base.alive, zero.alive)
        np.testing.assert_array_equal(base.delivered, zero.delivered)
        np.testing.assert_array_equal(base.messages_sent, zero.messages_sent)
        np.testing.assert_array_equal(base.rounds, zero.rounds)
        assert zero.messages_dropped.sum() == 0
        assert np.all(zero.drop_rate() == 0.0)

    def test_scalar_identical_to_no_network(self, protocol):
        base = reference.run(protocol, 150, 0.85, seed=13)
        zero = reference.run(
            protocol, 150, 0.85, seed=13, network=NetworkModel(loss_probability=0.0)
        )
        np.testing.assert_array_equal(base.delivered, zero.delivered)
        assert base.messages_sent == zero.messages_sent
        assert base.rounds == zero.rounds
        assert zero.messages_dropped == 0


class TestFullLossKillsDissemination:
    """At loss_probability = 1 no message ever arrives: only the source holds it."""

    def test_batched_only_source_delivered(self, protocol):
        result = simulate_protocol_batch(
            protocol, 120, 0.9, repetitions=6, seed=21,
            network=NetworkModel(loss_probability=1.0),
        )
        assert np.all(result.n_delivered() == 1)
        assert np.all(result.delivered[:, 0])
        np.testing.assert_array_equal(result.messages_dropped, result.messages_sent)

    def test_scalar_only_source_delivered(self, protocol):
        result = reference.run(
            protocol, 120, 0.9, seed=22, network=NetworkModel(loss_probability=1.0)
        )
        assert result.delivered.sum() == 1 and result.delivered[0]
        assert result.messages_dropped == result.messages_sent


class TestAccounting:
    def test_batched_drop_counts_match_network_counters(self, protocol):
        network = NetworkModel(loss_probability=0.25)
        result = simulate_protocol_batch(
            protocol, 200, 0.9, repetitions=10, seed=31, network=network
        )
        assert int(result.messages_dropped.sum()) == network.messages_dropped
        assert int(result.messages_sent.sum()) == network.messages_sent
        assert np.all(result.messages_dropped <= result.messages_sent)

    def test_batched_drop_rate_tracks_loss_probability(self, protocol):
        result = simulate_protocol_batch(
            protocol, 400, 0.9, repetitions=20, seed=32,
            network=NetworkModel(loss_probability=0.3),
        )
        pooled = result.messages_dropped.sum() / result.messages_sent.sum()
        assert pooled == pytest.approx(0.3, abs=0.04)

    def test_scalar_counters_describe_one_run_only(self, protocol):
        # Regression for the counter-leak bug: Protocol.run resets the model,
        # so back-to-back runs on one NetworkModel never accumulate.
        network = NetworkModel(loss_probability=0.2)
        first = protocol.run(150, 0.9, seed=33, network=network)
        assert network.messages_sent == first.messages_sent
        second = protocol.run(150, 0.9, seed=33, network=network)
        assert network.messages_sent == second.messages_sent
        assert network.messages_dropped == second.messages_dropped
        fresh = protocol.run(150, 0.9, seed=33, network=NetworkModel(loss_probability=0.2))
        assert second.messages_sent == fresh.messages_sent
        assert second.messages_dropped == fresh.messages_dropped

    def test_scalar_run_resets_stale_counters(self, protocol):
        network = NetworkModel(loss_probability=0.2)
        network.messages_sent = 10_000
        network.messages_dropped = 5_000
        network.total_latency = 123.0
        result = protocol.run(150, 0.9, seed=34, network=network)
        assert result.messages_dropped <= result.messages_sent < 10_000
        assert network.messages_sent == result.messages_sent


class TestLossComposesWithFailures:
    """Loss and (mid-execution) crashes are independent planes; both apply."""

    @pytest.mark.parametrize("after_receive_fraction", [0.0, 1.0])
    def test_batched_invariants_under_loss_and_crashes(
        self, protocol, after_receive_fraction
    ):
        model = UniformCrashModel(0.7, after_receive_fraction=after_receive_fraction)
        result = simulate_protocol_batch(
            protocol, 200, 0.7, repetitions=8, seed=41,
            failure_model=model, network=NetworkModel(loss_probability=0.3),
        )
        assert not np.any(result.delivered & ~result.alive)
        assert np.all(result.delivered[:, 0])
        assert np.all((result.reliability() >= 0.0) & (result.reliability() <= 1.0))
        assert np.all(result.messages_dropped <= result.messages_sent)

    def test_scalar_invariants_under_loss_and_crashes(self, protocol):
        model = UniformCrashModel(0.7, after_receive_fraction=1.0)
        result = reference.run(
            protocol, 200, 0.7, seed=42, failure_model=model,
            network=NetworkModel(loss_probability=0.3),
        )
        assert not np.any(result.delivered & ~result.alive)
        assert 0.0 <= result.reliability() <= 1.0
        assert result.messages_dropped <= result.messages_sent

    def test_loss_degrades_reliability_monotonically(self, protocol):
        # Pooled over replicas, heavy loss can never beat light loss.
        light = simulate_protocol_batch(
            protocol, 300, 0.9, repetitions=30, seed=43,
            network=NetworkModel(loss_probability=0.05),
        )
        heavy = simulate_protocol_batch(
            protocol, 300, 0.9, repetitions=30, seed=44,
            network=NetworkModel(loss_probability=0.6),
        )
        assert heavy.reliability().mean() <= light.reliability().mean() + 0.02


class TestScalarBatchedLossEquivalence:
    """At intermediate loss the two engines must agree in distribution."""

    N = 300
    Q = 0.9
    LOSS = 0.2
    REPS = 60

    def test_delivery_and_reliability_match(self, protocol):
        rng = np.random.default_rng(51)
        network = NetworkModel(loss_probability=self.LOSS)
        scalar = [
            reference.run(protocol, self.N, self.Q, seed=rng, network=network)
            for _ in range(self.REPS)
        ]
        batch = simulate_protocol_batch(
            protocol, self.N, self.Q, repetitions=self.REPS, seed=52,
            network=NetworkModel(loss_probability=self.LOSS),
        )
        label = f"{protocol.name} loss={self.LOSS}"
        assert_same_distribution(
            [r.delivered.sum() for r in scalar],
            batch.n_delivered(),
            label=f"{label} delivered",
        )
        assert_reliability_within_band(
            [r.reliability() for r in scalar],
            batch.reliability(),
            band=0.03,
            label=f"{label} reliability",
        )

    def test_message_and_drop_costs_match(self, protocol):
        rng = np.random.default_rng(53)
        network = NetworkModel(loss_probability=self.LOSS)
        scalar = [
            reference.run(protocol, self.N, self.Q, seed=rng, network=network)
            for _ in range(self.REPS)
        ]
        batch = simulate_protocol_batch(
            protocol, self.N, self.Q, repetitions=self.REPS, seed=54,
            network=NetworkModel(loss_probability=self.LOSS),
        )
        assert_same_distribution(
            [r.messages_sent for r in scalar],
            batch.messages_sent,
            label=f"{protocol.name} messages under loss",
        )
        assert_same_distribution(
            [r.messages_dropped for r in scalar],
            batch.messages_dropped,
            label=f"{protocol.name} drops",
        )


class TestEventDrivenLossEquivalence:
    """The batched lossy gossip engine matches the event-driven reference."""

    def test_poisson_gossip_under_loss(self):
        n, q, loss, reps = 150, 0.9, 0.3, 60
        rng = np.random.default_rng(61)
        network = NetworkModel(loss_probability=loss)
        event = [
            simulate_gossip_event_driven(
                n, PoissonFanout(4.0), q, seed=rng, network=network
            )
            for _ in range(reps)
        ]
        batch = simulate_gossip_batch(
            n, PoissonFanout(4.0), q, repetitions=reps, seed=62,
            network=NetworkModel(loss_probability=loss),
        )
        assert_same_distribution(
            [e.n_delivered() for e in event],
            batch.n_delivered(),
            label="event vs batch delivered under loss",
        )
        assert_reliability_within_band(
            [e.reliability() for e in event],
            batch.reliability(),
            band=0.05,
            label="event vs batch reliability under loss",
        )
