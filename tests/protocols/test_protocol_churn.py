"""Churn-plane tests for the protocol engines.

The dynamic-membership plane must (1) be invisible at churn rate 0 —
bit-for-bit identical results to the static path for every protocol, because
a zero-rate model draws no randomness and trivial schedules are skipped,
(2) account survivors correctly (members that left are neither delivered nor
in the denominator), (3) waste sends to departed peers without charging them
to the network-loss counters, (4) refuse the scalar-replay fallback (which
cannot apply per-round events), and (5) show the peer-sampling protocol's
view repair paying off against a frozen partial view of the same size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distributions import PoissonFanout
from repro.protocols import (
    FixedFanoutGossip,
    FloodingProtocol,
    HyParViewProtocol,
    LpbcastProtocol,
    PbcastProtocol,
    RandomFanoutGossip,
    RouteDrivenGossip,
)
from repro.simulation.churn import (
    DeterministicChurnModel,
    PoissonChurnModel,
    trivial_schedule_batch,
)
from repro.simulation.gossip import simulate_gossip_batch
from repro.simulation.protocol_batch import simulate_protocol_batch
from tests.helpers.statistical import assert_same_distribution


def all_protocols():
    return [
        FixedFanoutGossip(4),
        RandomFanoutGossip(PoissonFanout(4.0)),
        PbcastProtocol(fanout=2, rounds=5),
        LpbcastProtocol(fanout=3, rounds=6, view_size=20),
        RouteDrivenGossip(fanout=2, rounds=5, pull_fanout=1),
        FloodingProtocol(degree=4),
        HyParViewProtocol(fanout=3, rounds=6, active_size=8, passive_size=20),
    ]


@pytest.fixture(params=all_protocols(), ids=lambda p: p.name)
def protocol(request):
    return request.param


class TestZeroChurnIsExact:
    """A zero-rate churn model must not perturb the engines at all."""

    def test_batched_identical_to_no_churn(self, protocol):
        base = simulate_protocol_batch(protocol, 150, 0.85, repetitions=8, seed=11)
        zero = simulate_protocol_batch(
            protocol, 150, 0.85, repetitions=8, seed=11, churn=PoissonChurnModel()
        )
        np.testing.assert_array_equal(base.alive, zero.alive)
        np.testing.assert_array_equal(base.delivered, zero.delivered)
        np.testing.assert_array_equal(base.messages_sent, zero.messages_sent)
        np.testing.assert_array_equal(base.rounds, zero.rounds)
        assert zero.present is None

    def test_trivial_schedule_identical_to_no_churn(self, protocol):
        base = simulate_protocol_batch(protocol, 150, 0.85, repetitions=8, seed=17)
        zero = simulate_protocol_batch(
            protocol, 150, 0.85, repetitions=8, seed=17,
            churn=trivial_schedule_batch(150, 8),
        )
        np.testing.assert_array_equal(base.delivered, zero.delivered)
        np.testing.assert_array_equal(base.messages_sent, zero.messages_sent)

    def test_survivor_metrics_degrade_to_static_ones(self, protocol):
        result = simulate_protocol_batch(
            protocol, 150, 0.85, repetitions=8, seed=11, churn=PoissonChurnModel()
        )
        np.testing.assert_array_equal(result.survivors(), result.alive)
        assert np.all(result.survivor_fraction() == 1.0)
        np.testing.assert_array_equal(
            result.reliability_among_survivors(), result.reliability()
        )

    def test_gossip_engine_identical_to_no_churn(self):
        base = simulate_gossip_batch(300, PoissonFanout(4.0), 0.9, repetitions=10, seed=7)
        zero = simulate_gossip_batch(
            300, PoissonFanout(4.0), 0.9, repetitions=10, seed=7,
            churn=trivial_schedule_batch(300, 10),
        )
        np.testing.assert_array_equal(base.delivered, zero.delivered)
        np.testing.assert_array_equal(base.messages_sent, zero.messages_sent)
        np.testing.assert_array_equal(base.rounds, zero.rounds)


class TestChurnedRuns:
    def test_departed_members_never_deliver(self, protocol):
        # Members 10..14 leave at round 0: never present, not even for the
        # initial-state deliveries (pbcast's phase-1 broadcast).
        churn = DeterministicChurnModel(leaves=tuple((0, m) for m in range(10, 15)))
        result = simulate_protocol_batch(
            protocol, 120, 1.0, repetitions=6, seed=23, churn=churn
        )
        assert result.present is not None
        assert not result.present[:, 10:15].any()
        assert not result.survivors()[:, 10:15].any()
        assert not result.delivered[:, 10:15].any()

    def test_survivor_accounting_matches_schedule(self, protocol):
        model = PoissonChurnModel(leave_rate=0.05, join_rate=0.05, initially_absent=0.1)
        result = simulate_protocol_batch(
            protocol, 200, 0.9, repetitions=10, seed=29, churn=model
        )
        assert result.present is not None
        np.testing.assert_array_equal(result.survivors(), result.alive & result.present)
        assert np.all(result.survivor_fraction() <= 1.0)
        assert np.all(result.n_survivors() >= 1)  # the source never churns
        rel = result.reliability_among_survivors()
        assert np.all((rel >= 0.0) & (rel <= 1.0))

    def test_churn_wasted_sends_are_not_network_drops(self, protocol):
        model = PoissonChurnModel(leave_rate=0.1, initially_absent=0.2)
        result = simulate_protocol_batch(
            protocol, 150, 0.9, repetitions=8, seed=31, churn=model
        )
        # Sends to departed peers are wasted, but only a lossy NetworkModel
        # may charge messages_dropped.
        assert result.messages_dropped.sum() == 0
        assert result.messages_sent.sum() > 0

    def test_harsher_churn_leaves_fewer_survivors(self, protocol):
        gentle = simulate_protocol_batch(
            protocol, 300, 0.9, repetitions=12, seed=37,
            churn=PoissonChurnModel(leave_rate=0.02),
        )
        harsh = simulate_protocol_batch(
            protocol, 300, 0.9, repetitions=12, seed=37,
            churn=PoissonChurnModel(leave_rate=0.25),
        )
        assert harsh.survivor_fraction().mean() < gentle.survivor_fraction().mean()

    def test_churn_composes_with_failures(self, protocol):
        model = PoissonChurnModel(leave_rate=0.08)
        result = simulate_protocol_batch(
            protocol, 200, 0.7, repetitions=8, seed=41, churn=model
        )
        # Survivors are a subset of nonfailed members: crashes and churn stack.
        assert np.all(result.n_survivors() <= result.n_alive())
        assert result.delivered[~result.alive].sum() == 0


class TestHyParView:
    def test_scalar_and_batched_agree_in_distribution(self):
        protocol = HyParViewProtocol(fanout=3, rounds=6, active_size=8, passive_size=20)
        rng = np.random.default_rng(5)
        scalar_counts = [
            protocol.run(200, 0.9, seed=rng).delivered.sum() for _ in range(60)
        ]
        batch = simulate_protocol_batch(protocol, 200, 0.9, repetitions=60, seed=6)
        assert_same_distribution(
            scalar_counts, batch.n_delivered(), label="hyparview delivered"
        )

    def test_zero_churn_runs_need_no_repairs(self):
        protocol = HyParViewProtocol(fanout=3, rounds=6)
        simulate_protocol_batch(protocol, 150, 0.9, repetitions=6, seed=9)
        stats = protocol.last_batch_stats
        assert stats is not None
        assert stats["repairs"] == 0
        assert stats["view_staleness"] == 0.0
        assert stats["repair_latency"] == 0.0

    def test_churn_triggers_staleness_and_repairs(self):
        protocol = HyParViewProtocol(fanout=3, rounds=8, active_size=8, passive_size=20)
        model = PoissonChurnModel(leave_rate=0.1, join_rate=0.1, initially_absent=0.1)
        simulate_protocol_batch(protocol, 300, 0.9, repetitions=10, seed=13, churn=model)
        stats = protocol.last_batch_stats
        assert stats["view_staleness"] > 0.0
        assert stats["repairs"] > 0
        assert stats["repair_latency"] > 0.0

    def test_view_repair_beats_frozen_view_of_equal_size(self):
        # The churn_resilience acceptance claim, pinned at a fixed seed:
        # under heavy churn, push gossip over self-repairing size-8 views
        # must be at least as reliable as the same gossip over frozen size-8
        # views (small slack for Monte-Carlo noise).
        model = PoissonChurnModel(leave_rate=0.15, join_rate=0.15, initially_absent=0.1)
        peer = HyParViewProtocol(fanout=4, rounds=8, active_size=8, passive_size=30)
        frozen = LpbcastProtocol(fanout=4, rounds=8, view_size=8)
        peer_rel = simulate_protocol_batch(
            peer, 400, 0.9, repetitions=24, seed=17, churn=model
        ).reliability_among_survivors()
        frozen_rel = simulate_protocol_batch(
            frozen, 400, 0.9, repetitions=24, seed=17, churn=model
        ).reliability_among_survivors()
        assert peer_rel.mean() >= frozen_rel.mean() - 0.02
