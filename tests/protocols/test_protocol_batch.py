"""Scalar ↔ batched equivalence tests for the multi-protocol engine.

Every bundled protocol's ``_disseminate_batch`` hook must agree with the
scalar :meth:`~repro.protocols.base.Protocol.run` reference **in
distribution** (the engines consume randomness in different orders), and the
two engines must agree **exactly** — or raise the same error — on the
deterministic edge cases of the failure layer (n=1, q=0, q=1, targeted
crashes, mid-execution crash timing).  All distributional checks go through
the shared harness in ``tests/helpers/statistical.py``.
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
from repro.simulation.failures import TargetedCrashModel, UniformCrashModel
from repro.simulation.protocol_batch import (
    BatchProtocolResult,
    simulate_protocol_batch,
)
from tests.helpers.statistical import (
    assert_reliability_within_band,
    assert_same_counts_chisquare,
    assert_same_distribution,
)


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


def _scalar_samples(protocol, n, q, repetitions, seed, **kwargs):
    rng = np.random.default_rng(seed)
    return [protocol.run(n, q, seed=rng, **kwargs) for _ in range(repetitions)]


class TestBatchBasics:
    def test_shapes_and_invariants(self, protocol):
        result = simulate_protocol_batch(protocol, 150, 0.8, repetitions=10, seed=1)
        assert isinstance(result, BatchProtocolResult)
        assert result.protocol == protocol.name
        assert result.alive.shape == result.delivered.shape == (10, 150)
        assert result.repetitions == 10
        # Delivered members are always nonfailed; the source is delivered.
        assert not np.any(result.delivered & ~result.alive)
        assert np.all(result.delivered[:, 0])
        assert np.all(result.alive[:, 0])
        assert np.all((result.reliability() >= 0.0) & (result.reliability() <= 1.0))
        assert np.all(result.messages_sent >= 0)
        assert np.all(result.rounds >= 0)

    def test_identical_seed_determinism(self, protocol):
        a = simulate_protocol_batch(protocol, 120, 0.7, repetitions=6, seed=42)
        b = simulate_protocol_batch(protocol, 120, 0.7, repetitions=6, seed=42)
        np.testing.assert_array_equal(a.alive, b.alive)
        np.testing.assert_array_equal(a.delivered, b.delivered)
        np.testing.assert_array_equal(a.messages_sent, b.messages_sent)
        np.testing.assert_array_equal(a.rounds, b.rounds)

    def test_run_batch_convenience(self, protocol):
        direct = simulate_protocol_batch(protocol, 90, 0.9, repetitions=5, seed=3)
        wrapped = protocol.run_batch(90, 0.9, repetitions=5, seed=3)
        np.testing.assert_array_equal(direct.delivered, wrapped.delivered)
        np.testing.assert_array_equal(direct.messages_sent, wrapped.messages_sent)

    def test_replica_round_trip(self, protocol):
        result = simulate_protocol_batch(protocol, 80, 0.85, repetitions=4, seed=5)
        for replica in range(4):
            scalar = result.result(replica)
            assert scalar.protocol == protocol.name
            assert scalar.n_alive() == int(result.n_alive()[replica])
            assert scalar.reliability() == pytest.approx(
                float(result.reliability()[replica])
            )

    def test_invalid_arguments(self, protocol):
        with pytest.raises(ValueError):
            simulate_protocol_batch(protocol, 100, 0.5, repetitions=0)
        with pytest.raises(ValueError):
            simulate_protocol_batch(protocol, 100, 1.5, repetitions=3)
        with pytest.raises(ValueError):
            simulate_protocol_batch(protocol, 100, 0.5, repetitions=3, source=100)


class TestDistributionEquivalence:
    """Each batched protocol matches its scalar pin in distribution."""

    @pytest.mark.parametrize("n,repetitions", [(50, 150), (500, 60)])
    def test_delivery_and_reliability_match(self, protocol, n, repetitions):
        scalar = _scalar_samples(protocol, n, 0.85, repetitions, seed=100)
        batch = simulate_protocol_batch(
            protocol, n, 0.85, repetitions=repetitions, seed=200
        )
        label = f"{protocol.name} n={n}"
        scalar_delivered = [r.delivered.sum() for r in scalar]
        assert_same_distribution(
            scalar_delivered, batch.n_delivered(), label=f"{label} delivered"
        )
        assert_same_counts_chisquare(
            scalar_delivered, batch.n_delivered(), label=f"{label} delivered"
        )
        assert_reliability_within_band(
            [r.reliability() for r in scalar],
            batch.reliability(),
            band=0.03,
            label=f"{label} reliability",
        )

    def test_message_costs_match(self, protocol):
        scalar = _scalar_samples(protocol, 300, 0.9, 80, seed=300)
        batch = simulate_protocol_batch(protocol, 300, 0.9, repetitions=80, seed=400)
        assert_same_distribution(
            [r.messages_sent for r in scalar],
            batch.messages_sent,
            label=f"{protocol.name} messages",
        )

    def test_rounds_match(self, protocol):
        scalar = _scalar_samples(protocol, 300, 0.9, 80, seed=500)
        batch = simulate_protocol_batch(protocol, 300, 0.9, repetitions=80, seed=600)
        s = np.array([r.rounds for r in scalar], dtype=float)
        assert abs(s.mean() - batch.rounds.mean()) < 1.0


class TestCrossProtocolOrdering:
    """Sanity ordering at equal effort: flooding >= pbcast >= fixed-fanout."""

    N = 400
    Q = 0.85
    REPS = 80

    def _mean_reliability(self, protocol, seed):
        result = simulate_protocol_batch(
            protocol, self.N, self.Q, repetitions=self.REPS, seed=seed
        )
        return float(result.reliability().mean())

    def test_flooding_at_least_pbcast_at_least_fixed(self):
        flooding = self._mean_reliability(FloodingProtocol(degree=4), seed=11)
        pbcast = self._mean_reliability(
            PbcastProtocol(fanout=4, rounds=8, broadcast_reach=0.8), seed=12
        )
        fixed = self._mean_reliability(FixedFanoutGossip(4), seed=13)
        assert flooding >= pbcast - 0.02
        assert pbcast >= fixed - 0.02


class TestFailureLayerEdgeCases:
    """Both engines agree exactly — or raise the same error — on edge cases."""

    def test_n_one_raises_in_both_engines(self, protocol):
        with pytest.raises(ValueError):
            protocol.run(1, 0.5, seed=1)
        with pytest.raises(ValueError):
            simulate_protocol_batch(protocol, 1, 0.5, repetitions=3, seed=1)

    def test_q_zero_only_source_survives_exactly(self, protocol):
        scalar = protocol.run(40, 0.0, seed=2)
        batch = simulate_protocol_batch(protocol, 40, 0.0, repetitions=5, seed=3)
        assert scalar.n_alive() == 1 and scalar.delivered.sum() == 1
        assert scalar.reliability() == 1.0
        assert np.all(batch.n_alive() == 1)
        assert np.all(batch.n_delivered() == 1)
        assert np.all(batch.reliability() == 1.0)
        np.testing.assert_array_equal(
            batch.delivered, np.tile(scalar.delivered, (5, 1))
        )

    def test_q_one_everyone_alive_exactly(self, protocol):
        scalar = protocol.run(60, 1.0, seed=4)
        batch = simulate_protocol_batch(protocol, 60, 1.0, repetitions=5, seed=5)
        assert scalar.n_alive() == 60
        assert np.all(batch.n_alive() == 60)
        np.testing.assert_array_equal(batch.alive, np.ones((5, 60), dtype=bool))

    def test_targeted_crash_hitting_source_keeps_source_alive(self, protocol):
        model = TargetedCrashModel(failed=(0, 1, 2))
        scalar = protocol.run(50, 0.5, seed=6, failure_model=model)
        batch = simulate_protocol_batch(
            protocol, 50, 0.5, repetitions=4, seed=7, failure_model=model
        )
        # The source (member 0) never fails even when targeted; 1 and 2 do.
        assert scalar.alive[0] and not scalar.alive[1] and not scalar.alive[2]
        assert np.all(batch.alive[:, 0])
        assert not np.any(batch.alive[:, 1:3])
        np.testing.assert_array_equal(
            batch.alive, np.tile(scalar.alive, (4, 1))
        )
        assert not np.any(batch.delivered[:, 1:3])

    def test_targeted_crash_everyone_but_source(self, protocol):
        model = TargetedCrashModel(failed=tuple(range(30)))
        scalar = protocol.run(30, 0.9, seed=8, failure_model=model)
        batch = simulate_protocol_batch(
            protocol, 30, 0.9, repetitions=3, seed=9, failure_model=model
        )
        assert scalar.n_alive() == 1 and scalar.reliability() == 1.0
        assert np.all(batch.n_alive() == 1)
        assert np.all(batch.reliability() == 1.0)

    def test_mid_execution_crash_timing_agrees(self, protocol):
        # AFTER_RECEIVE (mid-execution) crashes must not change who counts
        # as delivered: reliability is defined over nonfailed members in
        # both engines regardless of the crash timing.
        before = UniformCrashModel(0.6, after_receive_fraction=0.0)
        after = UniformCrashModel(0.6, after_receive_fraction=1.0)
        for model in (before, after):
            scalar = protocol.run(80, 0.6, seed=10, failure_model=model)
            batch = simulate_protocol_batch(
                protocol, 80, 0.6, repetitions=4, seed=11, failure_model=model
            )
            assert not np.any(scalar.delivered & ~scalar.alive)
            assert not np.any(batch.delivered & ~batch.alive)
        batch_after = simulate_protocol_batch(
            protocol, 80, 0.6, repetitions=4, seed=12, failure_model=after
        )
        # The batch pattern records the timing plane: every failed member of
        # the all-after model crashed mid-execution.
        assert np.all(batch_after.failure.after_receive[~batch_after.failure.alive])
        assert not np.any(batch_after.failure.after_receive[batch_after.failure.alive])
