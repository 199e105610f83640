"""Latency-plane guarantees across the whole protocol zoo.

Two pins per protocol:

* **latency-off bit-identity** — attaching a ``NetworkModel()`` (constant
  unit latency, no loss) must not perturb a single boolean of the batched
  execution: the plane's constant fast path consumes no randomness and
  reorders nothing.
* **delivery-time surface** — when the plane is on, the finite entries of
  ``delivery_times`` are exactly the delivered cells, and the percentile
  accessor reports an ordered p50/p99/p999.

A third pin holds the membership law every leg obeys when latency and churn
are both on: a send is wasted if its addressee is absent when it is sent,
even if the addressee has joined by the time it would land.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.protocol_comparison import protocol_zoo
from repro.protocols import AntiEntropyProtocol, FixedFanoutGossip, LazyPushProtocol
from repro.simulation.churn import DeterministicChurnModel
from repro.simulation.network import ConstantLatency, NetworkModel, latency_exponential

ZOO = protocol_zoo(4, 8, include_peer_sampling=True, include_recovery=True)


@pytest.mark.parametrize("protocol_id,protocol", ZOO, ids=[row[0] for row in ZOO])
@pytest.mark.parametrize("q", [1.0, 0.9], ids=["q1.0", "q0.9"])
class TestLatencyOffBitIdentity:
    def test_constant_unit_latency_is_bit_identical(self, protocol_id, protocol, q):
        base = protocol.run_batch(150, q, repetitions=12, seed=4242)
        timed = protocol.run_batch(150, q, repetitions=12, seed=4242, network=NetworkModel())
        np.testing.assert_array_equal(base.delivered, timed.delivered)
        np.testing.assert_array_equal(base.rounds, timed.rounds)
        np.testing.assert_array_equal(base.messages_sent, timed.messages_sent)
        assert base.delivery_times is None
        assert timed.delivery_times is not None
        np.testing.assert_array_equal(np.isfinite(timed.delivery_times), timed.delivered)


@pytest.mark.parametrize("protocol_id,protocol", ZOO, ids=[row[0] for row in ZOO])
class TestDeliveryTimeSurface:
    def test_random_latency_reports_ordered_percentiles(self, protocol_id, protocol):
        result = protocol.run_batch(
            120,
            0.9,
            repetitions=8,
            seed=99,
            network=NetworkModel(latency=latency_exponential(1.5)),
        )
        np.testing.assert_array_equal(np.isfinite(result.delivery_times), result.delivered)
        # The source delivers to itself at time zero in every execution.
        assert (result.delivery_times[:, 0] == 0.0).all()
        pct = result.delivery_percentiles()
        assert list(pct) == ["p50", "p99", "p999"]
        assert pct["p50"] <= pct["p99"] <= pct["p999"]
        assert np.isfinite(pct["p999"])


class TestMembershipLaw:
    """Digests sent to a member before it joins never reach it."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "protocol,first_time",
        [
            (AntiEntropyProtocol(fanout=2), 4.0),
            (LazyPushProtocol(eager_threshold=0.0), 6.0),
        ],
        ids=["anti-entropy", "lazy-push"],
    )
    def test_absent_addressee_wastes_the_send(self, protocol, first_time, seed):
        # Member 2 joins in round 2, while round-1 digests (latency 1.5, so
        # they land in round 2) are still in flight towards it.
        result = protocol.run_batch(
            3,
            1.0,
            repetitions=1,
            seed=seed,
            network=NetworkModel(latency=ConstantLatency(1.5)),
            churn=DeterministicChurnModel(joins=((2, 2),)),
        )
        assert result.delivery_times[0, 2] == first_time


class TestDeliveryPercentilesGating:
    def test_percentiles_raise_without_a_plane(self):
        result = FixedFanoutGossip(4).run_batch(80, 0.9, repetitions=4, seed=5)
        assert result.delivery_times is None
        with pytest.raises(ValueError):
            result.delivery_percentiles()
