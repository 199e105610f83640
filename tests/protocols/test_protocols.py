"""Unit tests for the baseline multicast protocols."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core.distributions import PoissonFanout
from repro.experiments.protocol_comparison import protocol_zoo
from repro.protocols import (
    FixedFanoutGossip,
    FloodingProtocol,
    LpbcastProtocol,
    PbcastProtocol,
    ProtocolResult,
    RandomFanoutGossip,
    RouteDrivenGossip,
)
from repro.protocols.flooding import _symmetric_csr
from repro.simulation.failures import TargetedCrashModel
from repro.simulation.network import GilbertElliottNetworkModel, NetworkModel

ZOO = protocol_zoo(4, 8, include_peer_sampling=True, include_recovery=True)

#: One fresh channel per call: network models carry counters and burst state.
NETWORKS = {
    "none": lambda: None,
    "iid-loss": lambda: NetworkModel(loss_probability=0.2),
    "gilbert-elliott": lambda: GilbertElliottNetworkModel(
        loss_probability=0.02, bad_loss_probability=0.5, p_good_to_bad=0.1, p_bad_to_good=0.4
    ),
}


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


class TestCommonProtocolBehaviour:
    def test_result_invariants(self, protocol):
        result = protocol.run(200, 0.8, seed=1)
        assert result.protocol == protocol.name
        assert result.n == 200
        assert result.alive.shape == (200,)
        assert result.delivered.shape == (200,)
        # Delivered members are always nonfailed, and the source is delivered.
        assert not np.any(result.delivered & ~result.alive)
        assert result.delivered[0]
        assert 0.0 <= result.reliability() <= 1.0
        assert result.messages_sent >= 0
        assert result.rounds >= 0

    def test_source_always_alive(self, protocol):
        result = protocol.run(100, 0.0, seed=2)
        assert result.alive[0]
        assert result.n_alive() == 1
        assert result.reliability() == 1.0  # the only nonfailed member has the message

    def test_reproducible(self, protocol):
        a = protocol.run(150, 0.7, seed=3)
        b = protocol.run(150, 0.7, seed=3)
        np.testing.assert_array_equal(a.delivered, b.delivered)
        assert a.messages_sent == b.messages_sent

    def test_targeted_failure(self, protocol):
        n = 60
        model = TargetedCrashModel(failed=(1,))
        result = protocol.run(n, 0.5, seed=4, failure_model=model)
        assert not result.delivered[1]
        assert result.n_alive() == n - 1

    def test_invalid_arguments(self, protocol):
        with pytest.raises(ValueError):
            protocol.run(1, 0.5)
        with pytest.raises(ValueError):
            protocol.run(100, 1.5)
        with pytest.raises(ValueError):
            protocol.run(100, 0.5, source=100)

    def test_messages_per_member(self, protocol):
        result = protocol.run(120, 0.9, seed=5)
        assert result.messages_per_member() == pytest.approx(result.messages_sent / 120)


class TestRunIsOneReplicaBatch:
    """``run`` returns the one replica of ``run_batch(repetitions=1)``, field for field."""

    @pytest.mark.parametrize("network", sorted(NETWORKS))
    @pytest.mark.parametrize(("protocol_id", "protocol"), ZOO, ids=[pid for pid, _ in ZOO])
    def test_run_equals_one_replica_batch(self, protocol_id, protocol, network):
        for seed in (1, 2, 3):
            single = protocol.run(120, 0.85, seed=seed, network=NETWORKS[network]())
            batch = protocol.run_batch(
                120, 0.85, repetitions=1, seed=seed, network=NETWORKS[network]()
            )
            expected = batch.result(0)
            for field in dataclasses.fields(ProtocolResult):
                got = getattr(single, field.name)
                want = getattr(expected, field.name)
                if isinstance(want, np.ndarray):
                    np.testing.assert_array_equal(got, want, err_msg=field.name)
                else:
                    assert got == want, (protocol_id, network, seed, field.name)


class TestFixedFanoutGossip:
    def test_high_fanout_is_atomic(self):
        result = FixedFanoutGossip(10).run(200, 1.0, seed=6)
        assert result.is_atomic()

    def test_zero_fanout_reaches_only_source(self):
        result = FixedFanoutGossip(0).run(50, 1.0, seed=7)
        assert result.delivered.sum() == 1

    def test_reliability_close_to_poisson_in_degree_prediction(self):
        # Targets are chosen uniformly, so in-degrees are Poisson(f·q) and the
        # reached fraction follows the Poisson fixed point at the same mean
        # fanout even though the out-degree is constant (see
        # examples/fanout_distribution_study.py).
        from repro.core.poisson_case import poisson_reliability

        values = [FixedFanoutGossip(4).run(1500, 0.9, seed=s).reliability() for s in range(5)]
        assert np.mean(values) == pytest.approx(poisson_reliability(4.0, 0.9), abs=0.04)


class TestRandomFanoutGossip:
    def test_matches_direct_simulation_statistics(self):
        from repro.core.poisson_case import poisson_reliability

        values = [
            RandomFanoutGossip(PoissonFanout(4.0)).run(1200, 0.9, seed=s).reliability()
            for s in range(10)
        ]
        # Individual runs are bimodal (occasionally the gossip dies out
        # immediately); compare the runs that took off with the analytical
        # reliability and check that die-outs are the minority.
        spread = [v for v in values if v > 0.5]
        assert len(spread) >= 7
        assert np.mean(spread) == pytest.approx(poisson_reliability(4.0, 0.9), abs=0.04)

    def test_rejects_non_distribution(self):
        with pytest.raises(TypeError):
            RandomFanoutGossip("poisson")  # type: ignore[arg-type]


class TestPbcast:
    def test_broadcast_reach_zero_still_gossips_from_source(self):
        result = PbcastProtocol(fanout=3, rounds=8, broadcast_reach=0.0).run(300, 1.0, seed=8)
        assert result.reliability() > 0.5

    def test_more_rounds_do_not_reduce_reliability(self):
        short = PbcastProtocol(fanout=2, rounds=1).run(400, 0.8, seed=9).reliability()
        long = PbcastProtocol(fanout=2, rounds=8).run(400, 0.8, seed=9).reliability()
        assert long >= short - 0.05

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PbcastProtocol(fanout=0)
        with pytest.raises(ValueError):
            PbcastProtocol(broadcast_reach=1.5)


class TestLpbcast:
    def test_small_view_still_disseminates(self):
        result = LpbcastProtocol(fanout=3, rounds=10, view_size=5).run(300, 1.0, seed=10)
        assert result.reliability() > 0.8

    def test_round_budget_limits_spread(self):
        one_round = LpbcastProtocol(fanout=2, rounds=1, view_size=20).run(500, 1.0, seed=11)
        many_rounds = LpbcastProtocol(fanout=2, rounds=10, view_size=20).run(500, 1.0, seed=11)
        assert one_round.reliability() < many_rounds.reliability()


class TestRdg:
    def test_pull_phase_improves_reliability(self):
        no_pull = RouteDrivenGossip(fanout=2, rounds=4, pull_fanout=0).run(400, 0.8, seed=12)
        with_pull = RouteDrivenGossip(fanout=2, rounds=4, pull_fanout=2).run(400, 0.8, seed=12)
        assert with_pull.reliability() >= no_pull.reliability()

    def test_terminates_when_atomic(self):
        result = RouteDrivenGossip(fanout=4, rounds=50, pull_fanout=2).run(200, 1.0, seed=13)
        assert result.is_atomic()
        assert result.rounds < 50


class TestFlooding:
    def test_atomic_on_connected_overlay(self):
        result = FloodingProtocol(degree=6).run(300, 1.0, seed=14)
        assert result.is_atomic()

    def test_reliability_upper_bounds_gossip_at_same_degree(self):
        flood = np.mean([FloodingProtocol(degree=3).run(400, 0.7, seed=s).reliability() for s in range(4)])
        gossip = np.mean([FixedFanoutGossip(3).run(400, 0.7, seed=s).reliability() for s in range(4)])
        assert flood >= gossip - 0.05

    def test_message_cost_scales_with_degree(self):
        low = FloodingProtocol(degree=2).run(300, 1.0, seed=15).messages_sent
        high = FloodingProtocol(degree=8).run(300, 1.0, seed=15).messages_sent
        assert high > low

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40).flatmap(
        lambda cells: st.tuples(st.just(cells), st.lists(
            st.tuples(st.integers(0, cells - 1), st.integers(0, cells - 1)), max_size=120))))
    def test_overlay_csr_is_scipys(self, drawn):
        """The overlay CSR equals scipy's COO→CSR of the symmetrised arcs, repeats merged."""
        cells, arcs = drawn
        src, dst = np.array(arcs, dtype=np.int64).reshape(-1, 2).T
        indptr, indices = _symmetric_csr(cells, src, dst)
        rows, cols = np.concatenate([src, dst]), np.concatenate([dst, src])
        want = sparse.coo_matrix(
            (np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(cells, cells)
        ).tocsr()
        assert np.array_equal(indptr, want.indptr)
        assert np.array_equal(indices, want.indices)
