"""Unit tests for the gossip simulators: the scalar oracle and the event-driven reference.

The scalar frontier simulation lives in :mod:`tests.reference.scalar_protocols`;
the batched engine the product runs is pinned to it in
``test_gossip_batch.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distributions import FixedFanout, PoissonFanout
from repro.core.poisson_case import poisson_reliability
from repro.simulation.failures import FailurePattern, CrashTiming
from repro.simulation.gossip import simulate_gossip_event_driven
from repro.simulation.network import NetworkModel, latency_uniform
from tests.reference.scalar_protocols import simulate_gossip_once


class TestFastSimulator:
    def test_source_always_delivered(self):
        e = simulate_gossip_once(50, FixedFanout(0), 1.0, seed=1)
        assert e.delivered[e.source]
        assert e.n_delivered() == 1
        assert e.rounds <= 1

    def test_delivered_subset_of_alive(self):
        e = simulate_gossip_once(500, PoissonFanout(3.0), 0.6, seed=2)
        assert not np.any(e.delivered & ~e.alive)

    def test_reliability_definition(self):
        e = simulate_gossip_once(400, PoissonFanout(4.0), 0.8, seed=3)
        assert e.reliability() == pytest.approx(
            (e.delivered & e.alive).sum() / e.alive.sum()
        )

    def test_large_fanout_reaches_everyone(self):
        e = simulate_gossip_once(300, FixedFanout(12), 1.0, seed=4)
        assert e.is_success(1.0)
        assert e.reliability() == 1.0

    def test_subcritical_dies_out(self):
        e = simulate_gossip_once(2000, PoissonFanout(0.5), 1.0, seed=5)
        assert e.reliability() < 0.05

    def test_matches_analysis_supercritical(self):
        values = [
            simulate_gossip_once(3000, PoissonFanout(4.0), 0.9, seed=seed).reliability()
            for seed in range(5)
        ]
        assert np.mean(values) == pytest.approx(poisson_reliability(4.0, 0.9), abs=0.03)

    def test_explicit_failure_pattern_respected(self):
        n = 20
        alive = np.ones(n, dtype=bool)
        alive[5:] = False  # only members 0-4 are alive
        pattern = FailurePattern(alive=alive, timing=np.full(n, CrashTiming.BEFORE_RECEIVE, dtype=object))
        e = simulate_gossip_once(n, FixedFanout(19), 1.0, seed=6, failure_pattern=pattern)
        assert set(np.flatnonzero(e.delivered)) <= set(range(5))
        assert e.reliability() == 1.0  # all 5 alive members reached

    def test_duplicates_counted(self):
        e = simulate_gossip_once(50, FixedFanout(10), 1.0, seed=7)
        assert e.duplicates > 0
        assert e.messages_sent >= e.n_delivered() - 1

    def test_messages_bounded_by_fanout_times_forwarders(self):
        e = simulate_gossip_once(200, FixedFanout(3), 1.0, seed=8)
        assert e.messages_sent <= 3 * e.n_delivered()

    def test_reproducibility(self):
        a = simulate_gossip_once(200, PoissonFanout(3.0), 0.8, seed=12)
        b = simulate_gossip_once(200, PoissonFanout(3.0), 0.8, seed=12)
        np.testing.assert_array_equal(a.delivered, b.delivered)
        assert a.messages_sent == b.messages_sent

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            simulate_gossip_once(0, PoissonFanout(2.0), 0.5)
        with pytest.raises(ValueError):
            simulate_gossip_once(10, PoissonFanout(2.0), 1.2)
        with pytest.raises(ValueError):
            simulate_gossip_once(10, PoissonFanout(2.0), 0.5, source=10)

    def test_metrics_record_consistency(self):
        e = simulate_gossip_once(300, PoissonFanout(3.0), 0.8, seed=14)
        m = e.metrics()
        assert m.n == 300
        assert m.n_alive == e.n_alive()
        assert m.reliability == pytest.approx(e.reliability())
        assert m.success == e.is_success(1.0)

    @given(
        n=st.integers(min_value=2, max_value=150),
        z=st.floats(min_value=0.1, max_value=8.0),
        q=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=100_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_invariants(self, n, z, q, seed):
        e = simulate_gossip_once(n, PoissonFanout(z), q, seed=seed)
        assert e.delivered[e.source]
        assert not np.any(e.delivered & ~e.alive)
        assert 0.0 <= e.reliability() <= 1.0
        assert e.duplicates >= 0
        assert e.messages_sent >= 0
        assert e.rounds >= 1


class TestEventDrivenSimulator:
    def test_agrees_with_fast_simulator_on_average(self):
        fast = [
            simulate_gossip_once(400, PoissonFanout(4.0), 0.9, seed=s).reliability()
            for s in range(8)
        ]
        event = [
            simulate_gossip_event_driven(400, PoissonFanout(4.0), 0.9, seed=s).reliability()
            for s in range(8)
        ]
        assert np.mean(fast) == pytest.approx(np.mean(event), abs=0.05)

    def test_lossy_network_reduces_reliability(self):
        reliable = simulate_gossip_event_driven(500, PoissonFanout(3.0), 1.0, seed=1)
        lossy = simulate_gossip_event_driven(
            500,
            PoissonFanout(3.0),
            1.0,
            seed=1,
            network=NetworkModel(loss_probability=0.6),
        )
        assert lossy.reliability() < reliable.reliability()

    def test_latency_model_does_not_change_reachability_statistics(self):
        a = [
            simulate_gossip_event_driven(
                300,
                PoissonFanout(4.0),
                0.9,
                seed=s,
                network=NetworkModel(latency=latency_uniform(0.1, 5.0)),
            ).reliability()
            for s in range(6)
        ]
        b = [
            simulate_gossip_event_driven(300, PoissonFanout(4.0), 0.9, seed=s).reliability()
            for s in range(6)
        ]
        assert np.mean(a) == pytest.approx(np.mean(b), abs=0.06)

    def test_source_delivered_and_counts(self):
        e = simulate_gossip_event_driven(100, PoissonFanout(2.0), 0.8, seed=3)
        assert e.delivered[e.source]
        assert not np.any(e.delivered & ~e.alive)
        assert e.messages_sent >= 0

    def test_max_events_caps_execution(self):
        e = simulate_gossip_event_driven(500, FixedFanout(5), 1.0, seed=4, max_events=10)
        # Only a handful of events processed: dissemination is partial.
        assert e.n_delivered() < 500

    def test_full_loss_means_only_source(self):
        e = simulate_gossip_event_driven(
            100, FixedFanout(5), 1.0, seed=5, network=NetworkModel(loss_probability=1.0)
        )
        assert e.n_delivered() == 1
