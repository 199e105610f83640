"""Integration tests: the two scalar simulators and the graph view agree.

The scalar frontier oracle (:mod:`tests.reference.scalar_protocols`), the
event-driven reference, and the gossip-graph reachability view are three
implementations of the same process; their reliability distributions must
coincide (they share no code path beyond the distributions and membership
sampling).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distributions import FixedFanout, PoissonFanout
from repro.graphs.gossip_graph import build_gossip_graph
from repro.simulation.gossip import simulate_gossip_event_driven
from tests.reference.scalar_protocols import simulate_gossip_once


def conditional_mean_reliability(simulate, repetitions: int) -> tuple[float, float]:
    """Return (mean reliability over runs that took off, take-off rate).

    Single executions are bimodal (they either die out in a few hops or reach
    ~R of the group), so comparing raw means across two simulators needs many
    repetitions to beat the extinction noise; comparing the conditional mean
    and the take-off rate separately is far more stable.
    """
    values = []
    spread = 0
    for seed in range(repetitions):
        execution = simulate(seed=seed)
        if execution.spread_occurred():
            values.append(execution.reliability())
            spread += 1
    conditional = float(np.mean(values)) if values else 0.0
    return conditional, spread / repetitions


class TestSimulatorEquivalence:
    @pytest.mark.parametrize("mean_fanout,q", [(4.0, 0.9), (2.0, 0.8), (6.0, 0.6)])
    def test_fast_vs_event_driven(self, mean_fanout, q):
        fast, fast_rate = conditional_mean_reliability(
            lambda seed: simulate_gossip_once(600, PoissonFanout(mean_fanout), q, seed=seed),
            repetitions=20,
        )
        event, event_rate = conditional_mean_reliability(
            lambda seed: simulate_gossip_event_driven(
                600, PoissonFanout(mean_fanout), q, seed=seed
            ),
            repetitions=20,
        )
        assert fast == pytest.approx(event, abs=0.06)
        assert fast_rate == pytest.approx(event_rate, abs=0.25)

    def test_fast_vs_graph_reachability(self):
        # The gossip graph's directed reachability is the same random object
        # as the simulator's delivered set.
        fast, fast_rate = conditional_mean_reliability(
            lambda seed: simulate_gossip_once(800, PoissonFanout(3.0), 0.8, seed=seed),
            repetitions=20,
        )
        graph_values = []
        graph_spread = 0
        for seed in range(20):
            g = build_gossip_graph(800, PoissonFanout(3.0), 0.8, seed=seed)
            reached = int((g.reached() & g.alive).sum())
            if reached > max(10, int(np.sqrt(g.n))):
                graph_values.append(g.reliability())
                graph_spread += 1
        assert fast == pytest.approx(float(np.mean(graph_values)), abs=0.06)
        assert fast_rate == pytest.approx(graph_spread / 20, abs=0.25)

    def test_fixed_fanout_agreement(self):
        fast, _ = conditional_mean_reliability(
            lambda seed: simulate_gossip_once(500, FixedFanout(4), 0.85, seed=seed),
            repetitions=12,
        )
        event, _ = conditional_mean_reliability(
            lambda seed: simulate_gossip_event_driven(500, FixedFanout(4), 0.85, seed=seed),
            repetitions=12,
        )
        assert fast == pytest.approx(event, abs=0.06)

    def test_rounds_comparable(self):
        # Gossip hop counts should be of the same order in both simulators.
        fast = simulate_gossip_once(1000, PoissonFanout(4.0), 1.0, seed=3)
        event = simulate_gossip_event_driven(1000, PoissonFanout(4.0), 1.0, seed=3)
        assert fast.rounds == pytest.approx(event.rounds, abs=4)

    def test_message_counts_comparable(self):
        fast = np.mean(
            [simulate_gossip_once(400, PoissonFanout(4.0), 1.0, seed=s).messages_sent for s in range(8)]
        )
        event = np.mean(
            [
                simulate_gossip_event_driven(400, PoissonFanout(4.0), 1.0, seed=s).messages_sent
                for s in range(8)
            ]
        )
        assert fast == pytest.approx(event, rel=0.15)
