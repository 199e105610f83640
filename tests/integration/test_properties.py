"""Cross-module property-based tests (hypothesis).

These state the core invariants of the whole stack — analysis, graphs, and
simulation — over randomly drawn configurations rather than hand-picked
examples.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distributions import FixedFanout, MixtureFanout, PoissonFanout
from repro.core.model import GossipModel
from repro.core.percolation import critical_ratio, giant_component_size
from repro.core.poisson_case import mean_fanout_for_reliability, poisson_reliability
from repro.core.success import min_executions, success_probability
from tests.reference.scalar_protocols import simulate_gossip_once

pmf_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=10
).filter(lambda w: sum(w) > 0.1)


class TestAnalyticalProperties:
    @given(
        z=st.floats(min_value=0.2, max_value=15.0),
        q_lo=st.floats(min_value=0.0, max_value=1.0),
        q_hi=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_reliability_monotone_in_q(self, z, q_lo, q_hi):
        q_lo, q_hi = sorted((q_lo, q_hi))
        assert poisson_reliability(z, q_lo) <= poisson_reliability(z, q_hi) + 1e-9

    @given(
        z_lo=st.floats(min_value=0.2, max_value=15.0),
        z_hi=st.floats(min_value=0.2, max_value=15.0),
        q=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_reliability_monotone_in_fanout(self, z_lo, z_hi, q):
        z_lo, z_hi = sorted((z_lo, z_hi))
        assert poisson_reliability(z_lo, q) <= poisson_reliability(z_hi, q) + 1e-9

    @given(
        s=st.floats(min_value=0.01, max_value=0.999),
        q=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_equation_12_round_trip(self, s, q):
        z = mean_fanout_for_reliability(s, q)
        assert poisson_reliability(z, q) == pytest.approx(s, abs=1e-6)

    @given(weights=pmf_strategy, q=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_distribution_reliability_is_probability(self, weights, q):
        # A mixture of fixed fanouts is the distribution with PMF ``weights``.
        dist = MixtureFanout([FixedFanout(k) for k in range(len(weights))], weights)
        if dist.mean() <= 0:
            return
        size = giant_component_size(dist, q)
        assert 0.0 <= size <= 1.0
        qc = critical_ratio(dist)
        if qc < 1.0 and q < qc * 0.95:
            assert size == pytest.approx(0.0, abs=1e-4)

    @given(
        p_s=st.floats(min_value=0.01, max_value=0.999),
        p_r=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_success_model_consistency(self, p_s, p_r):
        t = min_executions(p_s, p_r)
        assert success_probability(p_r, t) >= p_s - 1e-9


class TestSimulationProperties:
    @given(
        n=st.integers(min_value=5, max_value=200),
        z=st.floats(min_value=0.2, max_value=8.0),
        q=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_execution_invariants(self, n, z, q, seed):
        execution = simulate_gossip_once(n, PoissonFanout(z), q, seed=seed)
        # Reached nonfailed members never exceed the nonfailed population,
        # the source is delivered, duplicates plus deliveries account for all
        # received messages, and reliability is a probability.
        assert execution.delivered[execution.source]
        assert execution.n_delivered() <= execution.n_alive()
        assert 0.0 <= execution.reliability() <= 1.0
        assert execution.duplicates + execution.n_delivered() - 1 <= execution.messages_sent

    @given(
        n=st.integers(min_value=10, max_value=150),
        z=st.floats(min_value=0.5, max_value=6.0),
        q=st.floats(min_value=0.1, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_model_facade_consistency(self, n, z, q, seed):
        model = GossipModel.poisson(n, z, q)
        assert 0.0 <= model.reliability() <= 1.0
        estimate = model.simulate_reliability(repetitions=2, seed=seed)
        assert 0.0 <= estimate.mean_reliability <= 1.0
