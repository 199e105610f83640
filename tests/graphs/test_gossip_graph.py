"""Unit tests for the gossip-induced random graph."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distributions import FixedFanout, PoissonFanout
from repro.graphs.gossip_graph import build_gossip_graph


class TestConstruction:
    def test_basic_shapes(self):
        g = build_gossip_graph(200, PoissonFanout(3.0), 0.8, seed=1)
        assert g.n == 200
        assert g.alive.shape == (200,)
        assert g.fanouts.shape == (200,)
        assert g.edges.ndim == 2 and g.edges.shape[1] == 2

    def test_source_always_alive(self):
        g = build_gossip_graph(100, PoissonFanout(2.0), 0.0, seed=2, source=7)
        assert g.alive[7]
        assert g.n_alive() == 1

    def test_failed_members_have_no_out_edges(self):
        g = build_gossip_graph(300, PoissonFanout(4.0), 0.5, seed=3)
        failed = np.flatnonzero(~g.alive)
        if g.edges.size:
            assert not np.isin(g.edges[:, 0], failed).any()

    def test_alive_fraction_near_q(self):
        g = build_gossip_graph(5000, PoissonFanout(3.0), 0.7, seed=4)
        assert g.n_alive() / g.n == pytest.approx(0.7, abs=0.03)

    def test_reproducible(self):
        a = build_gossip_graph(100, PoissonFanout(2.0), 0.9, seed=5)
        b = build_gossip_graph(100, PoissonFanout(2.0), 0.9, seed=5)
        np.testing.assert_array_equal(a.edges, b.edges)
        np.testing.assert_array_equal(a.alive, b.alive)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_gossip_graph(0, PoissonFanout(2.0), 0.5)
        with pytest.raises(ValueError):
            build_gossip_graph(10, PoissonFanout(2.0), 1.5)
        with pytest.raises(ValueError):
            build_gossip_graph(10, PoissonFanout(2.0), 0.5, source=10)


class TestQueries:
    def test_effective_edges_subset(self):
        g = build_gossip_graph(400, PoissonFanout(4.0), 0.6, seed=6)
        eff = g.effective_edges()
        assert eff.shape[0] <= g.edges.shape[0]
        if eff.size:
            assert g.alive[eff[:, 0]].all()
            assert g.alive[eff[:, 1]].all()

    def test_reached_includes_source(self):
        g = build_gossip_graph(50, FixedFanout(0), 1.0, seed=7)
        reached = g.reached()
        assert reached[g.source]
        assert reached.sum() == 1

    def test_reliability_bounds(self):
        g = build_gossip_graph(500, PoissonFanout(4.0), 0.9, seed=8)
        assert 0.0 <= g.reliability() <= 1.0

    def test_reliability_high_for_large_fanout(self):
        g = build_gossip_graph(1000, FixedFanout(8), 1.0, seed=9)
        assert g.reliability() > 0.99

    def test_reliability_zero_ish_below_threshold(self):
        g = build_gossip_graph(1000, PoissonFanout(0.5), 1.0, seed=10)
        assert g.reliability() < 0.1

    def test_out_degree_of_alive_matches_fanouts(self):
        g = build_gossip_graph(300, FixedFanout(3), 0.8, seed=11)
        out_degree = np.bincount(g.edges[:, 0], minlength=g.n)
        assert np.all(out_degree[g.alive] == 3)

    def test_giant_component_fraction_bounds(self):
        g = build_gossip_graph(500, PoissonFanout(3.0), 0.7, seed=12)
        assert 0.0 <= g.giant_component_fraction() <= 1.0 + 1e-9

    @given(
        n=st.integers(min_value=2, max_value=120),
        z=st.floats(min_value=0.2, max_value=6.0),
        q=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariants(self, n, z, q, seed):
        g = build_gossip_graph(n, PoissonFanout(z), q, seed=seed)
        reached = g.reached()
        # The source is always counted; reached alive members never exceed alive members.
        assert reached[g.source]
        assert (reached & g.alive).sum() <= g.n_alive()
        assert 0.0 <= g.reliability() <= 1.0
        if g.edges.size:
            assert g.edges.min() >= 0 and g.edges.max() < n
