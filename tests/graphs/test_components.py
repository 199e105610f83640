"""Unit tests for union-find, components, and reachability."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.components import (
    UnionFind,
    component_sizes,
    connected_components,
    largest_component_size,
    reachable_from,
)


class TestUnionFind:
    def test_initial_state(self):
        uf = UnionFind(5)
        assert len(uf) == 5
        assert uf.n_components == 5
        assert all(uf.find(i) == i for i in range(5))

    def test_union_merges(self):
        uf = UnionFind(4)
        assert uf.union(0, 1)
        assert uf.find(0) == uf.find(1)
        assert uf.find(0) != uf.find(2)
        assert uf.n_components == 3

    def test_union_idempotent(self):
        uf = UnionFind(3)
        assert uf.union(0, 1)
        assert not uf.union(1, 0)
        assert uf.n_components == 2

    def test_components_partition(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(3, 4)
        comps = uf.components()
        flattened = sorted(int(x) for comp in comps for x in comp)
        assert flattened == list(range(5))
        sizes = sorted(len(c) for c in comps)
        assert sizes == [1, 2, 2]

    def test_zero_elements(self):
        uf = UnionFind(0)
        assert len(uf) == 0
        assert uf.components() == []

    @given(
        n=st.integers(min_value=1, max_value=30),
        edges=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=60),
    )
    @settings(max_examples=50, deadline=None)
    def test_component_count_invariant(self, n, edges):
        uf = UnionFind(n)
        merges = 0
        for a, b in edges:
            if a < n and b < n:
                merges += int(uf.union(a, b))
        assert uf.n_components == n - merges


class TestConnectedComponents:
    def test_chain_graph(self):
        edges = np.array([[0, 1], [1, 2], [3, 4]])
        comps = connected_components(5, edges)
        sizes = sorted(len(c) for c in comps)
        assert sizes == [2, 3]

    def test_no_edges(self):
        comps = connected_components(4, np.empty((0, 2), dtype=np.int64))
        assert len(comps) == 4

    def test_component_sizes_descending(self):
        edges = np.array([[0, 1], [1, 2], [3, 4]])
        sizes = component_sizes(6, edges)
        assert list(sizes) == [3, 2, 1]

    def test_largest_component(self):
        edges = np.array([[0, 1], [1, 2], [2, 3]])
        assert largest_component_size(6, edges) == 4
        assert largest_component_size(0, np.empty((0, 2))) == 0

    def test_invalid_edge_shape(self):
        with pytest.raises(ValueError):
            connected_components(3, np.array([[0, 1, 2]]))


class TestReachability:
    def test_direction_matters(self):
        edges = np.array([[0, 1], [1, 2]])
        reached = reachable_from(4, edges, 0)
        assert list(reached) == [True, True, True, False]
        reached_back = reachable_from(4, edges, 2)
        assert list(reached_back) == [False, False, True, False]

    def test_source_only(self):
        reached = reachable_from(3, np.empty((0, 2), dtype=np.int64), 1)
        assert list(reached) == [False, True, False]

    def test_cycle(self):
        edges = np.array([[0, 1], [1, 2], [2, 0]])
        assert reachable_from(3, edges, 2).all()

    def test_branching(self):
        edges = np.array([[0, 1], [0, 2], [2, 3], [4, 5]])
        reached = reachable_from(6, edges, 0)
        assert list(reached) == [True, True, True, True, False, False]

    def test_invalid_source(self):
        with pytest.raises(ValueError):
            reachable_from(3, np.empty((0, 2), dtype=np.int64), 5)

    @given(
        n=st.integers(min_value=2, max_value=25),
        edge_count=st.integers(min_value=0, max_value=80),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_networkx_descendants(self, n, edge_count, seed):
        import networkx as nx

        rng = np.random.default_rng(seed)
        edges = rng.integers(0, n, size=(edge_count, 2))
        reached = reachable_from(n, edges, 0)
        graph = nx.DiGraph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(map(tuple, edges))
        expected = {0} | nx.descendants(graph, 0)
        assert set(np.flatnonzero(reached)) == expected

    def test_undirected_component_vs_directed_reach(self):
        # Undirected component membership is a superset of directed reachability.
        edges = np.array([[1, 0], [1, 2], [3, 2]])
        reached = reachable_from(4, edges, 0)
        assert reached.sum() == 1
        assert largest_component_size(4, edges) == 4
