"""Unit tests for configuration-model graph construction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.configuration_model import (
    configuration_model_edges,
    directed_configuration_edges,
)


class TestDirectedConfiguration:
    def test_out_degrees_respected(self):
        out_degrees = np.array([2, 0, 3, 1])
        edges = directed_configuration_edges(out_degrees, seed=1)
        realised = np.bincount(edges[:, 0], minlength=4)
        np.testing.assert_array_equal(realised, out_degrees)

    def test_no_self_loops_by_default(self):
        edges = directed_configuration_edges(np.full(50, 5), seed=2)
        assert np.all(edges[:, 0] != edges[:, 1])

    def test_targets_distinct_per_source(self):
        edges = directed_configuration_edges(np.full(30, 6), seed=3)
        for node in range(30):
            targets = edges[edges[:, 0] == node, 1]
            assert len(targets) == len(set(targets.tolist()))

    def test_degree_truncated_to_available_targets(self):
        edges = directed_configuration_edges(np.array([10, 10, 10]), seed=4)
        realised = np.bincount(edges[:, 0], minlength=3)
        assert np.all(realised == 2)  # only 2 other nodes exist

    def test_empty_and_zero_degree(self):
        assert directed_configuration_edges(np.array([], dtype=np.int64)).shape == (0, 2)
        assert directed_configuration_edges(np.zeros(5, dtype=np.int64)).shape == (0, 2)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            directed_configuration_edges(np.array([1, -2]))

    def test_self_loops_allowed_when_requested(self):
        rng_edges = directed_configuration_edges(
            np.full(4, 4), seed=5, allow_self_loops=True
        )
        realised = np.bincount(rng_edges[:, 0], minlength=4)
        assert np.all(realised == 4)

    def test_reproducible(self):
        a = directed_configuration_edges(np.full(20, 3), seed=7)
        b = directed_configuration_edges(np.full(20, 3), seed=7)
        np.testing.assert_array_equal(a, b)

    @given(
        degrees=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=40),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_out_degree_conservation(self, degrees, seed):
        degrees = np.asarray(degrees, dtype=np.int64)
        n = len(degrees)
        edges = directed_configuration_edges(degrees, seed=seed)
        realised = np.bincount(edges[:, 0], minlength=n) if edges.size else np.zeros(n, dtype=int)
        expected = np.minimum(degrees, max(n - 1, 0))
        np.testing.assert_array_equal(realised, expected)
        if edges.size:
            assert edges[:, 1].min() >= 0 and edges[:, 1].max() < n


class TestUndirectedConfiguration:
    def test_edge_count_near_half_degree_sum(self):
        degrees = np.full(200, 4)
        edges = configuration_model_edges(degrees, seed=1)
        # Simplification removes a few edges; the count stays close to sum/2.
        assert abs(len(edges) - 400) < 40

    def test_odd_sum_parity_repair(self):
        degrees = np.array([1, 1, 1])  # odd sum: one node is bumped
        edges = configuration_model_edges(degrees, seed=2)
        assert edges.shape[1] == 2

    def test_parity_repair_can_be_disabled(self):
        with pytest.raises(ValueError):
            configuration_model_edges(np.array([1, 1, 1]), seed=3, max_parity_fixes=0)

    def test_simplified_graph_has_no_loops_or_multiedges(self):
        edges = configuration_model_edges(np.full(80, 6), seed=4)
        assert np.all(edges[:, 0] != edges[:, 1])
        canon = {tuple(sorted(e)) for e in edges.tolist()}
        assert len(canon) == len(edges)

    def test_unsimplified_keeps_stub_count(self):
        degrees = np.full(50, 4)
        edges = configuration_model_edges(degrees, seed=5, simplify=False)
        assert len(edges) == degrees.sum() // 2

    def test_empty_sequence(self):
        assert configuration_model_edges(np.array([], dtype=np.int64)).shape == (0, 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            configuration_model_edges(np.array([2, -1]))
