"""Unit tests for the full membership view and distinct-target sampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.membership import FullView
from repro.utils.sampling import sample_distinct, sample_distinct_rows


class TestSampleDistinct:
    def test_returns_distinct_values(self, rng):
        sample = sample_distinct(rng, 100, 10)
        assert len(np.unique(sample)) == 10

    def test_excludes_given_member(self, rng):
        for _ in range(50):
            sample = sample_distinct(rng, 10, 5, exclude=3)
            assert 3 not in sample

    def test_truncates_to_population(self, rng):
        sample = sample_distinct(rng, 5, 10, exclude=0)
        assert len(sample) == 4
        assert set(sample.tolist()) == {1, 2, 3, 4}

    def test_zero_k(self, rng):
        assert sample_distinct(rng, 10, 0).shape == (0,)

    def test_empty_population(self, rng):
        assert sample_distinct(rng, 0, 3).shape == (0,)

    def test_population_of_one_with_exclusion(self, rng):
        assert sample_distinct(rng, 1, 1, exclude=0).shape == (0,)

    def test_uniformity(self, rng):
        # Each of the 4 non-excluded members should be picked ~ equally often.
        counts = np.zeros(5)
        for _ in range(4000):
            picks = sample_distinct(rng, 5, 1, exclude=0)
            counts[picks[0]] += 1
        assert counts[0] == 0
        assert np.all(np.abs(counts[1:] / 4000 - 0.25) < 0.04)

    @given(
        population=st.integers(min_value=1, max_value=60),
        k=st.integers(min_value=0, max_value=70),
        exclude=st.integers(min_value=0, max_value=59),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_distinct_in_range_excluding(self, population, k, exclude, seed):
        rng = np.random.default_rng(seed)
        exclude = exclude % population
        sample = sample_distinct(rng, population, k, exclude=exclude)
        assert len(sample) == min(k, population - 1)
        assert len(np.unique(sample)) == len(sample)
        if sample.size:
            assert sample.min() >= 0 and sample.max() < population
            assert exclude not in sample


class TestFullView:
    def test_sample_targets_distinct_and_exclude_self(self, rng):
        view = FullView(20)
        targets = view.sample_targets(4, 6, rng)
        assert len(targets) == 6
        assert len(np.unique(targets)) == 6
        assert 4 not in targets

    def test_sample_more_than_available(self, rng):
        view = FullView(4)
        targets = view.sample_targets(0, 10, rng)
        assert set(targets.tolist()) == {1, 2, 3}

    def test_invalid_member(self, rng):
        view = FullView(3)
        with pytest.raises(ValueError):
            view.sample_targets(3, 1, rng)
        with pytest.raises(ValueError):
            view.sample_targets(-1, 1, rng)


class TestSampleDistinctNumpyPath:
    def test_large_k_uses_permutation_and_stays_correct(self, rng):
        # k a large fraction of the population exercises the numpy path.
        for k in (40, 99, 100):
            sample = sample_distinct(rng, 100, k, exclude=17)
            assert len(sample) == min(k, 99)
            assert len(np.unique(sample)) == len(sample)
            assert 17 not in sample

    def test_large_k_uniformity(self, rng):
        # Drawing 3 of 4 non-excluded values: each value appears w.p. 3/4.
        counts = np.zeros(5)
        for _ in range(4000):
            np.add.at(counts, sample_distinct(rng, 5, 3, exclude=0), 1)
        assert counts[0] == 0
        assert np.all(np.abs(counts[1:] / 4000 - 0.75) < 0.04)


class TestSampleDistinctRows:
    def test_rows_distinct_and_in_range(self, rng):
        ks = rng.integers(0, 12, size=200)
        matrix, valid = sample_distinct_rows(rng, 10, ks)
        for i in range(200):
            row = matrix[i][valid[i]]
            assert len(row) == min(ks[i], 10)
            assert len(np.unique(row)) == len(row)
            if row.size:
                assert row.min() >= 0 and row.max() < 10

    def test_key_fallback_rows_uniform(self, rng):
        # k = population - 1 forces the random-key path; each value should
        # be excluded with equal probability 1/population.
        matrix, valid = sample_distinct_rows(rng, 8, np.full(4000, 7))
        counts = np.bincount(matrix[valid], minlength=8)
        assert np.all(np.abs(counts / (4000 * 7) - 1 / 8) < 0.02)

    def test_empty_inputs(self, rng):
        matrix, valid = sample_distinct_rows(rng, 10, np.zeros(5, dtype=np.int64))
        assert matrix.shape == (5, 0) and valid.shape == (5, 0)
        matrix, valid = sample_distinct_rows(rng, 0, np.array([3, 2]))
        assert matrix.shape[1] == 0


class TestSampleTargetsBatch:
    def test_full_view_batch_contract(self, rng):
        view = FullView(50)
        members = rng.integers(0, 50, size=120)
        fanouts = rng.integers(0, 60, size=120)  # some exceed the view size
        targets, senders = view.sample_targets_batch(members, fanouts, rng)
        assert targets.shape == senders.shape
        for j in range(120):
            mine = targets[senders == j]
            assert len(mine) == min(int(fanouts[j]), 49)
            assert len(np.unique(mine)) == len(mine)
            assert members[j] not in mine

    def test_full_view_batch_uniform(self, rng):
        view = FullView(5)
        targets, _ = view.sample_targets_batch(
            np.zeros(20000, dtype=np.int64), np.ones(20000, dtype=np.int64), rng
        )
        counts = np.bincount(targets, minlength=5)
        assert counts[0] == 0
        assert np.all(np.abs(counts[1:] / 20000 - 0.25) < 0.02)

    def test_mismatched_shapes_rejected(self, rng):
        view = FullView(10)
        with pytest.raises(ValueError):
            view.sample_targets_batch(np.arange(3), np.arange(4), rng)

    def test_single_member_group(self, rng):
        view = FullView(1)
        targets, senders = view.sample_targets_batch(
            np.zeros(4, dtype=np.int64), np.full(4, 3, dtype=np.int64), rng
        )
        assert targets.size == 0 and senders.size == 0
