"""Unit tests for RNG helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import as_generator, seed_sequence, spawn_seeds


class TestAsGenerator:
    def test_from_int_is_deterministic(self):
        a = as_generator(5).integers(0, 100, size=10)
        b = as_generator(5).integers(0, 100, size=10)
        np.testing.assert_array_equal(a, b)

    def test_generator_passed_through(self):
        g = np.random.default_rng(1)
        assert as_generator(g) is g

    def test_from_seed_sequence(self):
        ss = np.random.SeedSequence(7)
        g = as_generator(ss)
        assert isinstance(g, np.random.Generator)

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)


class TestSeedSequence:
    def test_from_int(self):
        assert seed_sequence(3).entropy == 3

    def test_passthrough(self):
        ss = np.random.SeedSequence(9)
        assert seed_sequence(ss) is ss

    def test_generator_rejected(self):
        with pytest.raises(TypeError):
            seed_sequence(np.random.default_rng(1))


class TestSpawning:
    def test_spawn_seeds_plain_ints(self):
        seeds = spawn_seeds(4, seed=14)
        assert len(seeds) == 4
        assert all(isinstance(s, int) and s >= 0 for s in seeds)
        assert len(set(seeds)) == 4

    def test_spawn_seeds_from_generator(self):
        seeds = spawn_seeds(3, seed=np.random.default_rng(15))
        assert len(seeds) == 3

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(-1)

    def test_zero_count(self):
        assert spawn_seeds(0) == []
