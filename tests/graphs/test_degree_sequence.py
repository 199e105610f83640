"""Unit tests for degree-sequence sampling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distributions import FixedFanout, PoissonFanout
from repro.graphs.degree_sequence import sample_degree_sequence


class TestSampling:
    def test_length_and_dtype(self):
        degrees = sample_degree_sequence(PoissonFanout(3.0), 500, seed=1)
        assert degrees.shape == (500,)
        assert degrees.dtype == np.int64

    def test_max_degree_cap(self):
        degrees = sample_degree_sequence(PoissonFanout(10.0), 200, seed=2, max_degree=5)
        assert degrees.max() <= 5

    def test_reproducible(self):
        a = sample_degree_sequence(PoissonFanout(2.0), 100, seed=3)
        b = sample_degree_sequence(PoissonFanout(2.0), 100, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_zero_length(self):
        assert sample_degree_sequence(PoissonFanout(2.0), 0, seed=1).shape == (0,)

    def test_mean_close_to_distribution_mean(self):
        degrees = sample_degree_sequence(PoissonFanout(4.0), 20_000, seed=4)
        assert degrees.mean() == pytest.approx(4.0, abs=0.1)


class TestMoments:
    def test_matches_poisson_expectations(self):
        degrees = sample_degree_sequence(PoissonFanout(4.0), 50_000, seed=5)
        # For Poisson(z): E[k(k-1)] = z^2, so the mean excess degree ~= z.
        mean = degrees.mean()
        assert mean == pytest.approx(4.0, abs=0.1)
        assert np.mean(degrees * (degrees - 1)) / mean == pytest.approx(4.0, abs=0.15)


class TestFixedFanoutSampling:
    def test_constant_sequence(self):
        degrees = sample_degree_sequence(FixedFanout(3), 50, seed=6)
        assert np.all(degrees == 3)
