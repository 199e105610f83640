"""Unit tests for analysis-vs-simulation comparison utilities."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.compare import compare_series, compare_sweep, threshold_crossing
from repro.simulation.runner import reliability_sweep


class TestThresholdCrossing:
    def test_basic_crossing(self):
        assert threshold_crossing([1, 2, 3, 4], [0.0, 0.2, 0.6, 0.9], 0.5) == 3

    def test_never_crossed(self):
        assert math.isnan(threshold_crossing([1, 2], [0.1, 0.2], 0.5))

    def test_crossed_at_first_point(self):
        assert threshold_crossing([1, 2], [0.7, 0.9], 0.5) == 1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            threshold_crossing([1, 2, 3], [0.1, 0.2], 0.5)


class TestCompareSeries:
    def test_identical_series_have_zero_error(self):
        xs = [1.0, 2.0, 3.0]
        ys = [0.1, 0.5, 0.9]
        c = compare_series(xs, ys, ys)
        assert c.mean_absolute_error == 0.0
        assert c.max_absolute_error == 0.0
        assert c.rmse == 0.0
        assert c.simulated_threshold == c.analytical_threshold

    def test_error_metrics_values(self):
        c = compare_series([1, 2], [0.0, 1.0], [0.5, 0.5])
        assert c.mean_absolute_error == pytest.approx(0.5)
        assert c.max_absolute_error == pytest.approx(0.5)
        assert c.rmse == pytest.approx(0.5)

    def test_threshold_nan_when_not_crossed(self):
        c = compare_series([1, 2], [0.1, 0.2], [0.6, 0.9])
        assert math.isnan(c.simulated_threshold)
        assert not math.isnan(c.analytical_threshold)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            compare_series([], [], [])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compare_series([1, 2], [0.1], [0.2, 0.3])


class TestCompareSweep:
    def test_per_q_comparisons(self):
        sweep = reliability_sweep(
            500,
            fanouts=[1.0, 2.0, 4.0, 6.0],
            qs=[0.5, 0.9],
            repetitions=5,
            seed=1,
            conditional_on_spread=True,
        )
        comparisons = compare_sweep(sweep)
        assert set(comparisons) == {0.5, 0.9}
        for c in comparisons.values():
            assert c.xs.shape == (4,)
            assert c.mean_absolute_error <= c.max_absolute_error + 1e-12
            assert 0.0 <= c.mean_absolute_error <= 1.0

    def test_thresholds_near_critical_fanout(self):
        sweep = reliability_sweep(
            2000,
            fanouts=np.arange(0.5, 6.6, 0.5),
            qs=[1.0],
            repetitions=6,
            seed=2,
            conditional_on_spread=True,
        )
        comparison = compare_sweep(sweep, threshold_level=0.5)[1.0]
        # For q=1 the 0.5-reliability level is crossed a bit above the
        # critical fanout of 1; analysis and simulation should agree closely.
        assert comparison.analytical_threshold == pytest.approx(2.0, abs=0.6)
        assert abs(comparison.simulated_threshold - comparison.analytical_threshold) <= 1.0
