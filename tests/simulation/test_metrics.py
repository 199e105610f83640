"""Unit tests for simulation result records and aggregation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.metrics import (
    ExecutionMetrics,
    build_success_count_result,
    summarize_executions,
)


def make_execution(reliability: float, rounds: int = 5, success: bool = False) -> ExecutionMetrics:
    return ExecutionMetrics(
        n=100,
        n_alive=90,
        n_reached_alive=int(round(reliability * 90)),
        reliability=reliability,
        rounds=rounds,
        messages_sent=300,
        duplicates=20,
        success=success,
    )


class TestSummarizeExecutions:
    def test_mean_and_std(self):
        executions = [make_execution(r) for r in (0.8, 0.9, 1.0)]
        estimate = summarize_executions(executions, n=100, q=0.9, mean_fanout=4.0)
        assert estimate.mean_reliability == pytest.approx(0.9)
        assert estimate.std_reliability == pytest.approx(np.std([0.8, 0.9, 1.0], ddof=1))
        assert estimate.repetitions == 3
        assert estimate.samples.shape == (3,)

    def test_success_rate(self):
        executions = [make_execution(0.9, success=True), make_execution(0.9, success=False)]
        estimate = summarize_executions(executions, n=100, q=0.9, mean_fanout=4.0)
        assert estimate.success_rate == pytest.approx(0.5)

    def test_single_execution_std_zero(self):
        estimate = summarize_executions([make_execution(0.7)], n=100, q=0.9, mean_fanout=4.0)
        assert estimate.std_reliability == 0.0
        assert estimate.stderr() == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_executions([], n=100, q=0.9, mean_fanout=4.0)

    def test_confidence_interval_contains_mean_and_is_clipped(self):
        executions = [make_execution(r) for r in (0.95, 0.99, 1.0, 0.98)]
        estimate = summarize_executions(executions, n=100, q=0.9, mean_fanout=4.0)
        lo, hi = estimate.confidence_interval()
        assert lo <= estimate.mean_reliability <= hi
        assert 0.0 <= lo and hi <= 1.0

    def test_stderr_scales_with_repetitions(self):
        few = summarize_executions([make_execution(r) for r in (0.8, 1.0)], n=100, q=0.9, mean_fanout=4.0)
        many = summarize_executions(
            [make_execution(r) for r in (0.8, 1.0) * 8], n=100, q=0.9, mean_fanout=4.0
        )
        assert many.stderr() < few.stderr()


class TestSuccessCountResult:
    def test_build_from_counts(self):
        counts = np.array([18, 19, 20, 20, 17])
        result = build_success_count_result(counts, executions=20, analytical_reliability=0.95)
        assert result.simulations == 5
        assert result.empirical_pmf.shape == (21,)
        assert result.empirical_pmf.sum() == pytest.approx(1.0)
        assert result.analytical_pmf.sum() == pytest.approx(1.0, abs=1e-9)

    def test_total_variation_distance_bounds(self):
        counts = np.array([20] * 10)
        result = build_success_count_result(counts, executions=20, analytical_reliability=0.99)
        assert 0.0 <= result.total_variation_distance() <= 1.0

    def test_perfect_match_has_small_tv(self):
        # Counts drawn exactly at the analytical mode with p = 1.0.
        counts = np.full(50, 10)
        result = build_success_count_result(counts, executions=10, analytical_reliability=1.0)
        assert result.total_variation_distance() == pytest.approx(0.0, abs=1e-12)

    def test_out_of_range_counts_rejected(self):
        with pytest.raises(ValueError):
            build_success_count_result(np.array([21]), executions=20, analytical_reliability=0.9)
        with pytest.raises(ValueError):
            build_success_count_result(np.array([-1]), executions=20, analytical_reliability=0.9)

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            build_success_count_result(np.array([], dtype=int), executions=20, analytical_reliability=0.9)
