"""Unit tests for table rendering of experiment results."""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import pmf_to_table, sweep_to_table
from repro.simulation.metrics import build_success_count_result
from repro.simulation.runner import reliability_sweep


class TestTableRendering:
    def test_sweep_table_has_header_and_rows(self):
        sweep = reliability_sweep(100, fanouts=[2.0, 4.0], qs=[0.8], repetitions=2, seed=1)
        table = sweep_to_table(sweep)
        lines = table.splitlines()
        assert "mean_fanout" in lines[0]
        assert len(lines) == 2 + len(sweep.points)

    def test_pmf_table(self):
        counts = np.array([4, 5, 5, 3])
        result = build_success_count_result(counts, executions=5, analytical_reliability=0.9)
        table = pmf_to_table(result)
        lines = table.splitlines()
        assert len(lines) == 2 + 6  # header, separator, k = 0..5
        assert "binomial" in lines[0]
