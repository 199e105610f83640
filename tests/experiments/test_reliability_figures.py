"""Tests for the simulation-backed reliability figures (Figs. 4-5 machinery).

The paper-scale configurations (n=1000/5000, 20 repetitions, 15 fanouts) are
exercised by the benchmark harness; here the shared machinery is validated on
scaled-down configurations that keep the qualitative shape.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.fig4_reliability_1000 import Fig4Config, run_fig4
from repro.experiments.fig5_reliability_5000 import Fig5Config
from repro.experiments.reliability_figures import (
    ReliabilityFigureConfig,
    paper_fanout_grid,
    run_reliability_figure,
)


class TestConfig:
    def test_paper_fanout_grid(self):
        grid = paper_fanout_grid()
        assert grid[0] == pytest.approx(1.1)
        assert grid[-1] == pytest.approx(6.7)
        assert len(grid) == 15
        assert np.allclose(np.diff(grid), 0.4)

    def test_default_figure_configs_match_paper(self):
        fig4 = Fig4Config()
        fig5 = Fig5Config()
        assert fig4.n == 1000
        assert fig5.n == 5000
        assert fig4.repetitions == 20
        assert fig4.qs_panel_a == (0.1, 0.3, 0.5, 1.0)
        assert fig4.qs_panel_b == (0.4, 0.6, 0.8, 1.0)

    def test_all_qs_union(self):
        config = Fig4Config()
        assert config.all_qs() == (0.1, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0)

    def test_scaled_copy(self):
        small = Fig4Config().scaled(n=200, repetitions=3)
        assert small.n == 200
        assert small.repetitions == 3
        assert small.fanouts == Fig4Config().fanouts

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ReliabilityFigureConfig(n=1)
        with pytest.raises(ValueError):
            ReliabilityFigureConfig(n=100, repetitions=0)


class TestScaledRun:
    @pytest.fixture(scope="class")
    def small_result(self):
        config = ReliabilityFigureConfig(
            n=600,
            fanouts=(1.1, 2.3, 3.5, 4.7, 5.9),
            qs_panel_a=(0.3, 1.0),
            qs_panel_b=(0.6, 1.0),
            repetitions=8,
            seed=99,
        )
        return run_reliability_figure(config)

    def test_sweep_covers_grid(self, small_result):
        assert len(small_result.sweep.points) == 5 * 3  # 5 fanouts x {0.3, 0.6, 1.0}

    def test_qualitative_shape(self, small_result):
        assert small_result.check_shape(tolerance=0.15) == []

    def test_series_accessor(self, small_result):
        fanouts, simulated, analytical = small_result.series(1.0)
        assert fanouts.shape == simulated.shape == analytical.shape == (5,)
        assert np.all((simulated >= 0) & (simulated <= 1))

    def test_tables_render(self, small_result):
        assert len(small_result.to_table().splitlines()) == 2 + 15

    def test_simulation_tracks_analysis(self, small_result):
        for comparison in small_result.comparisons.values():
            assert comparison.mean_absolute_error < 0.15

    def test_fig4_runner_accepts_scaled_config(self):
        config = Fig4Config().scaled(n=300, repetitions=4)
        result = run_fig4(config)  # type: ignore[arg-type]
        assert result.config.n == 300
        assert len(result.sweep.points) == len(config.fanouts) * len(config.all_qs())
