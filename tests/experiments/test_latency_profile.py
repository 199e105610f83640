"""Tests of the latency-profile experiment (delivery-time percentiles)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.latency_profile import (
    LatencyPoint,
    LatencyProfileConfig,
    LatencyProfileResult,
    run_latency_profile,
)
from repro.experiments.registry import get_experiment


def tiny_config(**overrides):
    params = dict(
        n=120,
        q=0.9,
        latencies=(("constant", 1.0), ("exponential", 1.0)),
        loss_probabilities=(0.0, 0.2),
        rounds=8,
        repetitions=8,
        mean_fanout=4,
        seed=424242,
    )
    params.update(overrides)
    return LatencyProfileConfig(**params)


@pytest.fixture(scope="module")
def result():
    return run_latency_profile(tiny_config())


class TestConfigValidation:
    def test_defaults_are_valid_and_paper_scaled(self):
        config = LatencyProfileConfig()
        assert config.n == 1000
        assert len(config.protocols()) == 9
        assert [spec[0] for spec in config.latencies] == [
            "constant",
            "uniform",
            "exponential",
        ]

    def test_rejects_unknown_latency_kind(self):
        with pytest.raises(ValueError):
            tiny_config(latencies=(("pareto", 1.0),))

    def test_rejects_empty_axes(self):
        with pytest.raises(ValueError):
            tiny_config(latencies=())
        with pytest.raises(ValueError):
            tiny_config(loss_probabilities=())
        with pytest.raises(ValueError):
            tiny_config(percentiles=())

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            tiny_config(round_period=0.0)
        with pytest.raises(ValueError):
            tiny_config(percentiles=(0.0,))
        with pytest.raises(ValueError):
            tiny_config(percentiles=(100.0,))
        with pytest.raises(ValueError):
            tiny_config(loss_probabilities=(1.5,))

    def test_with_scale_clamps_floors(self):
        config = LatencyProfileConfig()
        scaled = config.with_scale(0.1)
        assert scaled.n == 200
        assert scaled.repetitions == 8
        assert config.with_scale(1.0) is config
        with pytest.raises(ValueError):
            config.with_scale(0.0)


class TestResultSurface:
    def test_grid_is_complete(self, result):
        config = result.config
        expected = len(config.protocols()) * len(config.latencies) * len(
            config.loss_probabilities
        )
        assert len(result.points) == expected == 9 * 2 * 2
        assert len(result.protocols()) == 9

    def test_point_lookup(self, result):
        cell = result.point("flooding", "constant(1)", 0.0)
        assert isinstance(cell, LatencyPoint)
        assert cell.reliability > 0.8
        with pytest.raises(KeyError):
            result.point("flooding", "constant(1)", 0.5)

    def test_percentile_accessor(self, result):
        cell = result.point("fixed-fanout", "exponential(1)", 0.0)
        assert cell.percentile(50.0) <= cell.percentile(99.0) <= cell.percentile(99.9)
        with pytest.raises(KeyError):
            cell.percentile(12.5)

    def test_constant_column_is_round_aligned(self, result):
        # constant(1.0) at round_period 1.0: the plane's fast path is the
        # round clock, so every raw delivery time sits on the round grid.
        for p in result.points:
            if p.latency.startswith("constant"):
                assert p.round_aligned is True
            else:
                assert p.round_aligned is None

    def test_to_table_renders_grid(self, result):
        table = result.to_table()
        for fragment in (
            "protocol",
            "p50",
            "p99",
            "p999",
            "msgs/member",
            "flooding",
            "exponential(1)",
        ):
            assert fragment in table

    def test_check_shape_is_clean(self, result):
        assert result.check_shape() == []

    def test_check_shape_flags_inverted_percentiles(self, result):
        bad_point = LatencyPoint(
            protocol="flooding",
            latency="constant(1)",
            loss_probability=0.0,
            repetitions=8,
            reliability=1.0,
            reliability_std=0.0,
            messages_per_member=4.0,
            delivery_percentiles=(("p50", 5.0), ("p99", 2.0), ("p999", 1.0)),
        )
        broken = LatencyProfileResult(config=result.config, points=(bad_point,))
        assert any("not ordered" in problem for problem in broken.check_shape())

    def test_check_shape_flags_off_grid_constant_times(self, result):
        bad_point = LatencyPoint(
            protocol="flooding",
            latency="constant(1)",
            loss_probability=0.0,
            repetitions=8,
            reliability=1.0,
            reliability_std=0.0,
            messages_per_member=4.0,
            delivery_percentiles=(("p50", 1.0), ("p99", 2.0), ("p999", 3.0)),
            round_aligned=False,
        )
        broken = LatencyProfileResult(config=result.config, points=(bad_point,))
        assert any("round grid" in problem for problem in broken.check_shape())

    def test_deterministic_given_seed(self, result):
        rerun = run_latency_profile(tiny_config())
        assert rerun.points == result.points


class TestParallelExecution:
    def test_network_model_crosses_the_process_pool(self):
        # The timed NetworkModel is pickled into the workers whole; this is
        # the regression pin for the frozen-dataclass samplers.
        config = tiny_config(
            n=60,
            latencies=(("exponential", 1.0),),
            loss_probabilities=(0.1,),
            repetitions=10,
            processes=2,
        )
        result = run_latency_profile(config)
        assert len(result.points) == 9
        assert all(np.isfinite(p.percentile(50.0)) for p in result.points)


class TestRegistry:
    def test_registry_entry(self):
        spec = get_experiment("latency_profile")
        assert spec.config_factory is LatencyProfileConfig
        assert spec.runner is run_latency_profile
        assert not spec.analytical_only
