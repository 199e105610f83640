"""Tests for the loss-resilience experiment."""

from __future__ import annotations

import pytest

from repro.experiments.loss_resilience import (
    LossResilienceConfig,
    LossResilienceResult,
    run_loss_resilience,
)
from repro.experiments.protocol_comparison import (
    ProtocolComparisonConfig,
    run_protocol_comparison,
)
from repro.experiments.registry import get_experiment


def small_config(**overrides) -> LossResilienceConfig:
    defaults = dict(
        n=200,
        qs=(0.9,),
        loss_probabilities=(0.0, 0.2, 0.5),
        repetitions=10,
        seed=42,
    )
    defaults.update(overrides)
    return LossResilienceConfig(**defaults)


class TestConfig:
    def test_defaults_cover_six_protocols(self):
        config = LossResilienceConfig()
        ids = [pid for pid, _ in config.protocols()]
        assert ids == [
            "flooding",
            "pbcast",
            "lpbcast",
            "rdg",
            "fixed-fanout",
            "random-fanout",
        ]

    def test_same_zoo_as_protocol_comparison(self):
        # The two protocol-level experiments must dimension identically so
        # their loss=0 numbers are comparable.
        loss_ids = [pid for pid, _ in LossResilienceConfig().protocols()]
        comparison_ids = [pid for pid, _ in ProtocolComparisonConfig().protocols()]
        assert loss_ids == comparison_ids

    def test_with_scale_shrinks(self):
        config = LossResilienceConfig().with_scale(0.1)
        assert config.n == 200
        assert config.repetitions == 8
        assert config.loss_probabilities == LossResilienceConfig().loss_probabilities

    def test_with_scale_identity_at_full(self):
        config = LossResilienceConfig()
        assert config.with_scale(1.0) is config

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LossResilienceConfig(n=1)
        with pytest.raises(ValueError):
            LossResilienceConfig(qs=())
        with pytest.raises(ValueError):
            LossResilienceConfig(loss_probabilities=())
        with pytest.raises(ValueError):
            LossResilienceConfig(loss_probabilities=(1.5,))
        with pytest.raises(ValueError):
            LossResilienceConfig().with_scale(0.0)


class TestRun:
    @pytest.fixture(scope="class")
    def result(self) -> LossResilienceResult:
        return run_loss_resilience(small_config())

    def test_grid_is_complete(self, result):
        assert len(result.points) == 6 * 1 * 3
        assert len(result.protocols()) == 6
        for protocol in result.protocols():
            series = result.series_for(protocol, 0.9)
            assert [p.loss_probability for p in series] == [0.0, 0.2, 0.5]

    def test_measurements_are_sane(self, result):
        for point in result.points:
            assert 0.0 <= point.reliability <= 1.0
            assert 0.0 <= point.atomic_rate <= 1.0
            assert 0.0 <= point.drop_rate <= 1.0
            assert point.messages_per_member > 0.0
            assert point.repetitions == 10

    def test_zero_loss_drops_nothing(self, result):
        for protocol in result.protocols():
            assert result.point(protocol, 0.9, 0.0).drop_rate == 0.0

    def test_drop_rate_tracks_requested_loss(self, result):
        for protocol in result.protocols():
            for loss in (0.2, 0.5):
                point = result.point(protocol, 0.9, loss)
                assert point.drop_rate == pytest.approx(loss, abs=0.05)

    def test_heavy_loss_degrades_reliability(self, result):
        for protocol in result.protocols():
            clean = result.point(protocol, 0.9, 0.0).reliability
            lossy = result.point(protocol, 0.9, 0.5).reliability
            assert lossy <= clean + 0.02

    def test_to_table_renders(self, result):
        table = result.to_table()
        for protocol in result.protocols():
            assert protocol in table
        assert "loss" in table and "drop rate" in table

    def test_check_shape_clean_on_small_run(self, result):
        assert result.check_shape() == []

    def test_point_lookup_raises_for_unknown(self, result):
        with pytest.raises(KeyError):
            result.point("flooding", 0.9, 0.123)
        with pytest.raises(KeyError):
            result.point("unknown", 0.9, 0.2)

    def test_deterministic_for_seed(self):
        a = run_loss_resilience(small_config(loss_probabilities=(0.2,), repetitions=6))
        b = run_loss_resilience(small_config(loss_probabilities=(0.2,), repetitions=6))
        for pa, pb in zip(a.points, b.points, strict=True):
            assert pa == pb

    def test_network_model_crosses_the_process_pool(self):
        # The NetworkModel is pickled into the workers whole (the latency
        # samplers are frozen dataclasses); the old code rebuilt the model
        # inside each worker to dodge unpicklable closures.
        config = small_config(
            n=60, loss_probabilities=(0.0, 0.3), repetitions=10, processes=2
        )
        result = run_loss_resilience(config)
        assert len(result.points) == len(config.protocols()) * 2
        assert all(0.0 <= p.reliability <= 1.0 for p in result.points)

    def test_loss_free_column_matches_protocol_comparison(self):
        # At loss=0 the sweep must reproduce the loss-free experiment's
        # numbers up to Monte-Carlo error (different seed streams): the gap
        # per protocol has to be explained by the combined standard errors.
        loss = run_loss_resilience(small_config(loss_probabilities=(0.0,), repetitions=16))
        comparison = run_protocol_comparison(
            ProtocolComparisonConfig(n=200, qs=(0.9,), repetitions=16, seed=42)
        )
        for protocol in loss.protocols():
            a = loss.point(protocol, 0.9, 0.0)
            b = comparison.point(protocol, 0.9)
            se = (a.reliability_std**2 / 16 + b.reliability_std**2 / 16) ** 0.5
            tolerance = max(4.0 * se, 0.02)
            gap = abs(a.reliability - b.reliability)
            assert gap < tolerance, (
                f"{protocol}: loss-free gap {gap:.4f} exceeds {tolerance:.4f}"
            )


class TestRegistry:
    def test_registered(self):
        spec = get_experiment("loss_resilience")
        assert spec.analytical_only is False
        assert spec.config_factory is LossResilienceConfig
        config = spec.config_factory()
        assert hasattr(config, "with_scale")
