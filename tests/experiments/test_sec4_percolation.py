"""Tests for the Sec. 4 large-n percolation validation experiment."""

from __future__ import annotations

import math

import pytest

from repro.experiments.registry import get_experiment
from repro.experiments.sec4_percolation_validation import (
    Sec4Config,
    Sec4Result,
    run_sec4,
)


def small_config() -> Sec4Config:
    return Sec4Config(
        ns=(1500, 4000),
        qs=(0.15, 0.6, 0.9),
        replicas=4,
        replicas_large=2,
        large_n_threshold=3000,
        seed=7,
    )


class TestConfig:
    def test_defaults_span_large_n(self):
        config = Sec4Config()
        assert max(config.ns) == 1_000_000
        assert config.replicas_for(1_000_000) == config.replicas_large
        assert config.replicas_for(10_000) == config.replicas

    def test_with_scale_shrinks(self):
        config = Sec4Config().with_scale(0.02)
        assert max(config.ns) <= 20_000
        assert min(config.ns) >= 2000
        assert config.replicas >= 2

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            Sec4Config(ns=())
        with pytest.raises(ValueError):
            Sec4Config(qs=(1.5,))
        with pytest.raises(ValueError):
            Sec4Config(replicas=0)
        with pytest.raises(ValueError):
            Sec4Config().with_scale(0.0)


class TestRun:
    @pytest.fixture(scope="class")
    def result(self) -> Sec4Result:
        return run_sec4(small_config())

    def test_grid_is_complete(self, result):
        assert len(result.points) == 2 * 3
        assert len(result.critical) == 2
        large = [p for p in result.points if p.n == 4000]
        small = [p for p in result.points if p.n == 1500]
        assert len(large) == 3
        # replicas_large applies above the threshold
        assert {p.replicas for p in large} == {2}
        assert {p.replicas for p in small} == {4}

    def test_supercritical_points_match_eq4(self, result):
        for p in result.points:
            if p.q >= 0.6:
                assert p.giant_error() < 0.05
                assert not math.isnan(p.gossip_reliability)
                assert p.reliability_error() < 0.06

    def test_subcritical_point_vanishes(self, result):
        for p in result.points:
            if p.q <= 0.15:
                assert p.giant_empirical < 0.1

    def test_critical_ratio_estimates(self, result):
        for c in result.critical:
            assert c.error() < 0.05
            assert c.analytical == pytest.approx(0.25)

    def test_table_renders(self, result):
        table = result.to_table()
        assert "giant_emp" in table
        assert "qc_empirical" in table
        assert "4000" in table

    def test_check_shape_passes(self, result):
        assert result.check_shape() == []


class TestRegistry:
    def test_registered_and_runnable(self):
        spec = get_experiment("sec4_percolation_validation")
        assert not spec.analytical_only
        assert spec.paper_reference.startswith("Sec. 4")
        config = spec.config_factory()
        assert isinstance(config, Sec4Config)
        assert spec.runner is run_sec4
