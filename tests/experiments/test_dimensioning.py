"""Tests of the auto-dimensioning experiment driver."""

from __future__ import annotations

import pytest

from repro.experiments.dimensioning import (
    ROUND_BASED_PROTOCOLS,
    DimensioningConfig,
    run_dimensioning,
)
from repro.experiments.registry import get_experiment


def tiny_config(**overrides) -> DimensioningConfig:
    """A grid small enough for unit tests but large enough to have shape."""
    defaults = dict(
        n=300,
        targets=(0.9,),
        qs=(0.9, 1.0),
        losses=(0.0, 0.2),
        protocols=("flooding", "pbcast", "fixed-fanout"),
        rounds=6,
        seed=4242,
    )
    defaults.update(overrides)
    return DimensioningConfig(**defaults)


class TestConfig:
    def test_defaults_validate(self):
        config = DimensioningConfig()
        assert config.n == 1000
        assert len(config.protocols) == 6

    def test_with_scale_shrinks_n_not_budgets(self):
        config = DimensioningConfig()
        scaled = config.with_scale(0.1)
        assert scaled.n < config.n
        # The replica budgets encode the statistical contract: untouched.
        assert scaled.initial_replicas == config.initial_replicas
        assert scaled.max_replicas == config.max_replicas
        # Small scales trim the grid to corner cells.
        assert len(scaled.qs) <= len(config.qs)
        assert config.with_scale(1.0) == config

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            DimensioningConfig(targets=())
        with pytest.raises(ValueError):
            DimensioningConfig(targets=(1.0,))
        with pytest.raises(ValueError):
            DimensioningConfig(protocols=("carrier-pigeon",))
        with pytest.raises(ValueError):
            DimensioningConfig(losses=(1.0,))
        with pytest.raises(ValueError):
            DimensioningConfig().with_scale(0.0)


class TestRunDimensioning:
    @pytest.fixture(scope="class")
    def result(self):
        return run_dimensioning(tiny_config())

    def test_grid_coverage(self, result):
        config = result.config
        expected = (
            len(config.protocols) * len(config.targets) * len(config.qs) * len(config.losses)
        )
        assert len(result.points) == expected
        assert result.protocols() == list(config.protocols)

    def test_cells_certified(self, result):
        for p in result.points:
            if p.feasible:
                assert p.certified
                assert p.ci_low >= p.target_reliability, (p.protocol, p.q, p.loss)
                assert 0.0 <= p.ci_low <= p.achieved_reliability <= 1.0 + 1e-12

    def test_rounds_only_for_round_based(self, result):
        for p in result.points:
            if p.protocol in ROUND_BASED_PROTOCOLS:
                assert p.rounds is not None and 1 <= p.rounds <= result.config.rounds
            else:
                assert p.rounds is None

    def test_integer_fanouts(self, result):
        for p in result.points:
            assert p.fanout == int(p.fanout)
            assert 1 <= p.fanout <= result.config.max_fanout

    def test_check_shape_clean(self, result):
        assert result.check_shape() == []

    def test_point_lookup(self, result):
        p = result.point("flooding", 0.9, 0.9, 0.0)
        assert p.protocol == "flooding"
        with pytest.raises(KeyError):
            result.point("flooding", 0.42, 0.9, 0.0)

    def test_table_rendering(self, result):
        table = result.to_table()
        header = table.splitlines()[0]
        for column in ("protocol", "target", "loss", "fanout", "rounds", "replicas"):
            assert column in header
        assert "flooding" in table

    def test_total_replicas_positive(self, result):
        assert sum(p.replicas_used for p in result.points) >= len(result.points) * 2

    def test_deterministic_at_fixed_seed(self, result):
        again = run_dimensioning(tiny_config())
        assert again.points == result.points

    def test_processes_do_not_change_numbers(self, result):
        parallel = run_dimensioning(tiny_config(processes=2))
        assert parallel.points == result.points


class TestRegistryIntegration:
    def test_registered(self):
        spec = get_experiment("dimensioning")
        assert spec.experiment_id == "dimensioning"
        assert not spec.analytical_only
        assert spec.config_factory is DimensioningConfig
