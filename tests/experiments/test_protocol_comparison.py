"""Tests for the cross-protocol comparison experiment."""

from __future__ import annotations

import pickle
from functools import partial

import pytest

from repro.experiments.protocol_comparison import (
    ProtocolComparisonConfig,
    ProtocolComparisonResult,
    protocol_zoo,
    run_protocol_comparison,
    zoo_protocol,
)
from repro.experiments.registry import get_experiment


def small_config(**overrides) -> ProtocolComparisonConfig:
    defaults = dict(n=200, qs=(0.5, 0.9, 1.0), repetitions=10, seed=42)
    defaults.update(overrides)
    return ProtocolComparisonConfig(**defaults)


class TestConfig:
    def test_defaults_cover_six_protocols(self):
        config = ProtocolComparisonConfig()
        ids = [pid for pid, _ in config.protocols()]
        assert ids == [
            "flooding",
            "pbcast",
            "lpbcast",
            "rdg",
            "fixed-fanout",
            "random-fanout",
        ]

    def test_with_scale_shrinks(self):
        config = ProtocolComparisonConfig().with_scale(0.1)
        assert config.n == 200
        assert config.repetitions == 8
        assert config.qs == ProtocolComparisonConfig().qs

    def test_with_scale_identity_at_full(self):
        config = ProtocolComparisonConfig()
        assert config.with_scale(1.0) is config

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ProtocolComparisonConfig(n=1)
        with pytest.raises(ValueError):
            ProtocolComparisonConfig(qs=())
        with pytest.raises(ValueError):
            ProtocolComparisonConfig(qs=(1.5,))
        with pytest.raises(ValueError):
            ProtocolComparisonConfig().with_scale(0.0)


def settings(protocol) -> tuple:
    """A protocol's class and attributes, as text: protocols and fanout laws define no ``==``."""
    return type(protocol), repr(vars(protocol))


class TestZooProtocol:
    def test_builds_every_zoo_row_by_id(self):
        zoo = protocol_zoo(4, 8, include_peer_sampling=True, include_recovery=True)
        for pid, protocol in zoo:
            assert settings(zoo_protocol(pid, 4, 8)) == settings(protocol)
        with pytest.raises(KeyError):
            zoo_protocol("gossip-poisson", 4, 8)

    def test_partial_builder_pickles(self):
        build = pickle.loads(pickle.dumps(partial(zoo_protocol, "pbcast")))
        assert settings(build(5, 3)) == settings(dict(protocol_zoo(5, 3))["pbcast"])


class TestRun:
    @pytest.fixture(scope="class")
    def result(self) -> ProtocolComparisonResult:
        return run_protocol_comparison(small_config())

    def test_grid_is_complete(self, result):
        assert len(result.points) == 6 * 3
        assert len(result.protocols()) == 6
        for protocol in result.protocols():
            series = result.series_for(protocol)
            assert [p.q for p in series] == [0.5, 0.9, 1.0]

    def test_measurements_are_sane(self, result):
        for point in result.points:
            assert 0.0 <= point.reliability <= 1.0
            assert 0.0 <= point.atomic_rate <= 1.0
            assert point.mean_rounds >= 0.0
            assert point.messages_per_member > 0.0
            assert point.repetitions == 10

    def test_flooding_is_upper_bound_at_high_q(self, result):
        flooding = result.point("flooding", 0.9).reliability
        for protocol in result.protocols():
            assert flooding >= result.point(protocol, 0.9).reliability - 0.05

    def test_to_table_renders(self, result):
        table = result.to_table()
        for protocol in result.protocols():
            assert protocol in table
        assert "reliability" in table and "msgs/member" in table

    def test_check_shape_clean_on_small_run(self, result):
        assert result.check_shape() == []

    def test_point_lookup_raises_for_unknown(self, result):
        with pytest.raises(KeyError):
            result.point("flooding", 0.123)
        with pytest.raises(KeyError):
            result.point("unknown", 0.9)

    def test_deterministic_for_seed(self):
        a = run_protocol_comparison(small_config(qs=(0.9,), repetitions=6))
        b = run_protocol_comparison(small_config(qs=(0.9,), repetitions=6))
        for pa, pb in zip(a.points, b.points, strict=True):
            assert pa == pb


class TestRegistry:
    def test_registered(self):
        spec = get_experiment("protocol_comparison")
        assert spec.analytical_only is False
        assert spec.config_factory is ProtocolComparisonConfig
        config = spec.config_factory()
        assert hasattr(config, "with_scale")
