"""Tests for the recovery-resilience experiment."""

from __future__ import annotations

import pytest

from repro.experiments.recovery_resilience import (
    PURE_PUSH_PROTOCOLS,
    RECOVERY_PROTOCOLS,
    RecoveryResilienceConfig,
    RecoveryResilienceResult,
    run_recovery_resilience,
)
from repro.experiments.registry import get_experiment


@pytest.fixture(scope="module")
def result() -> RecoveryResilienceResult:
    # The default config at smoke scale (n=200, 24 repetitions) — the same
    # workload the CI smoke step runs, shared across the assertions below.
    return run_recovery_resilience(RecoveryResilienceConfig().with_scale(0.1))


class TestConfig:
    def test_roster_is_zoo_plus_recovery(self):
        ids = [pid for pid, _ in RecoveryResilienceConfig().protocols()]
        assert ids == [
            "flooding",
            "pbcast",
            "lpbcast",
            "rdg",
            "fixed-fanout",
            "random-fanout",
            "lazy-push",
            "anti-entropy",
        ]
        assert set(RECOVERY_PROTOCOLS) <= set(ids)
        assert set(PURE_PUSH_PROTOCOLS) <= set(ids)

    def test_channel_columns(self):
        config = RecoveryResilienceConfig()
        channels = config.channels()
        assert channels[:-1] == tuple(("iid", p) for p in config.loss_probabilities)
        assert channels[-1][0] == "burst"
        assert config.burst_mean_loss() == pytest.approx(0.2375)

    def test_with_scale_shrinks_with_floors(self):
        config = RecoveryResilienceConfig().with_scale(0.1)
        assert config.n == 200
        assert config.repetitions == 24
        assert config.loss_probabilities == RecoveryResilienceConfig().loss_probabilities

    def test_with_scale_identity_at_full(self):
        config = RecoveryResilienceConfig()
        assert config.with_scale(1.0) is config

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RecoveryResilienceConfig(n=1)
        with pytest.raises(ValueError):
            RecoveryResilienceConfig(loss_probabilities=())
        with pytest.raises(ValueError):
            RecoveryResilienceConfig(loss_probabilities=(1.2,))
        with pytest.raises(ValueError):
            RecoveryResilienceConfig(churn_rates=(1.0,))
        with pytest.raises(ValueError):
            RecoveryResilienceConfig(burst_loss_bad=-0.1)
        with pytest.raises(ValueError):
            RecoveryResilienceConfig(targeted_fraction=1.0)
        # A fraction that rounds to no crashed member would build a second
        # uniform-crash row (0.0) or a "targeted" row that crashes nobody.
        for fraction in (0.0, 0.004):
            with pytest.raises(ValueError, match="targeted_fraction"):
                RecoveryResilienceConfig(n=100, targeted_fraction=fraction)
        with pytest.raises(ValueError):
            RecoveryResilienceConfig().with_scale(0.0)


class TestRun:
    def test_grid_is_complete(self, result):
        config = result.config
        n_channels = len(config.channels())
        per_protocol = n_channels * len(config.churn_rates) + 1  # + targeted row
        assert len(result.points) == 8 * per_protocol
        targeted = [p for p in result.points if p.failure == "targeted"]
        assert len(targeted) == 8
        top_loss = max(config.loss_probabilities)
        for p in targeted:
            assert p.channel == "iid"
            assert p.loss == top_loss
            assert p.churn_rate == 0.0

    def test_shape_checks_pass_at_smoke_scale(self, result):
        assert result.check_shape() == []

    def test_accounting_split_is_consistent(self, result):
        for p in result.points:
            assert p.payload_per_member >= 0.0
            assert p.control_per_member >= 0.0
            assert p.payload_per_member + p.control_per_member == pytest.approx(
                p.messages_per_member
            )
        # Pure push never sends control traffic; recovery always does.
        for p in result.points:
            if p.protocol in ("flooding", "fixed-fanout", "random-fanout", "lpbcast"):
                assert p.control_per_member == 0.0
            if p.protocol in RECOVERY_PROTOCOLS:
                assert p.control_per_member > 0.0

    def test_headline_at_top_loss(self, result):
        # The claim the experiment exists for, asserted directly: at the
        # highest i.i.d. loss column (churn-free), both recovery protocols
        # beat every pure-push protocol's payload cost without losing
        # reliability.
        top_loss = max(result.config.loss_probabilities)
        for recovery_id in RECOVERY_PROTOCOLS:
            recovery = result.point(recovery_id, "iid", top_loss, 0.0)
            assert recovery.reliability >= 0.95
            for push_id in PURE_PUSH_PROTOCOLS:
                push = result.point(push_id, "iid", top_loss, 0.0)
                assert recovery.reliability >= push.reliability - 0.03
                assert recovery.payload_per_member <= push.payload_per_member * 1.05

    def test_point_and_series_accessors(self, result):
        config = result.config
        series = result.series_for("lazy-push", "iid", 0.0)
        assert [p.churn_rate for p in series] == sorted(config.churn_rates)
        with pytest.raises(KeyError):
            result.point("lazy-push", "iid", 0.123, 0.0)

    def test_to_table_renders_grid(self, result):
        table = result.to_table()
        for token in ("lazy-push", "anti-entropy", "burst", "targeted", "control"):
            assert token in table

    def test_survivors_reflect_churn_and_crashes(self, result):
        for p in result.points:
            assert 0.0 < p.survivor_fraction <= 1.0
            if p.churn_rate == 0.0 and p.failure == "uniform":
                assert p.survivor_fraction == pytest.approx(1.0)
            if p.churn_rate > 0.0:
                assert p.survivor_fraction < 1.0


class TestDeterminismAndRegistry:
    def test_same_seed_reproduces(self):
        config = RecoveryResilienceConfig(
            n=120,
            loss_probabilities=(0.0, 0.3),
            churn_rates=(0.0,),
            rounds=8,
            repetitions=6,
            seed=99,
        )
        a = run_recovery_resilience(config)
        b = run_recovery_resilience(config)
        for pa, pb in zip(a.points, b.points, strict=True):
            assert pa == pb

    def test_registry_entry(self):
        spec = get_experiment("recovery_resilience")
        assert spec.config_factory is RecoveryResilienceConfig
        assert spec.runner is run_recovery_resilience
        assert not spec.analytical_only
