"""Tests of the protocol-grid runner shared by the five protocol-zoo experiments."""

from __future__ import annotations

import pytest

from repro.experiments.churn_resilience import ChurnResilienceConfig, run_churn_resilience
from repro.experiments.latency_profile import LatencyProfileConfig, run_latency_profile
from repro.experiments.loss_resilience import LossResilienceConfig, run_loss_resilience
from repro.experiments.protocol_comparison import (
    ProtocolComparisonConfig,
    run_protocol_comparison,
)
from repro.experiments.recovery_resilience import (
    RecoveryResilienceConfig,
    run_recovery_resilience,
)

#: More than 8 replicas per cell: a pool that split a cell into chunks of 8
#: would draw other seeds than the serial run.
EXPERIMENTS = {
    "protocol_comparison": (
        run_protocol_comparison,
        ProtocolComparisonConfig,
        dict(n=100, qs=(0.9,), repetitions=10, seed=3),
    ),
    "loss_resilience": (
        run_loss_resilience,
        LossResilienceConfig,
        dict(n=100, qs=(0.9,), loss_probabilities=(0.2,), repetitions=10, seed=3),
    ),
    "churn_resilience": (
        run_churn_resilience,
        ChurnResilienceConfig,
        dict(n=100, qs=(0.9,), churn_rates=(0.05,), repetitions=10, seed=3),
    ),
    "recovery_resilience": (
        run_recovery_resilience,
        RecoveryResilienceConfig,
        dict(
            n=120,
            loss_probabilities=(0.0,),
            burst_loss_good=0.0,
            burst_loss_bad=0.0,
            churn_rates=(0.0, 0.05),
            rounds=8,
            repetitions=16,
            seed=7,
        ),
    ),
    "latency_profile": (
        run_latency_profile,
        LatencyProfileConfig,
        dict(
            n=100,
            latencies=(("exponential", 1.0),),
            loss_probabilities=(0.1,),
            rounds=8,
            repetitions=10,
            seed=3,
        ),
    ),
}


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_pool_size_does_not_change_numbers(experiment_id):
    run, config_type, params = EXPERIMENTS[experiment_id]
    serial = run(config_type(**params, processes=1))
    pooled = run(config_type(**params, processes=2))
    # repr() prints every float so that it reads back bit-exact (NaN as
    # ``nan``), so equal reprs are equal points, NaN fields included.
    assert [repr(p) for p in pooled.points] == [repr(p) for p in serial.points]
