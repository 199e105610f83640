"""Micro-benchmarks of the library's hot paths.

These are conventional pytest-benchmark timings (many rounds, statistical
reporting) rather than figure reproductions: the percolation fixed-point
solver, a single execution of the scalar gossip oracle
(``tests/reference/scalar_protocols.py``) at n = 1000 and n = 5000, the
batched replica engine, the configuration model builder, and the reachability kernel.
They exist so performance regressions in the simulator show up in CI next to
the reproduction harness.

``test_engine_head_to_head_fig5_workload`` is the scalar-vs-batched showdown
on the Fig. 5 workload (n = 5000, 20 replicas): it prints the speedup,
asserts the batched engine's ≥ 10× win at full scale, and emits a
``BENCH_engine.json`` perf record (path overridable via the
``REPRO_BENCH_RECORD`` environment variable) so CI can archive the numbers.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from _bench_utils import bench_scale, print_banner, scaled

from repro.core.distributions import PoissonFanout
from repro.core.percolation import giant_component_size
from repro.core.poisson_case import poisson_reliability
from repro.graphs.components import reachable_from
from repro.graphs.configuration_model import configuration_model_edges
from repro.simulation.gossip import simulate_gossip_batch
from tests.reference.scalar_protocols import simulate_gossip_once


def test_percolation_solver_poisson_closed_form(benchmark):
    result = benchmark(poisson_reliability, 4.0, 0.9)
    assert result == pytest.approx(0.9695, abs=1e-3)


def test_percolation_solver_generic(benchmark):
    dist = PoissonFanout(4.0)
    result = benchmark(giant_component_size, dist, 0.9)
    assert result == pytest.approx(0.9695, abs=1e-3)


def test_single_execution_n1000(benchmark):
    dist = PoissonFanout(4.0)
    execution = benchmark(simulate_gossip_once, 1000, dist, 0.9, seed=1)
    assert 0.0 <= execution.reliability() <= 1.0


def test_single_execution_n5000(benchmark):
    dist = PoissonFanout(4.0)
    execution = benchmark(simulate_gossip_once, 5000, dist, 0.9, seed=2)
    assert 0.0 <= execution.reliability() <= 1.0


def test_batched_executions_n5000(benchmark):
    dist = PoissonFanout(4.0)
    result = benchmark(
        lambda: simulate_gossip_batch(5000, dist, 0.9, repetitions=20, seed=7)
    )
    assert result.repetitions == 20
    assert np.all((result.reliability() >= 0.0) & (result.reliability() <= 1.0))


def test_engine_head_to_head_fig5_workload():
    """Scalar loop vs batched engine on the Fig. 5 workload (n=5000, R=20)."""
    scale = bench_scale()
    n = scaled(5000, 500, scale)
    repetitions = scaled(20, 8, scale)
    dist = PoissonFanout(4.0)

    def run_scalar() -> float:
        rng = np.random.default_rng(123)
        start = time.perf_counter()
        for _ in range(repetitions):
            simulate_gossip_once(n, dist, 0.9, seed=rng)
        return time.perf_counter() - start

    def run_batch() -> float:
        start = time.perf_counter()
        simulate_gossip_batch(n, dist, 0.9, repetitions=repetitions, seed=123)
        return time.perf_counter() - start

    # Best-of-3 for both engines so a scheduler hiccup cannot decide the race.
    scalar_seconds = min(run_scalar() for _ in range(3))
    batch_seconds = min(run_batch() for _ in range(3))
    speedup = scalar_seconds / batch_seconds

    print_banner(
        f"Engine head-to-head — n={n}, {repetitions} replicas (Fig. 5 workload)"
    )
    print(f"scalar loop : {scalar_seconds * 1000:9.1f} ms")
    print(f"batched     : {batch_seconds * 1000:9.1f} ms")
    print(f"speedup     : {speedup:9.1f}x")

    record = {
        "benchmark": "engine_head_to_head_fig5_workload",
        "n": n,
        "repetitions": repetitions,
        "scale": scale,
        "scalar_seconds": scalar_seconds,
        "batch_seconds": batch_seconds,
        "speedup": speedup,
    }
    record_path = os.environ.get("REPRO_BENCH_RECORD", "BENCH_engine.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"perf record written to {record_path}")

    if scale >= 0.99:
        assert speedup >= 10.0, f"batched engine only {speedup:.1f}x faster"
    else:
        assert speedup >= 2.0, f"batched engine only {speedup:.1f}x faster (scaled run)"


def test_configuration_model_build(benchmark):
    degrees = PoissonFanout(4.0).sample(5000, seed=3)
    edges = benchmark(configuration_model_edges, degrees, seed=4)
    assert edges.shape[1] == 2


def test_reachability_kernel(benchmark):
    rng = np.random.default_rng(5)
    n = 5000
    edges = rng.integers(0, n, size=(4 * n, 2))
    reached = benchmark(reachable_from, n, edges, 0)
    assert reached[0]
