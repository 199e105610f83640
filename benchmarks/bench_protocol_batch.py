"""Head-to-head benchmark of the batched multi-protocol engine.

``test_protocol_head_to_head`` races every bundled protocol's scalar
oracle (:func:`tests.reference.scalar_protocols.run`, looped over the
replicas) against the batched engine
(:func:`repro.simulation.protocol_batch.simulate_protocol_batch`) on the
Fig. 5-sized workload (n = 5000, 20 replicas, q = 0.9), prints the per-
protocol speedups, and emits a ``BENCH_protocols.json`` perf record (path
overridable via ``REPRO_BENCH_RECORD_PROTOCOLS``) so CI can archive the
numbers next to ``BENCH_engine.json`` and ``BENCH_graphs.json``.

At full scale the batched engine must be >= 5x faster for every protocol;
scaled smoke runs (``REPRO_BENCH_SCALE < 1``) assert a looser 1.5x so CI
stays robust on small ``n`` where fixed overheads matter.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from _bench_utils import bench_scale, print_banner, scaled

from repro.core.distributions import PoissonFanout
from repro.protocols import (
    FixedFanoutGossip,
    FloodingProtocol,
    LpbcastProtocol,
    PbcastProtocol,
    RandomFanoutGossip,
    RouteDrivenGossip,
)
from repro.simulation.protocol_batch import simulate_protocol_batch
from tests.reference import scalar_protocols as reference


def _protocol_zoo():
    return [
        ("flooding", FloodingProtocol(degree=4)),
        ("pbcast", PbcastProtocol(fanout=4, rounds=8, broadcast_reach=0.8)),
        ("lpbcast", LpbcastProtocol(fanout=4, rounds=8, view_size=30)),
        ("rdg", RouteDrivenGossip(fanout=4, rounds=8, pull_fanout=1)),
        ("fixed-fanout", FixedFanoutGossip(4)),
        ("random-fanout", RandomFanoutGossip(PoissonFanout(4.0))),
    ]


def test_protocol_head_to_head():
    """Scalar loop vs batched engine for every protocol (n=5000, R=20, q=0.9)."""
    scale = bench_scale()
    n = scaled(5000, 500, scale)
    repetitions = scaled(20, 8, scale)
    q = 0.9

    print_banner(
        f"Protocol zoo head-to-head — n={n}, {repetitions} replicas, q={q}"
    )
    print(f"{'protocol':14s} {'scalar':>10s} {'batched':>10s} {'speedup':>9s}")

    records = {}
    for name, protocol in _protocol_zoo():

        def run_scalar() -> float:
            rng = np.random.default_rng(123)
            start = time.perf_counter()
            for _ in range(repetitions):
                reference.run(protocol, n, q, seed=rng)
            return time.perf_counter() - start

        def run_batch() -> float:
            start = time.perf_counter()
            simulate_protocol_batch(protocol, n, q, repetitions=repetitions, seed=123)
            return time.perf_counter() - start

        # The scalar loop is the expensive side: one timing suffices (it is
        # seconds long at full scale, far above scheduler noise); the batched
        # engine takes best-of-3 so a hiccup cannot decide the race.
        scalar_seconds = run_scalar()
        batch_seconds = min(run_batch() for _ in range(3))
        speedup = scalar_seconds / batch_seconds
        records[name] = {
            "scalar_seconds": scalar_seconds,
            "batch_seconds": batch_seconds,
            "speedup": speedup,
        }
        print(
            f"{name:14s} {scalar_seconds * 1000:8.1f}ms {batch_seconds * 1000:8.1f}ms "
            f"{speedup:8.1f}x"
        )

    record = {
        "benchmark": "protocol_head_to_head",
        "n": n,
        "repetitions": repetitions,
        "q": q,
        "scale": scale,
        "protocols": records,
    }
    record_path = os.environ.get("REPRO_BENCH_RECORD_PROTOCOLS", "BENCH_protocols.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"perf record written to {record_path}")

    floor = 5.0 if scale >= 0.99 else 1.5
    for name, row in records.items():
        assert row["speedup"] >= floor, (
            f"{name}: batched engine only {row['speedup']:.1f}x faster "
            f"(floor {floor}x at scale {scale})"
        )
