"""Head-to-head benchmark of the vectorised lossy-network plane.

``test_loss_head_to_head`` races every bundled protocol's scalar lossy
oracle (:func:`tests.reference.scalar_protocols.run` with a
:class:`~repro.simulation.network.NetworkModel`, looped over the replicas)
against the batched lossy engine
(:func:`repro.simulation.protocol_batch.simulate_protocol_batch` with the
same network) on the Fig. 5-sized workload (n = 5000, 20 replicas, q = 0.9,
10% message loss), prints the per-protocol speedups, and emits a
``BENCH_loss.json`` perf record (path overridable via
``REPRO_BENCH_RECORD_LOSS``) so CI can archive and regression-gate the
numbers next to the other ``BENCH_*.json`` records.

At full scale the batched lossy path must be >= 10x faster than the scalar
``NetworkModel`` reference for every protocol; scaled smoke runs
(``REPRO_BENCH_SCALE < 1``) assert a looser 1.5x so CI stays robust on small
``n`` where fixed overheads matter.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from _bench_utils import bench_scale, print_banner, scaled

from repro.experiments.protocol_comparison import protocol_zoo
from repro.simulation.network import NetworkModel
from repro.simulation.protocol_batch import simulate_protocol_batch
from tests.reference import scalar_protocols as reference


def test_loss_head_to_head():
    """Scalar lossy loop vs batched lossy engine (n=5000, R=20, q=0.9, loss=0.1)."""
    scale = bench_scale()
    n = scaled(5000, 500, scale)
    repetitions = scaled(20, 8, scale)
    q = 0.9
    loss = 0.1

    print_banner(
        f"Lossy-network head-to-head — n={n}, {repetitions} replicas, "
        f"q={q}, loss={loss}"
    )
    print(f"{'protocol':14s} {'scalar':>10s} {'batched':>10s} {'speedup':>9s}")

    records = {}
    for name, protocol in protocol_zoo(mean_fanout=4, rounds=8):

        def run_scalar() -> float:
            rng = np.random.default_rng(123)
            network = NetworkModel(loss_probability=loss)
            start = time.perf_counter()
            for _ in range(repetitions):
                reference.run(protocol, n, q, seed=rng, network=network)
            return time.perf_counter() - start

        def run_batch() -> float:
            network = NetworkModel(loss_probability=loss)
            start = time.perf_counter()
            simulate_protocol_batch(
                protocol, n, q, repetitions=repetitions, seed=123, network=network
            )
            return time.perf_counter() - start

        # The scalar loop is the expensive side: one timing suffices; the
        # batched engine takes best-of-3 so a hiccup cannot decide the race.
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
        "benchmark": "loss_head_to_head",
        "n": n,
        "repetitions": repetitions,
        "q": q,
        "loss_probability": loss,
        "scale": scale,
        "protocols": records,
    }
    record_path = os.environ.get("REPRO_BENCH_RECORD_LOSS", "BENCH_loss.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"perf record written to {record_path}")

    floor = 10.0 if scale >= 0.99 else 1.5
    for name, row in records.items():
        assert row["speedup"] >= floor, (
            f"{name}: batched lossy engine only {row['speedup']:.1f}x faster "
            f"(floor {floor}x at scale {scale})"
        )
