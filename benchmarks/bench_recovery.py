"""Benchmarks of the two-phase recovery protocols (lazy-push, anti-entropy).

Both measurements race the scalar oracle
(:func:`tests.reference.scalar_protocols.run` looped over the replicas)
against the batched array program
(:func:`repro.simulation.protocol_batch.simulate_protocol_batch`) under a
moderately lossy channel — the regime the recovery plane exists for, and
the one that stresses its extra legs (IHAVE digests, IWANT round trips,
push-pull transfers).  The per-protocol **speedup ratios** land in a
``BENCH_recovery.json`` perf record (path overridable via
``REPRO_BENCH_RECORD_RECOVERY``) for the CI regression gate.

The scalar sides are per-member python loops with per-burst loss draws, so
at full scale the batched hooks must be >= 10x faster (1.5x on scaled
smoke runs, where fixed per-call overheads dominate).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from _bench_utils import bench_scale, print_banner, scaled

from repro.protocols import AntiEntropyProtocol, LazyPushProtocol
from repro.simulation.network import NetworkModel
from repro.simulation.protocol_batch import simulate_protocol_batch
from tests.reference import scalar_protocols as reference

#: Shared perf record, filled per protocol and rewritten after each.
_RECORD: dict = {"benchmark": "recovery_protocols"}


def _write_record() -> str:
    record_path = os.environ.get("REPRO_BENCH_RECORD_RECOVERY", "BENCH_recovery.json")
    with open(record_path, "w") as fh:
        json.dump(_RECORD, fh, indent=2)
        fh.write("\n")
    return record_path


def _head_to_head(name: str, protocol, *, loss: float) -> None:
    scale = bench_scale()
    n = scaled(2000, 300, scale)
    repetitions = scaled(20, 8, scale)
    q = 0.9

    print_banner(
        f"{name} head-to-head — n={n}, {repetitions} replicas, q={q}, loss={loss}"
    )

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
    print(
        f"{name:14s} scalar {scalar_seconds * 1000:8.1f}ms   "
        f"batched {batch_seconds * 1000:8.1f}ms   {speedup:8.1f}x"
    )

    _RECORD.update(n=n, repetitions=repetitions, q=q, loss=loss, scale=scale)
    _RECORD[name] = {
        "scalar_seconds": scalar_seconds,
        "batch_seconds": batch_seconds,
        "speedup": speedup,
    }
    record_path = _write_record()
    print(f"perf record written to {record_path}")

    floor = 10.0 if scale >= 0.99 else 1.5
    assert speedup >= floor, (
        f"{name}: batched hook only {speedup:.1f}x faster than the scalar "
        f"reference (floor {floor}x at scale {scale})"
    )


def test_lazy_push_head_to_head():
    """Scalar IHAVE/IWANT recovery vs the batched hook under 25% loss."""
    _head_to_head(
        "lazy-push",
        LazyPushProtocol(fanout=4, rounds=12, eager_threshold=0.4, retry_budget=10),
        loss=0.25,
    )


def test_anti_entropy_head_to_head():
    """Scalar push-pull reconciliation vs the batched hook under 25% loss."""
    _head_to_head(
        "anti-entropy",
        AntiEntropyProtocol(fanout=2, rounds=12),
        loss=0.25,
    )
