"""Benchmarks of the dynamic-membership (churn) plane.

Two measurements, both emitted into a ``BENCH_churn.json`` perf record
(path overridable via ``REPRO_BENCH_RECORD_CHURN``) for the CI
regression gate:

* ``test_hyparview_head_to_head`` races the HyParView-style peer-sampling
  protocol's scalar oracle (:func:`tests.reference.scalar_protocols.run`
  looped over the replicas) against the batched engine
  (:func:`repro.simulation.protocol_batch.simulate_protocol_batch`) at zero
  churn.  The scalar hook maintains every member's active/passive views in a
  python loop, so this is the zoo's most view-heavy head-to-head; at full
  scale the batched path must be >= 10x faster (1.5x on scaled smoke runs).
* ``test_churn_plane_overhead`` measures what turning churn ON costs the
  batched engine: the same seeded workload with ``churn=None`` versus a
  ``PoissonChurnModel`` at 5% leave/join rates.  The recorded ratio is
  ``static_seconds / churn_seconds`` (the fraction of static throughput the
  churn-aware path retains), so a regression that bloats the per-round
  presence masking shows up as the ratio falling — exactly what the
  ``check_regression.py`` gate watches.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from _bench_utils import bench_scale, print_banner, scaled

from repro.experiments.protocol_comparison import protocol_zoo
from repro.protocols.hyparview import HyParViewProtocol
from repro.simulation.churn import PoissonChurnModel
from repro.simulation.protocol_batch import simulate_protocol_batch
from tests.reference import scalar_protocols as reference

#: Shared perf record, filled by both tests and rewritten after each.
_RECORD: dict = {"benchmark": "churn_plane"}


def _write_record() -> str:
    record_path = os.environ.get("REPRO_BENCH_RECORD_CHURN", "BENCH_churn.json")
    with open(record_path, "w") as fh:
        json.dump(_RECORD, fh, indent=2)
        fh.write("\n")
    return record_path


def test_hyparview_head_to_head():
    """Scalar per-member view maintenance vs the batched hook (zero churn)."""
    scale = bench_scale()
    n = scaled(2000, 300, scale)
    repetitions = scaled(20, 8, scale)
    q = 0.9
    protocol = HyParViewProtocol(fanout=4, rounds=8, active_size=8, passive_size=30)

    print_banner(
        f"HyParView head-to-head — n={n}, {repetitions} replicas, q={q}, zero churn"
    )

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

    # The scalar loop is the expensive side: one timing suffices; the
    # batched engine takes best-of-3 so a hiccup cannot decide the race.
    scalar_seconds = run_scalar()
    batch_seconds = min(run_batch() for _ in range(3))
    speedup = scalar_seconds / batch_seconds
    print(
        f"{'hyparview':14s} scalar {scalar_seconds * 1000:8.1f}ms   "
        f"batched {batch_seconds * 1000:8.1f}ms   {speedup:8.1f}x"
    )

    _RECORD.update(
        n=n,
        repetitions=repetitions,
        q=q,
        scale=scale,
        hyparview={
            "scalar_seconds": scalar_seconds,
            "batch_seconds": batch_seconds,
            "speedup": speedup,
        },
    )
    record_path = _write_record()
    print(f"perf record written to {record_path}")

    floor = 10.0 if scale >= 0.99 else 1.5
    assert speedup >= floor, (
        f"hyparview: batched hook only {speedup:.1f}x faster than the scalar "
        f"reference (floor {floor}x at scale {scale})"
    )


def test_churn_plane_overhead():
    """Batched engine with churn=None vs a 5% Poisson churn plane."""
    scale = bench_scale()
    n = scaled(2000, 300, scale)
    repetitions = scaled(20, 8, scale)
    q = 0.9
    churn = PoissonChurnModel(leave_rate=0.05, join_rate=0.05, initially_absent=0.1)

    print_banner(
        f"Churn-plane overhead — n={n}, {repetitions} replicas, q={q}, "
        f"Poisson leave/join 5%"
    )
    print(f"{'protocol':14s} {'static':>10s} {'churned':>10s} {'retained':>9s}")

    rows = {}
    zoo = protocol_zoo(mean_fanout=4, rounds=8, include_peer_sampling=True)
    for name, protocol in zoo:

        def run_static() -> float:
            start = time.perf_counter()
            simulate_protocol_batch(protocol, n, q, repetitions=repetitions, seed=123)
            return time.perf_counter() - start

        def run_churned() -> float:
            start = time.perf_counter()
            simulate_protocol_batch(
                protocol, n, q, repetitions=repetitions, seed=123, churn=churn
            )
            return time.perf_counter() - start

        static_seconds = min(run_static() for _ in range(3))
        churn_seconds = min(run_churned() for _ in range(3))
        # "speedup" here is the retained-throughput ratio static/churned; the
        # regression gate flags it falling, i.e. the churn plane getting
        # relatively more expensive.
        retained = static_seconds / churn_seconds
        rows[name] = {
            "static_seconds": static_seconds,
            "churn_seconds": churn_seconds,
            "speedup": retained,
        }
        print(
            f"{name:14s} {static_seconds * 1000:8.1f}ms {churn_seconds * 1000:8.1f}ms "
            f"{retained:8.2f}x"
        )

    _RECORD["churn_overhead"] = rows
    record_path = _write_record()
    print(f"perf record written to {record_path}")

    # The churn plane must stay a bounded-overhead feature: with fewer live
    # members each round the churned run can even be *faster*, but it must
    # never cost more than ~10x the static path for any protocol.
    for name, row in rows.items():
        assert row["speedup"] >= 0.1, (
            f"{name}: churn plane costs {1.0 / row['speedup']:.1f}x the static "
            f"path (bound 10x)"
        )
