"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig5_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics: set-up is repeated
:data:`SETUPS` times, then passes of the workload (pass ``i`` seeded from
``--seed`` and ``i``) run until ``--seconds`` of wall time have elapsed.
Every measured duration reads the process CPU clock (see ``workloads.clock``
for why).  ``--trace 1``
measures the per-layer metrics instead: one traced set-up, untraced passes 0
and 1, and pass 0 twice more with tracing on; the three runs of pass 0 must
agree exactly.  Either way
every output is checked, a human-readable report is printed, and the last
line of standard output is one JSON object::

    {"correct": true, "attempted": 30004, "failed": 0, "metrics": {...}}

The exit code is 0 when every check passed, 1 when one failed and 2 when the
benchmark cannot run here (no ``src/repro`` next to it, or a metric set that
disagrees with ``BENCHMARK.json``).  ``--workload all`` runs each workload in
its own child process, one after the other.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time
from typing import Any

from tracer import PROTOCOL_IDS, SITES, MethodSite, Snapshot, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUPS = 3

#: Span-name prefixes that must see no calls on each workload: the layers the
#: workload is chosen not to exercise, so an optimisation there predicts no
#: change on it.
IDLE_LAYERS: dict[str, tuple[str, ...]] = {
    "fig5_sweep": (
        "network.", "churn.", "latency.", "protocols.", "protocol_batch", "group_targets",
        "failures", "dimensioning", "surface.", "query", "serve",
    ),
    "zoo_planes": ("runner", "dimensioning", "surface.", "query", "serve"),
    "dimensioning_service": ("churn.",),
}

#: The in-process client's own work (making requests, checking responses) is a
#: span of its own, so that it is not booked to ``serve.self_s``.
CLIENT_SITES = tuple(MethodSite("client", "workloads", "ClosedLoopClient", method)
                     for method in ("request", "answer"))

Metrics = dict[str, tuple[float, str, str]]  # name -> (value, unit, sample note)


def calibrate(repeats: int = 5) -> float:
    """Median seconds of a fixed kernel: a sort, a bincount and ``Generator.integers``.

    No code change can move it, so it is recorded beside the metrics to put
    records from different machines on one scale.
    """
    import numpy as np

    data = np.random.default_rng(1).random(1_000_000)
    keys = np.random.default_rng(2).integers(0, 4096, size=1_000_000)
    times = []
    for _ in range(repeats):
        start = process_time()
        np.sort(data)
        np.bincount(keys, minlength=4096)
        np.random.default_rng(3).integers(0, 5000, size=1_000_000)
        times.append(process_time() - start)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ metrics


def end_to_end(passes: list[Any], setups_s: list[float], import_s: float) -> Metrics:
    """The end-to-end metrics of an untraced run."""
    solve = [p.solve_s for p in passes]
    replicas = sum(p.replicas for p in passes)
    requests = sum(p.requests for p in passes)
    per_pass = f"median of n={len(passes)} passes, {requests} requests"
    return {
        "setup_s": (
            import_s + statistics.median(setups_s), "s",
            f"imports {import_s:.3f} s once + median of n={len(setups_s)} set-ups",
        ),
        "replicas_per_s": (
            replicas / sum(solve), "1/s", f"{replicas} replicas over n={len(passes)} passes",
        ),
        "solve_s": (statistics.median(solve), "s", f"median of n={len(passes)} passes"),
        "req_per_s": (
            requests / sum(p.request_s for p in passes), "1/s", f"n={requests} requests",
        ),
        "req_p50_us": (statistics.median(p.p50_s for p in passes) * 1e6, "us", per_pass),
        "req_p99_us": (statistics.median(p.p99_s for p in passes) * 1e6, "us", per_pass),
        "peak_rss_mb": (peak_rss_mb(), "MB", "1 process"),
    }


def stream_report(results: list[Any]) -> list[str]:
    """Report lines on the served stream: the share of each kind, the cache hit ratio."""
    totals: Counter[str] = Counter()
    for result in results:
        totals.update(result.stats)
    kinds = {k.removeprefix("kind."): v for k, v in totals.items() if k.startswith("kind.")}
    if not kinds:
        return []
    served = sum(kinds.values())
    hits, misses = totals["hits"], totals["misses"]
    shares = "  ".join(f"{kind} {count / served:.4f}"
                       for kind, count in sorted(kinds.items(), key=lambda kv: -kv[1]))
    return [
        f"{'request mix':<32} {shares}  (n={served} requests; an assumed mix, "
        "not measured traffic)",
        f"{'query cache':<32} hit ratio {hits / max(hits + misses, 1):.4f}  "
        f"({hits} hits, {misses} misses, {totals['evictions']} evictions)",
    ]


def per_layer(setup: Snapshot, run: Snapshot, stats: dict[str, int], overhead: float
              ) -> Metrics:
    """The per-layer metrics of a traced run (``*_s`` are self times)."""

    def self_s(span: str) -> tuple[float, str, str]:
        return (run.self_s.get(span, 0.0), "s", f"n={run.calls.get(span, 0)} calls")

    def count(value: int) -> tuple[float, str, str]:
        return (value, "count", "exact")

    def ratio(num: float, den: float) -> tuple[float, str, str]:
        return (num / den if den else 0.0, "ratio", f"{num}/{den}")

    n = run.counts.get
    hits, misses = stats.get("hits", 0), stats.get("misses", 0)
    metrics: Metrics = {
        "runner.self_s": self_s("runner"),
        "runner.engine_calls": count(run.edge_calls.get(("runner", "gossip"), 0)),
        "core.reliability_s": self_s("core.reliability"),
        "gossip.self_s": self_s("gossip"),
        "gossip.calls": count(run.calls.get("gossip", 0)),
        "gossip.replicas": count(n("gossip.replicas", 0)),
        "gossip.messages": count(n("gossip.messages", 0)),
        "gossip.fresh_ratio": ratio(n("gossip.fresh", 0), n("gossip.messages", 0)),
        "distributions.self_s": self_s("distributions"),
        "distributions.draws": count(n("distributions.draws", 0)),
        "membership.self_s": self_s("membership"),
        "sampling.self_s": self_s("sampling"),
        "sampling.slots": count(n("sampling.slots", 0)),
        "sampling.fill_ratio": ratio(n("sampling.slots", 0), n("sampling.cells", 0)),
        "group_targets.self_s": self_s("group_targets"),
        "protocol_batch.self_s": self_s("protocol_batch"),
        "failures.self_s": self_s("failures"),
    }
    for protocol_id in PROTOCOL_IDS:
        metrics[f"protocols.{protocol_id}.self_s"] = self_s(f"protocols.{protocol_id}")
    engine_s = sum(run.edge_s.get(("dimensioning", span), 0.0)
                   for span in ("gossip", "protocol_batch"))
    metrics.update({
        "protocols.messages": count(n("protocols.messages", 0)),
        "protocols.control_share": ratio(n("protocols.control", 0), n("protocols.messages", 0)),
        "protocols.delivered_per_msg": ratio(
            n("protocols.delivered", 0), n("protocols.messages", 0)),
        "network.loss_s": self_s("network.loss"),
        "network.sends": count(n("network.sends", 0)),
        "network.drop_ratio": ratio(n("network.dropped", 0), n("network.sends", 0)),
        "network.latency_draw_s": self_s("network.latency_draw"),
        "network.latency_draws": count(n("network.latency_draws", 0)),
        "churn.draw_s": self_s("churn.draw"),
        "churn.mask_s": self_s("churn.mask"),
        "latency.schedule_s": self_s("latency.schedule"),
        "latency.scheduled": count(n("latency.scheduled", 0)),
        "latency.record_s": self_s("latency.record"),
        "latency.finalize_s": self_s("latency.finalize"),
        "dimensioning.self_s": self_s("dimensioning"),
        "dimensioning.engine_s": (engine_s, "s", "engine spans inside solves"),
        "dimensioning.replicas_used": count(n("dimensioning.replicas_used", 0)),
        "dimensioning.evaluations": count(n("dimensioning.evaluations", 0)),
        "surface.build_s": (setup.total_s.get("surface.build", 0.0), "s", "set-up, inclusive"),
        "surface.cells": count(setup.counts.get("surface.cells", 0)),
        "surface.load_s": (setup.total_s.get("surface.load", 0.0), "s", "set-up, inclusive"),
        "query.self_s": self_s("query"),
        "query.calls": count(run.calls.get("query", 0)),
        "query.cache_hits": count(hits),
        "query.cache_misses": count(misses),
        "query.cache_hit_ratio": ratio(hits, hits + misses),
        "query.evictions": count(stats.get("evictions", 0)),
        "serve.self_s": self_s("serve"),
        "serve.dimension_s": self_s("serve.dimension"),
        "serve.pareto_s": self_s("serve.pareto"),
        "trace.overhead": (overhead, "ratio", "traced pass / untraced pass - 1"),
    })
    return metrics


# -------------------------------------------------------------------- runs


def run_untraced(workload: Any, args: argparse.Namespace, workdir: Path, import_s: float
                 ) -> tuple[Metrics, list[Any]]:
    """Set up :data:`SETUPS` times, then run passes for ``--seconds``; return the metrics."""
    setups_s = []
    for _ in range(SETUPS):
        start = process_time()
        workload.setup(args.seed, workdir)
        setups_s.append(process_time() - start)
    passes = []
    start = perf_counter()  # the run lasts --seconds of wall time
    while not passes or perf_counter() - start < args.seconds:
        passes.append(workload.run_pass(len(passes)))
    print(f"digest               sha256:{passes[0].digest.hexdigest()}  "
          f"(pass 0, {passes[0].outputs} lines)")
    return end_to_end(passes, setups_s, import_s), [*passes, workload.finish(passes)]


def run_traced(workload: Any, args: argparse.Namespace, workdir: Path, checks: Any
               ) -> tuple[Metrics, list[Any]]:
    """Traced set-up, untraced passes 0 and 1, traced pass 0 twice; per-layer metrics.

    Pass 1 only widens the evidence of :meth:`Workload.finish`; the traced
    passes repeat pass 0, whose digest all three must reproduce.
    """
    tracer = Tracer()
    sites = (*SITES, *CLIENT_SITES)
    with tracer.installed(sites):
        workload.setup(args.seed, workdir)
    setup = tracer.snapshot()
    tracer.reset()

    other = workload.run_pass(1)  # first, so that pass 0 is timed as warm as the traced ones
    start = process_time()
    plain = workload.run_pass(0)
    plain_s = process_time() - start
    traced = []
    with tracer.installed(sites):
        for _ in range(2):
            start = process_time()
            result = workload.run_pass(0)
            traced.append((result, tracer.snapshot(), process_time() - start))
            tracer.reset()

    (first, snap, first_s), (second, snap2, second_s) = traced
    digests = {p.digest.hexdigest() for p in (plain, first, second)}
    checks.check(len(digests) == 1, f"output digests differ across passes: {sorted(digests)}")
    checks.check(snap.exact() == snap2.exact() and first.stats == second.stats,
                 "two traced passes at one seed disagree on call counts or counters")
    for prefix in IDLE_LAYERS[workload.name]:
        busy = sorted(name for s in (setup, snap) for name, calls in s.calls.items()
                      if name.startswith(prefix) and calls)
        checks.check(not busy, f"layer {prefix!r} must see no calls but {busy} did")
    print(f"digest               sha256:{digests.pop()}  (pass 0, traced and untraced)")
    overhead = statistics.median([first_s, second_s]) / plain_s - 1.0
    return per_layer(setup, snap, first.stats, overhead), [
        plain, other, first, second, checks, workload.finish([plain, other])]


def run_workload(args: argparse.Namespace, declared: list[dict]) -> int:
    sys.path.insert(0, str(SRC))
    start = process_time()
    workloads = importlib.import_module("workloads")
    import_s = process_time() - start
    workload = workloads.WORKLOADS[args.workload]()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"calibration_s        {calibrate():.6f} s  (median of 5 kernel runs)")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if args.trace:
            metrics, results = run_traced(workload, args, Path(tmp), workloads.PassResult())
        else:
            metrics, results = run_untraced(workload, args, Path(tmp), import_s)

    units = {m["name"]: m["unit"] for m in declared}
    got = {name: unit for name, (_, unit, _) in metrics.items()}
    if got != units:
        print(f"error: metrics {got} disagree with BENCHMARK.json {units}", file=sys.stderr)
        return 2
    for name, (value, unit, note) in metrics.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"{name:<32} {shown} {unit:<6} {note}")
    for line in stream_report(results):
        print(line)
    failures = [message for result in results for message in result.failures]
    attempted = sum(result.attempted for result in results)
    for message in failures[:20]:
        print(f"FAILED: {message}")
    failed = len(failures)
    print(f"error_rate           {failed / attempted:.6f}  ({failed}/{attempted} ops failed)")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 1 if failed else 0


def run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Run every workload in its own child process; summarise them in one JSON line.

    A child whose last line is not a result (it crashed, or could not run)
    counts as one failed operation, and the next workload still runs.
    """
    metrics: dict[str, Any] = {}
    attempted = failed = 0
    code = 0
    for name in names:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        code = max(code, child.returncode)
        try:
            result = json.loads(child.stdout.strip().splitlines()[-1])
            counts = (int(result["attempted"]), int(result["failed"]))
            metrics.update({f"{name}.{m}": v for m, v in result["metrics"].items()})
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            print(f"error: workload {name} printed no result line", file=sys.stderr)
            code = max(code, 1)
            counts = (1, 1)
        attempted += counts[0]
        failed += counts[1]
    print(json.dumps({"correct": code == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return code


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro").is_dir() or not spec_path.is_file():
        print(f"error: {SRC / 'repro'} or {spec_path} not found; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args, names)
    return run_workload(args, spec["per_layer" if args.trace else "end_to_end"])


if __name__ == "__main__":
    sys.exit(main())
