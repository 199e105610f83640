"""Monte-Carlo runner and parameter sweeps.

This is the driver behind the paper's Figs. 4-5 protocol: "For each pair of
{f, q}, we run our gossiping algorithm 20 times and report the average
results of the reliability of gossiping."  :func:`estimate_reliability`
handles one ``(distribution, q)`` pair; :func:`reliability_sweep` handles the
full grid and returns a tidy result object the experiment drivers and
benchmarks render into tables.

The default engine is the **batched** simulator
(:func:`repro.simulation.gossip.simulate_gossip_batch`): all repetitions of a
parameter pair advance together as ``(R, n)`` masks, so a whole estimate
costs a handful of numpy passes.  ``engine="scalar"`` falls back to the
per-replica reference simulator.

The repetitions of one pair are split into *chunked replica batches* whose
layout is a function of ``n`` and ``repetitions`` alone: a chunk holds up to
``max(8, 2**17 // n)`` replicas, so the paper's 20 replicas run as one batch
at ``n <= 6553`` (Figs. 4 and 5), while every ``n >= 16384`` keeps 8-replica
chunks and the memory and numbers those gave.  A pool runs the chunks of one
pair side by side; :func:`reliability_sweep` maps whole cells over the pool
instead.  Worker inputs are plain picklable tuples of integers/floats so the
pool never has to ship generator state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.distributions import FanoutDistribution, PoissonFanout
from repro.core.reliability import reliability as analytical_reliability
from repro.simulation.gossip import simulate_gossip_batch, simulate_gossip_once
from repro.simulation.membership import MembershipView
from repro.simulation.metrics import (
    ExecutionMetrics,
    ReliabilityEstimate,
    summarize_executions,
)
from repro.utils.parallel import parallel_map
from repro.utils.rng import SeedLike, as_generator, spawn_seeds
from repro.utils.validation import check_choice, check_integer, check_probability

__all__ = ["estimate_reliability", "reliability_sweep", "SweepResult", "SweepPoint"]

#: ``(replica, member)`` cell budget of one replica chunk: a chunk holds up to
#: ``max(8, _CHUNK_CELLS // n)`` replicas.  The floor of 8 keeps the layout,
#: memory and numbers of every ``n >= 16384`` as fixed 8-replica chunks gave.
_CHUNK_CELLS = 1 << 17


def _run_replica_batch(
    args: tuple[int, FanoutDistribution, float, int, int, int],
) -> list[tuple]:
    """Process-pool worker: run one chunk of replicas through the batched engine.

    Returns one ``(n_alive, n_reached_alive, reliability, rounds, messages,
    duplicates, success, spread)`` tuple per replica.
    """
    n, distribution, q, source, seed, repetitions = args
    result = simulate_gossip_batch(
        n, distribution, q, repetitions=repetitions, source=source, seed=seed
    )
    return [
        (
            m.n_alive,
            m.n_reached_alive,
            m.reliability,
            m.rounds,
            m.messages_sent,
            m.duplicates,
            m.success,
            m.spread,
        )
        for m in result.metrics()
    ]


def _run_sweep_cell(
    args: tuple[int, FanoutDistribution, float, int, int, bool, str],
) -> ReliabilityEstimate:
    """Process-pool worker: one sweep cell, estimated serially where it runs.

    Calls :func:`estimate_reliability` through this module's binding, so a
    wrapper installed there (a timer, a tracer) sees every in-process cell.
    """
    n, distribution, q, repetitions, seed, conditional_on_spread, engine = args
    return estimate_reliability(
        n,
        distribution,
        q,
        repetitions=repetitions,
        seed=seed,
        processes=1,
        conditional_on_spread=conditional_on_spread,
        engine=engine,
    )


def _run_one_replica(
    args: tuple[int, FanoutDistribution, float, int, int],
) -> tuple[int, int, float, int, int, int, bool, bool]:
    """Process-pool worker: run one scalar execution and return flat metrics.

    Returns ``(n_alive, n_reached_alive, reliability, rounds, messages,
    duplicates, success, spread)``.  Kept for the ``engine="scalar"``
    reference path.
    """
    n, distribution, q, source, seed = args
    execution = simulate_gossip_once(n, distribution, q, source=source, seed=seed)
    return (
        execution.n_alive(),
        execution.n_delivered(),
        execution.reliability(),
        execution.rounds,
        execution.messages_sent,
        execution.duplicates,
        execution.is_success(1.0),
        execution.spread_occurred(),
    )


def estimate_reliability(
    n: int,
    distribution: FanoutDistribution,
    q: float,
    *,
    repetitions: int = 20,
    source: int = 0,
    seed: SeedLike = None,
    membership: MembershipView | None = None,
    processes: int | None = 1,
    conditional_on_spread: bool = False,
    engine: str = "batch",
) -> ReliabilityEstimate:
    """Estimate ``R(q, P)`` by averaging ``repetitions`` independent executions.

    Parameters
    ----------
    repetitions:
        Number of independent executions (paper: 20 per parameter pair).
    processes:
        Worker processes.  The default of 1 runs in the calling process;
        values > 1 (or ``None`` for auto) run the chunks over a pool.  With
        the default full membership view the repetitions are *always* split
        into the same chunked replica batches, a function of ``n`` and
        ``repetitions`` alone: up to ``max(8, 2**17 // n)`` replicas per
        chunk, so 20 replicas are one batch at ``n <= 6553``, and the floor
        of 8 keeps the layout, memory and numbers of ``n >= 16384``.
        Each chunk is seeded by one spawned child seed, so at a fixed seed
        every ``processes`` setting — ``1``, ``None``, or any worker count —
        produces bit-identical numbers.  Partial membership views are not
        shipped to workers and therefore force serial execution.
    conditional_on_spread:
        When True, average only over executions whose dissemination took off
        (delivered more than ``max(10, sqrt(n))`` members).  Single
        executions are bimodal — either the gossip dies out within a few hops
        or it reaches ~R(q, P) of the group — and the paper's analytical
        reliability (the giant-component size) corresponds to the conditional
        branch; the Figs. 4-5 reproduction therefore enables this flag.  The
        unconditional default reports the plain average, and ``spread_rate``
        records how often the gossip took off either way.
    engine:
        ``"batch"`` (default) propagates all replicas simultaneously through
        :func:`simulate_gossip_batch`; ``"scalar"`` runs the per-replica
        reference simulator (slower, kept for equivalence checks).
    """
    n = check_integer("n", n, minimum=2)
    q = check_probability("q", q)
    repetitions = check_integer("repetitions", repetitions, minimum=1)
    engine = check_choice("engine", engine, ("batch", "scalar"))

    def _summarize(executions: list[ExecutionMetrics]) -> ReliabilityEstimate:
        return summarize_executions(
            executions,
            n=n,
            q=q,
            mean_fanout=distribution.mean(),
            conditional_on_spread=conditional_on_spread,
        )

    if membership is not None:
        # Partial views are not shipped to workers: run serially.  There is
        # no parallel twin of this path, so no seed-layout split to guard.
        if engine == "scalar":
            rng = as_generator(seed)
            return _summarize(
                [
                    simulate_gossip_once(
                        n, distribution, q, source=source, seed=rng, membership=membership
                    ).metrics()
                    for _ in range(repetitions)
                ]
            )
        result = simulate_gossip_batch(
            n,
            distribution,
            q,
            repetitions=repetitions,
            source=source,
            seed=seed,
            membership=membership,
        )
        return _summarize(result.metrics())

    if engine == "scalar":
        # One spawned seed per replica regardless of `processes`; the pool
        # only changes *where* a replica runs, never which stream it reads,
        # so processes=None / 1 / k are bit-identical at a fixed seed.
        seeds = spawn_seeds(repetitions, seed)
        work = [(n, distribution, q, source, s) for s in seeds]
        rows = parallel_map(_run_one_replica, work, processes=processes)
        return _summarize(
            [
                ExecutionMetrics(
                    n=n,
                    n_alive=row[0],
                    n_reached_alive=row[1],
                    reliability=row[2],
                    rounds=row[3],
                    messages_sent=row[4],
                    duplicates=row[5],
                    success=row[6],
                    spread=row[7],
                )
                for row in rows
            ]
        )

    # Chunked replica batches: one task per chunk, not per replica.  Chunk
    # count and per-chunk seeds depend only on `n`, `repetitions` and `seed`
    # — never on `processes` or the host core count — so the serial spelling
    # (processes=1), the auto spelling (processes=None), and any explicit
    # pool size reproduce exactly the same numbers at a fixed seed.
    n_chunks = max(1, -(-repetitions // max(8, _CHUNK_CELLS // n)))
    chunk_sizes = [len(c) for c in np.array_split(np.arange(repetitions), n_chunks)]
    seeds = spawn_seeds(n_chunks, seed)
    work = [
        (n, distribution, q, source, s, size)
        for s, size in zip(seeds, chunk_sizes, strict=True)
        if size > 0
    ]
    chunks = parallel_map(_run_replica_batch, work, processes=processes, serial_threshold=1)
    executions = [
        ExecutionMetrics(
            n=n,
            n_alive=row[0],
            n_reached_alive=row[1],
            reliability=row[2],
            rounds=row[3],
            messages_sent=row[4],
            duplicates=row[5],
            success=row[6],
            spread=row[7],
        )
        for chunk in chunks
        for row in chunk
    ]
    return _summarize(executions)


@dataclass(frozen=True)
class SweepPoint:
    """One cell of a reliability sweep: a ``(mean fanout, q)`` pair with results."""

    mean_fanout: float
    q: float
    simulated: float
    simulated_std: float
    analytical: float
    repetitions: int

    def absolute_error(self) -> float:
        """Return ``|simulated − analytical|``."""
        return abs(self.simulated - self.analytical)


@dataclass
class SweepResult:
    """Results of a full (fanout × q) reliability sweep.

    The points are stored in row-major order (q varies slowest); accessors
    return the per-``q`` series used to draw the paper's Figs. 4-5.
    """

    n: int
    fanouts: tuple
    qs: tuple
    points: list = field(default_factory=list)

    def series_for_q(self, q: float) -> list[SweepPoint]:
        """Return the sweep points of one ``q`` series, ordered by fanout."""
        matches = [p for p in self.points if abs(p.q - q) < 1e-12]
        return sorted(matches, key=lambda p: p.mean_fanout)

    def max_absolute_error(self) -> float:
        """Return the worst analysis-vs-simulation gap across the sweep."""
        return max((p.absolute_error() for p in self.points), default=0.0)

    def mean_absolute_error(self) -> float:
        """Return the average analysis-vs-simulation gap across the sweep."""
        if not self.points:
            return 0.0
        return float(np.mean([p.absolute_error() for p in self.points]))

    def to_rows(self) -> list[tuple]:
        """Return ``(fanout, q, simulated, analytical, |error|)`` rows for tables."""
        return [
            (p.mean_fanout, p.q, p.simulated, p.analytical, p.absolute_error())
            for p in self.points
        ]


def reliability_sweep(
    n: int,
    fanouts: Sequence[float],
    qs: Sequence[float],
    *,
    repetitions: int = 20,
    distribution_factory: Callable[[float], FanoutDistribution] = PoissonFanout,
    seed: SeedLike = None,
    processes: int | None = 1,
    conditional_on_spread: bool = False,
    engine: str = "batch",
) -> SweepResult:
    """Sweep reliability over a (mean fanout × nonfailed ratio) grid.

    This reproduces the Figs. 4-5 protocol.  ``distribution_factory`` maps a
    mean fanout to a distribution instance (default Poisson); the analytical
    column uses the same distribution so the comparison is apples-to-apples.
    ``conditional_on_spread`` and ``engine`` are forwarded to
    :func:`estimate_reliability`.  ``processes`` maps whole cells over a
    pool, each estimated serially; the pool size never changes a number.
    """
    n = check_integer("n", n, minimum=2)
    fanouts = tuple(float(f) for f in fanouts)
    qs = tuple(float(check_probability("q", q)) for q in qs)
    rng = as_generator(seed)

    # One spawned child seed per grid cell, drawn in cell order before any
    # cell runs.  Each cell's chunk layout is fixed by (n, repetitions), so
    # serial (1), auto (None) and explicit pool sizes all give the same
    # numbers at a fixed seed.
    cells = [(fanout, q, distribution_factory(fanout)) for q in qs for fanout in fanouts]
    tasks = [
        (n, dist, q, repetitions, spawn_seeds(1, rng)[0], conditional_on_spread, engine)
        for _, q, dist in cells
    ]
    estimates = parallel_map(_run_sweep_cell, tasks, processes=processes)
    result = SweepResult(n=n, fanouts=fanouts, qs=qs)
    for (fanout, q, dist), estimate in zip(cells, estimates, strict=True):
        result.points.append(
            SweepPoint(
                mean_fanout=fanout,
                q=q,
                simulated=estimate.mean_reliability,
                simulated_std=estimate.std_reliability,
                analytical=analytical_reliability(dist, q),
                repetitions=repetitions,
            )
        )
    return result
