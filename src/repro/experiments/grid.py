"""One runner for the protocol-grid experiments.

``protocol_comparison``, ``loss_resilience``, ``churn_resilience``,
``recovery_resilience`` and ``latency_profile`` each measure an ordered list
of :class:`Cell` s: one protocol at one nonfailed ratio ``q`` under one
network, churn and failure model.  An experiment builds its cells and
reduces each cell's batched result into its own point type;
:func:`run_grid` runs the cells, and :class:`GridResult` gives every result
the same lookups and table.

Seeding: the grid seed spawns one seed per cell, in cell order, and each
cell runs as one :func:`~repro.simulation.protocol_batch.simulate_protocol_batch`
batch of ``repetitions`` replicas seeded by that seed's single child.  The
process pool maps whole cells, so its size never changes a number.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, ClassVar, Generic, Protocol, TypeVar

import numpy as np

from repro.protocols.base import Protocol as GossipProtocol
from repro.simulation.churn import ChurnModel
from repro.simulation.failures import FailureModel
from repro.simulation.network import NetworkModel
from repro.simulation.protocol_batch import BatchProtocolResult, simulate_protocol_batch
from repro.utils.parallel import parallel_map
from repro.utils.rng import spawn_seeds
from repro.utils.tables import format_table

__all__ = ["Cell", "GridConfig", "GridPoint", "GridResult", "drop_rate", "mean_std", "run_grid"]


class GridConfig(Protocol):
    """What :func:`run_grid` reads of an experiment's configuration."""

    @property
    def n(self) -> int: ...

    @property
    def repetitions(self) -> int: ...

    @property
    def seed(self) -> int: ...

    @property
    def processes(self) -> int | None: ...


class GridPoint(Protocol):
    """What :class:`GridResult` reads of every point."""

    @property
    def protocol(self) -> str: ...


ConfigT = TypeVar("ConfigT", bound=GridConfig)
PointT = TypeVar("PointT", bound=GridPoint)


@dataclass(frozen=True)
class Cell:
    """One grid cell: a protocol at one ``q`` under its own planes.

    ``key`` holds the experiment's own coordinates of the cell (a loss
    probability, a churn rate, a channel label, ...) for its reduction.
    Every model is the cell's own instance: network models carry counters
    and burst state.
    """

    protocol_id: str
    protocol: GossipProtocol
    q: float
    key: tuple[Any, ...] = ()
    network: NetworkModel | None = None
    churn: ChurnModel | None = None
    failure_model: FailureModel | None = None
    round_period: float = 1.0


#: Reduces one cell's batch into the experiment's point; a module-level
#: function, so the process pool can pickle it.
Reduce = Callable[[ConfigT, Cell, BatchProtocolResult], PointT]


def run_grid(
    config: ConfigT, cells: Sequence[Cell], reduce: Reduce[ConfigT, PointT]
) -> tuple[PointT, ...]:
    """Run every cell as one seeded batch; return its reduced point, in cell order."""
    seeds = spawn_seeds(len(cells), config.seed)
    tasks = [
        (reduce, config, cell, spawn_seeds(1, seed)[0])
        for cell, seed in zip(cells, seeds, strict=True)
    ]
    return tuple(parallel_map(_run_cell, tasks, processes=config.processes, serial_threshold=1))


def _run_cell(task: tuple[Reduce[ConfigT, PointT], ConfigT, Cell, int]) -> PointT:
    """Process-pool worker: one cell's batch, reduced where it ran.

    Reducing in the worker reads per-batch protocol stats (such as the
    peer-sampling service's ``last_batch_stats``) off the worker's own
    protocol copy, and sends back a point instead of ``(R, n)`` arrays.
    """
    reduce, config, cell, seed = task
    result = simulate_protocol_batch(
        cell.protocol,
        config.n,
        cell.q,
        repetitions=config.repetitions,
        seed=seed,
        failure_model=cell.failure_model,
        network=cell.network,
        churn=cell.churn,
        round_period=cell.round_period,
    )
    return reduce(config, cell, result)


def mean_std(values: np.ndarray) -> tuple[float, float]:
    """Return a cell's mean and sample standard deviation (0 for one replica)."""
    values = np.asarray(values, dtype=float)
    return float(values.mean()), (float(values.std(ddof=1)) if values.size > 1 else 0.0)


def drop_rate(result: BatchProtocolResult) -> float:
    """Return a cell's pooled drop rate: messages dropped over messages sent."""
    return float(result.messages_dropped.sum() / max(1, result.messages_sent.sum()))


def _same(value: Any, wanted: Any) -> bool:
    if isinstance(wanted, str):
        return bool(value == wanted)
    return bool(abs(value - wanted) < 1e-9)


@dataclass(frozen=True)
class GridResult(Generic[ConfigT, PointT]):
    """The points of a protocol-grid run, with shared lookups and table.

    A subclass names its table in ``COLUMNS``: ``(header, point attribute)``
    pairs, in column order.
    """

    config: ConfigT
    points: tuple[PointT, ...]

    COLUMNS: ClassVar[tuple[tuple[str, str], ...]] = ()

    def protocols(self) -> list[str]:
        """Return the protocol ids in run order (deduplicated)."""
        return list(dict.fromkeys(p.protocol for p in self.points))

    def _select(self, **coords: Any) -> list[PointT]:
        return [
            p
            for p in self.points
            if all(_same(getattr(p, name), value) for name, value in coords.items())
        ]

    def _point(self, **coords: Any) -> PointT:
        """Return the cell at ``coords``; raise ``KeyError`` if absent."""
        for p in self._select(**coords):
            return p
        where = ", ".join(f"{name}={value!r}" for name, value in coords.items())
        raise KeyError(f"no point for {where}")

    def _series(self, axis: str, **coords: Any) -> list[PointT]:
        """Return the cells at ``coords``, ordered along ``axis``."""
        return sorted(self._select(**coords), key=attrgetter(axis))

    def _columns(self) -> list[tuple[str, Callable[[PointT], Any]]]:
        return [(header, attrgetter(name)) for header, name in self.COLUMNS]

    def to_table(self, *, precision: int = 4) -> str:
        """Render the full grid as an aligned text table."""
        columns = self._columns()
        rows = [[value(p) for _, value in columns] for p in self.points]
        return format_table([header for header, _ in columns], rows, precision=precision)
