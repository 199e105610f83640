"""Latency profile — delivery-time percentiles of the zoo under timed networks.

The paper's evaluation counts rounds; deployments care about *time*.  This
experiment runs the whole protocol zoo plus the two-phase recovery
protocols through the batched engines with the per-message **latency
plane** enabled (:class:`~repro.simulation.latency.DeliveryTimePlane`):
every transmission draws its own delay from the configured latency law,
slow messages mature in later rounds via discretised time-buckets, and the
engines report per-member delivery times.  The sweep crosses

* the protocol rows (``protocol_zoo(..., include_peer_sampling=True,
  include_recovery=True)``),
* a latency law per column — constant, uniform and exponential at the
  same one-round mean, so the columns isolate *variance* (the constant
  column is the latency-free round clock, reproduced bit-identically by
  the plane's fast path), and
* an i.i.d. loss grid (loss stretches tails by forcing recovery rounds),

and reports per cell the reliability, the message cost, and the delivery
percentiles ``p50 / p99 / p999`` over delivered members — the tail metrics
a broadcast SLA is written against.

Expected shape (:meth:`LatencyProfileResult.check_shape`): percentiles are
ordered within every cell; under the one-round constant law every delivery
lands exactly on the round grid (the plane is the round clock); the exponential
column's tail dominates the constant column's at equal mean (per-hop
variance compounds); and loss never improves reliability.  The cells run
through :func:`repro.experiments.grid.run_grid`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter, methodcaller
from typing import Any, Callable

import numpy as np

from repro.experiments.grid import Cell, GridResult, mean_std, run_grid
from repro.experiments.protocol_comparison import protocol_zoo
from repro.simulation.latency import percentile_label
from repro.simulation.network import (
    NetworkModel,
    latency_constant,
    latency_exponential,
    latency_uniform,
)
from repro.simulation.protocol_batch import BatchProtocolResult
from repro.utils.validation import check_integer, check_probability

__all__ = [
    "LatencyProfileConfig",
    "LatencyPoint",
    "LatencyProfileResult",
    "run_latency_profile",
]

EXPERIMENT_ID = "latency_profile"
PAPER_REFERENCE = (
    "Sec. 5 beyond the paper — delivery-time percentiles (p50/p99/p999) of the "
    "protocol zoo + recovery protocols under constant/uniform/exponential "
    "per-message latency x i.i.d. loss, batched latency plane"
)


def _build_latency(spec: tuple) -> Callable[[np.random.Generator], float]:
    """Instantiate the latency sampler of one ``(kind, *params)`` column spec."""
    kind = spec[0]
    if kind == "constant":
        return latency_constant(spec[1])
    if kind == "uniform":
        return latency_uniform(spec[1], spec[2])
    if kind == "exponential":
        return latency_exponential(spec[1])
    raise ValueError(f"unknown latency kind {kind!r}")


def _latency_label(spec: tuple) -> str:
    """Render a latency spec as a compact column label."""
    return f"{spec[0]}({', '.join('%g' % v for v in spec[1:])})"


@dataclass(frozen=True)
class LatencyProfileConfig:
    """Configuration of the latency-profile sweep.

    Attributes
    ----------
    n:
        Group size.
    q:
        Nonfailed ratio (single supercritical value — latency is the axis
        under study, failures are the nuisance dimension).
    latencies:
        Latency-law column specs: ``("constant", value)``,
        ``("uniform", low, high)`` or ``("exponential", mean)``.  The
        defaults share a mean of one round period, so the columns compare
        latency *variance* at equal per-hop cost.
    loss_probabilities:
        Independent per-message drop probabilities to cross with the
        latency columns.
    round_period:
        Gossip period the plane discretises against (the time axis unit).
    percentiles:
        Delivery percentiles to report (over delivered members).
    mean_fanout:
        Per-member effort budget (push fanout / overlay degree).
    rounds:
        Round horizon of the periodic protocols.
    repetitions:
        Independent executions per ``(protocol, latency, loss)`` cell.
    seed:
        Base seed; every cell derives an independent stream.
    processes:
        Worker processes (``None``: all cores but one).  Each cell runs as
        one seeded batch, so the pool size never changes the numbers.
    """

    n: int = 1000
    q: float = 0.9
    latencies: tuple = (
        ("constant", 1.0),
        ("uniform", 0.5, 1.5),
        ("exponential", 1.0),
    )
    loss_probabilities: tuple = (0.0, 0.15)
    round_period: float = 1.0
    percentiles: tuple = (50.0, 99.0, 99.9)
    mean_fanout: int = 4
    rounds: int = 12
    repetitions: int = 40
    seed: int = 20082013
    processes: int | None = 1

    def __post_init__(self) -> None:
        check_integer("n", self.n, minimum=2)
        check_probability("q", self.q)
        if not self.latencies:
            raise ValueError("latencies must be non-empty")
        for spec in self.latencies:
            _build_latency(spec)  # validates kind and parameters
        if not self.loss_probabilities:
            raise ValueError("loss_probabilities must be non-empty")
        for loss in self.loss_probabilities:
            check_probability("loss_probability", loss)
        if self.round_period <= 0.0:
            raise ValueError(f"round_period must be > 0, got {self.round_period!r}")
        if not self.percentiles:
            raise ValueError("percentiles must be non-empty")
        for p in self.percentiles:
            if not 0.0 < p < 100.0:
                raise ValueError(f"percentiles must be in (0, 100), got {p!r}")
        check_integer("mean_fanout", self.mean_fanout, minimum=1)
        check_integer("rounds", self.rounds, minimum=1)
        check_integer("repetitions", self.repetitions, minimum=1)

    def protocols(self) -> tuple:
        """Return the full zoo (peer sampling + recovery rows included)."""
        return protocol_zoo(
            self.mean_fanout,
            self.rounds,
            include_peer_sampling=True,
            include_recovery=True,
        )

    def with_scale(self, factor: float) -> "LatencyProfileConfig":
        """Return a shrunken copy for quick runs (CLI ``--scale``)."""
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"scale factor must be in (0, 1], got {factor}")
        if factor >= 0.999:
            return self
        return replace(
            self,
            n=max(200, int(self.n * factor)),
            repetitions=max(8, int(self.repetitions * factor)),
        )


@dataclass(frozen=True)
class LatencyPoint:
    """Measurements of one ``(protocol, latency, loss_probability)`` cell."""

    protocol: str
    latency: str
    loss_probability: float
    repetitions: int
    reliability: float
    reliability_std: float
    messages_per_member: float
    #: percentile label ("p50", ...) -> delivery time over delivered members;
    #: ``nan`` when no member beyond the source was ever delivered.
    delivery_percentiles: tuple
    #: Only set for constant-latency columns whose value equals the round
    #: period: True iff every raw delivery time is an exact multiple of the
    #: round period (the plane's fast path is the round clock); None for
    #: every other latency law.
    round_aligned: bool | None = None

    def percentile(self, p: float) -> float:
        """Return one reported percentile by value (e.g. ``99.9``)."""
        label = percentile_label(p)
        for key, value in self.delivery_percentiles:
            if key == label:
                return value
        raise KeyError(f"percentile {p!r} ({label}) not reported for this cell")


@dataclass(frozen=True)
class LatencyProfileResult(GridResult[LatencyProfileConfig, LatencyPoint]):
    """Result of the latency-profile sweep."""

    COLUMNS = (
        ("protocol", "protocol"),
        ("latency", "latency"),
        ("loss", "loss_probability"),
        ("reps", "repetitions"),
        ("reliability", "reliability"),
        ("std", "reliability_std"),
    )

    def point(self, protocol: str, latency: str, loss_probability: float) -> LatencyPoint:
        """Return one cell; raise ``KeyError`` if absent."""
        return self._point(protocol=protocol, latency=latency, loss_probability=loss_probability)

    def _columns(self) -> list[tuple[str, Callable[[LatencyPoint], Any]]]:
        percentiles = [
            (percentile_label(p), methodcaller("percentile", p)) for p in self.config.percentiles
        ]
        return [
            *super()._columns(),
            *percentiles,
            ("msgs/member", attrgetter("messages_per_member")),
        ]

    def check_shape(self, *, tolerance: float = 0.05) -> list[str]:
        """Check the qualitative latency-profile claims.

        1. Within every cell the reported percentiles are ordered
           (``p50 <= p99 <= p999`` for the default set).
        2. Under the one-round constant law every raw delivery time is an
           exact multiple of the round period: the plane's fast path
           degenerates to the round clock.
        3. Per ``(protocol, loss)``, the exponential column's extreme tail
           dominates the constant column's at equal mean — per-hop variance
           compounds along gossip paths.
        4. Per ``(protocol, latency)``, reliability does not *increase*
           with loss (beyond Monte-Carlo slack).
        """
        problems: list[str] = []
        labels = [percentile_label(p) for p in sorted(self.config.percentiles)]
        for p in self.points:
            values = dict(p.delivery_percentiles)
            ordered = [values[label] for label in labels]
            finite = [v for v in ordered if np.isfinite(v)]
            if any(hi < lo - 1e-9 for lo, hi in zip(finite, finite[1:], strict=False)):
                problems.append(
                    f"{p.protocol} {p.latency} loss={p.loss_probability}: "
                    f"percentiles not ordered: {ordered}"
                )
            if p.round_aligned is False:
                problems.append(
                    f"{p.protocol} {p.latency} loss={p.loss_probability}: "
                    "constant-law delivery times are off the round grid"
                )
        top_label = labels[-1]
        constant = _latency_label(self.config.latencies[0])
        exponential = next(
            (_latency_label(s) for s in self.config.latencies if s[0] == "exponential"),
            None,
        )
        if exponential is not None:
            for protocol in self.protocols():
                for loss in self.config.loss_probabilities:
                    try:
                        const_cell = self.point(protocol, constant, loss)
                        exp_cell = self.point(protocol, exponential, loss)
                    except KeyError:
                        continue
                    const_tail = dict(const_cell.delivery_percentiles)[top_label]
                    exp_tail = dict(exp_cell.delivery_percentiles)[top_label]
                    if np.isfinite(const_tail) and np.isfinite(exp_tail):
                        if exp_tail < const_tail - tolerance:
                            problems.append(
                                f"{protocol} loss={loss}: exponential {top_label} "
                                f"{exp_tail:.3f} below constant {const_tail:.3f}"
                            )
        for protocol in self.protocols():
            for spec in self.config.latencies:
                label = _latency_label(spec)
                series = self._series("loss_probability", protocol=protocol, latency=label)
                for lo, hi in zip(series, series[1:], strict=False):
                    if hi.reliability > lo.reliability + 2 * tolerance:
                        problems.append(
                            f"{protocol} {label}: reliability rises from "
                            f"{lo.reliability:.4f} (loss={lo.loss_probability}) to "
                            f"{hi.reliability:.4f} (loss={hi.loss_probability})"
                        )
        return problems


def _point(config: LatencyProfileConfig, cell: Cell, result: BatchProtocolResult) -> LatencyPoint:
    """Reduce one cell: percentiles pool the delivery times of every replica."""
    spec, loss = cell.key
    if result.delivery_times is None:
        raise RuntimeError(
            f"protocol {cell.protocol.name!r} reported no delivery times — its "
            "batched hook does not accept the latency plane"
        )
    times = result.delivery_times[np.isfinite(result.delivery_times)]
    round_aligned: bool | None = None
    if spec[0] == "constant" and abs(spec[1] - config.round_period) < 1e-12:
        grid = times / config.round_period
        round_aligned = bool(times.size == 0 or np.allclose(grid, np.round(grid), atol=1e-9))
    reliability, reliability_std = mean_std(result.reliability())
    return LatencyPoint(
        protocol=cell.protocol_id,
        latency=_latency_label(spec),
        loss_probability=loss,
        repetitions=config.repetitions,
        reliability=reliability,
        reliability_std=reliability_std,
        messages_per_member=float(result.messages_per_member().mean()),
        delivery_percentiles=tuple(
            (
                percentile_label(p),
                float(np.percentile(times, p)) if times.size else float("nan"),
            )
            for p in config.percentiles
        ),
        round_aligned=round_aligned,
    )


def run_latency_profile(config: LatencyProfileConfig | None = None) -> LatencyProfileResult:
    """Run the sweep over the full ``(protocol, latency, loss)`` grid."""
    config = config or LatencyProfileConfig()
    cells = [
        Cell(
            protocol_id,
            protocol,
            float(config.q),
            key=(spec, float(loss)),
            network=NetworkModel(latency=_build_latency(spec), loss_probability=loss),
            round_period=config.round_period,
        )
        for protocol_id, protocol in config.protocols()
        for spec in config.latencies
        for loss in config.loss_probabilities
    ]
    return LatencyProfileResult(config, run_grid(config, cells, _point))
