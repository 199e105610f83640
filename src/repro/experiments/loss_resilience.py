"""Loss resilience — the protocol zoo under a lossy network plane.

The paper's reliability analysis assumes perfect point-to-point delivery:
a gossip arc either exists or it does not, and every sent message arrives.
Real deployments drop messages.  This experiment sweeps the whole baseline
protocol zoo over a grid of independent per-message loss probabilities
(crossed with the nonfailed ratio ``q``) through the **vectorised loss
plane** of the batched multi-protocol engine
(:func:`repro.simulation.protocol_batch.simulate_protocol_batch` with a
:class:`~repro.simulation.network.NetworkModel`), and reports per
``(protocol, q, loss)`` cell:

* mean/std reliability (delivered nonfailed members / nonfailed members),
* mean message cost per member,
* the realised drop rate (``messages_dropped / messages_sent`` — a direct
  check that the engine thins with the requested Bernoulli law), and
* the atomicity rate.

The expected shape: push-only gossip (fixed/random fanout) degrades first —
a lost push is never retried, so loss eats directly into the effective
fanout (``f_eff = f · (1 - loss)``) and pushes the process toward its
percolation threshold; the redundant and pull-based protocols (flooding's
link redundancy, pbcast's anti-entropy digests, RDG's NACK pulls) buy back
reliability at extra message cost.  At ``loss = 0`` every cell must be
statistically indistinguishable from the loss-free ``protocol_comparison``
numbers — the CI smoke run and the test suite pin exactly that through the
shared statistical harness.  The cells run through
:func:`repro.experiments.grid.run_grid`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments.grid import Cell, GridResult, drop_rate, mean_std, run_grid
from repro.experiments.protocol_comparison import protocol_zoo
from repro.simulation.network import NetworkModel
from repro.simulation.protocol_batch import BatchProtocolResult
from repro.utils.validation import check_integer, check_probability

__all__ = [
    "LossResilienceConfig",
    "LossPoint",
    "LossResilienceResult",
    "run_loss_resilience",
]

EXPERIMENT_ID = "loss_resilience"
PAPER_REFERENCE = (
    "Sec. 3 model assumption lifted — protocol-zoo reliability under independent "
    "per-message loss (loss_probability x q grid, batched lossy engine)"
)


@dataclass(frozen=True)
class LossResilienceConfig:
    """Configuration of the loss-resilience sweep.

    Attributes
    ----------
    n:
        Group size.
    qs:
        Nonfailed-ratio grid (supercritical regimes — loss is the axis under
        study, failures are the nuisance dimension).
    loss_probabilities:
        Independent per-message drop probabilities to sweep.
    mean_fanout:
        Per-member effort budget (push fanout / overlay degree).
    rounds:
        Round horizon of the periodic protocols (pbcast, lpbcast, RDG).
    repetitions:
        Independent executions per ``(protocol, q, loss)`` cell.
    seed:
        Base seed; every cell derives an independent stream.
    processes:
        Worker processes (``None``: all cores but one).  Each cell runs as
        one seeded batch, so the pool size never changes the numbers.
    """

    n: int = 1000
    qs: tuple = (0.9, 1.0)
    loss_probabilities: tuple = (0.0, 0.05, 0.1, 0.2, 0.4)
    mean_fanout: int = 4
    rounds: int = 8
    repetitions: int = 40
    seed: int = 20082009
    processes: int | None = 1

    def __post_init__(self) -> None:
        check_integer("n", self.n, minimum=2)
        if not self.qs:
            raise ValueError("qs must be non-empty")
        for q in self.qs:
            check_probability("q", q)
        if not self.loss_probabilities:
            raise ValueError("loss_probabilities must be non-empty")
        for loss in self.loss_probabilities:
            check_probability("loss_probability", loss)
        check_integer("mean_fanout", self.mean_fanout, minimum=1)
        check_integer("rounds", self.rounds, minimum=1)
        check_integer("repetitions", self.repetitions, minimum=1)

    def protocols(self) -> tuple:
        """Return the six ``(protocol_id, Protocol)`` rows at equal effort."""
        return protocol_zoo(self.mean_fanout, self.rounds)

    def with_scale(self, factor: float) -> "LossResilienceConfig":
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
class LossPoint:
    """Measurements of one ``(protocol, q, loss_probability)`` cell."""

    protocol: str
    q: float
    loss_probability: float
    repetitions: int
    reliability: float
    reliability_std: float
    messages_per_member: float
    drop_rate: float
    atomic_rate: float


@dataclass(frozen=True)
class LossResilienceResult(GridResult[LossResilienceConfig, LossPoint]):
    """Result of the loss-resilience sweep."""

    COLUMNS = (
        ("protocol", "protocol"),
        ("q", "q"),
        ("loss", "loss_probability"),
        ("reps", "repetitions"),
        ("reliability", "reliability"),
        ("std", "reliability_std"),
        ("msgs/member", "messages_per_member"),
        ("drop rate", "drop_rate"),
        ("atomic", "atomic_rate"),
    )

    def series_for(self, protocol: str, q: float) -> list[LossPoint]:
        """Return one ``(protocol, q)`` loss series, ordered by loss."""
        return self._series("loss_probability", protocol=protocol, q=q)

    def point(self, protocol: str, q: float, loss_probability: float) -> LossPoint:
        """Return one cell; raise ``KeyError`` if absent."""
        return self._point(protocol=protocol, q=q, loss_probability=loss_probability)

    def check_shape(self, *, tolerance: float = 0.05) -> list[str]:
        """Check the qualitative loss-resilience claims.

        1. The realised drop rate tracks the requested loss probability
           (the Bernoulli thinning is calibrated).
        2. Per ``(protocol, q)``, reliability does not *increase* with loss
           (beyond Monte-Carlo slack) — dropping messages never helps.
        3. At the highest loss on the grid, flooding stays at least as
           reliable as plain fixed-fanout push gossip (redundancy pays).
        4. At ``loss = 0`` (when on the grid) no messages are dropped at all.
        """
        problems: list[str] = []
        for p in self.points:
            if abs(p.drop_rate - p.loss_probability) > max(0.03, 0.25 * p.loss_probability):
                problems.append(
                    f"{p.protocol} q={p.q} loss={p.loss_probability}: realised drop "
                    f"rate {p.drop_rate:.4f} is off the requested probability"
                )
            if p.loss_probability == 0.0 and p.drop_rate != 0.0:
                problems.append(
                    f"{p.protocol} q={p.q}: drops at loss_probability=0 "
                    f"(drop rate {p.drop_rate:.4f})"
                )
        for protocol in self.protocols():
            for q in self.config.qs:
                series = self.series_for(protocol, q)
                for lo, hi in zip(series, series[1:], strict=False):
                    if hi.reliability > lo.reliability + 2 * tolerance:
                        problems.append(
                            f"{protocol} q={q}: reliability rises from "
                            f"{lo.reliability:.4f} (loss={lo.loss_probability}) to "
                            f"{hi.reliability:.4f} (loss={hi.loss_probability})"
                        )
        top_loss = max(self.config.loss_probabilities)
        for q in self.config.qs:
            try:
                flood = self.point("flooding", q, top_loss)
                fixed = self.point("fixed-fanout", q, top_loss)
            except KeyError:
                continue
            if flood.reliability < fixed.reliability - tolerance:
                problems.append(
                    f"q={q} loss={top_loss}: flooding {flood.reliability:.4f} below "
                    f"fixed-fanout {fixed.reliability:.4f}"
                )
        return problems


def _point(config: LossResilienceConfig, cell: Cell, result: BatchProtocolResult) -> LossPoint:
    reliability, reliability_std = mean_std(result.reliability())
    return LossPoint(
        protocol=cell.protocol_id,
        q=cell.q,
        loss_probability=cell.key[0],
        repetitions=config.repetitions,
        reliability=reliability,
        reliability_std=reliability_std,
        messages_per_member=float(result.messages_per_member().mean()),
        drop_rate=drop_rate(result),
        atomic_rate=float(result.is_atomic().mean()),
    )


def run_loss_resilience(config: LossResilienceConfig | None = None) -> LossResilienceResult:
    """Run the sweep over the full ``(protocol, q, loss_probability)`` grid."""
    config = config or LossResilienceConfig()
    cells = [
        Cell(
            protocol_id,
            protocol,
            float(q),
            key=(float(loss),),
            network=NetworkModel(loss_probability=loss),
        )
        for protocol_id, protocol in config.protocols()
        for q in config.qs
        for loss in config.loss_probabilities
    ]
    return LossResilienceResult(config, run_grid(config, cells, _point))
