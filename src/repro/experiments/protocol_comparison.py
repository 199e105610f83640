"""Protocol comparison — the related-work zoo as a first-class workload.

The paper positions its general gossip algorithm against the protocols of
its related-work section (flooding, Bimodal Multicast / pbcast, lpbcast,
Route Driven Gossip, traditional fixed-fanout gossip) but never evaluates
them head-to-head.  This experiment runs all six protocol families through
the **batched multi-protocol engine**
(:func:`repro.simulation.protocol_batch.simulate_protocol_batch`) over a
grid of nonfailed ratios ``q`` and reports, per ``(protocol, q)`` cell:

* mean/std reliability (delivered nonfailed members / nonfailed members),
* mean rounds to delivery (how many protocol rounds the dissemination ran),
* mean message cost per member, and
* the atomicity rate (fraction of replicas that reached *every* nonfailed
  member).

All protocols are dimensioned at **equal effort** (the same per-member
fanout budget), so the comparison isolates the dissemination *strategy*:
flooding is the reliability upper bound, the paper's push gossip is the
cheap baseline, and the buffered/pull protocols (pbcast, lpbcast, RDG)
trade control traffic for the last few percent of reliability.  The cells
run through :func:`repro.experiments.grid.run_grid`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.core.distributions import PoissonFanout
from repro.experiments.grid import Cell, GridResult, mean_std, run_grid
from repro.simulation.protocol_batch import BatchProtocolResult
from repro.utils.validation import check_integer, check_probability

if TYPE_CHECKING:
    from repro.protocols.base import Protocol

__all__ = [
    "ProtocolComparisonConfig",
    "ProtocolPoint",
    "ProtocolComparisonResult",
    "protocol_zoo",
    "zoo_protocol",
    "run_protocol_comparison",
]

EXPERIMENT_ID = "protocol_comparison"
PAPER_REFERENCE = (
    "Sec. 2 related work — reliability/cost comparison of the protocol zoo "
    "(flooding, pbcast, lpbcast, RDG, fixed/random fanout) under fail-stop crashes"
)


def protocol_zoo(
    mean_fanout: int,
    rounds: int,
    *,
    include_peer_sampling: bool = False,
    include_recovery: bool = False,
) -> tuple:
    """Return the ``(protocol_id, Protocol)`` rows at equal per-member effort.

    The single place the protocol-level experiments (``protocol_comparison``,
    ``loss_resilience``, ``churn_resilience``, ``recovery_resilience``) and
    benchmarks instantiate the
    zoo, so every workload compares exactly the same dimensioning:
    ``mean_fanout`` is the push fanout of every gossip protocol and the
    overlay degree of flooding; ``rounds`` bounds the periodic protocols
    (pbcast, lpbcast, RDG).  ``include_peer_sampling`` appends the
    HyParView-style peer-sampling protocol (a small self-repairing active
    view backed by a passive reservoir) — off by default so the static
    experiments keep their historical six-row grid.  ``include_recovery``
    appends the two-phase recovery protocols (lazy-push with IHAVE/IWANT
    repair, anti-entropy reconciliation) at the same fanout budget; their
    recovery knobs (retry budget, eager threshold, reconciliation fanout)
    are fixed here so every workload measures one dimensioning.
    """
    from repro.protocols import (
        AntiEntropyProtocol,
        FixedFanoutGossip,
        FloodingProtocol,
        HyParViewProtocol,
        LazyPushProtocol,
        LpbcastProtocol,
        PbcastProtocol,
        RandomFanoutGossip,
        RouteDrivenGossip,
    )

    f = int(mean_fanout)
    rows = (
        ("flooding", FloodingProtocol(degree=f)),
        ("pbcast", PbcastProtocol(fanout=f, rounds=rounds, broadcast_reach=0.8)),
        ("lpbcast", LpbcastProtocol(fanout=f, rounds=rounds, view_size=30)),
        ("rdg", RouteDrivenGossip(fanout=f, rounds=rounds, pull_fanout=1)),
        ("fixed-fanout", FixedFanoutGossip(f)),
        ("random-fanout", RandomFanoutGossip(PoissonFanout(float(f)))),
    )
    if include_peer_sampling:
        rows += (
            (
                "hyparview",
                HyParViewProtocol(
                    fanout=f,
                    rounds=rounds,
                    active_size=8,
                    passive_size=30,
                    shuffle_interval=1,
                ),
            ),
        )
    if include_recovery:
        rows += (
            (
                "lazy-push",
                LazyPushProtocol(
                    fanout=f,
                    rounds=rounds,
                    eager_threshold=0.4,
                    retry_budget=10,
                ),
            ),
            ("anti-entropy", AntiEntropyProtocol(fanout=max(1, f // 2), rounds=rounds)),
        )
    return rows


def zoo_protocol(protocol_id: str, fanout: int, rounds: int) -> Protocol:
    """Return the zoo's ``protocol_id`` row at ``(fanout, rounds)``.

    The solvers and the surface build probe many ``(fanout, rounds)``
    candidates of one protocol, so they take ``functools.partial(zoo_protocol,
    protocol_id)`` as their ``(fanout, rounds) -> Protocol`` builder.  A
    partial of a module-level function pickles into a process pool; a nested
    closure does not.  Raises ``KeyError`` for an id outside the zoo.
    """
    zoo = protocol_zoo(fanout, rounds, include_peer_sampling=True, include_recovery=True)
    return dict(zoo)[protocol_id]


@dataclass(frozen=True)
class ProtocolComparisonConfig:
    """Configuration of the cross-protocol comparison.

    Attributes
    ----------
    n:
        Group size.
    qs:
        Nonfailed-ratio grid (brackets the regimes of the paper's Figs. 4-5).
    mean_fanout:
        Per-member effort budget: the push fanout of every gossip protocol,
        the overlay degree of flooding.
    rounds:
        Round horizon of the periodic protocols (pbcast, lpbcast, RDG).
    repetitions:
        Independent executions per ``(protocol, q)`` cell.
    seed:
        Base seed; every cell derives an independent stream.
    processes:
        Worker processes (``None``: all cores but one).  Each cell runs as
        one seeded batch, so the pool size never changes the numbers.
    """

    n: int = 1000
    qs: tuple = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0)
    mean_fanout: int = 4
    rounds: int = 8
    repetitions: int = 40
    seed: int = 20082008
    processes: int | None = 1

    def __post_init__(self) -> None:
        check_integer("n", self.n, minimum=2)
        if not self.qs:
            raise ValueError("qs must be non-empty")
        for q in self.qs:
            check_probability("q", q)
        check_integer("mean_fanout", self.mean_fanout, minimum=1)
        check_integer("rounds", self.rounds, minimum=1)
        check_integer("repetitions", self.repetitions, minimum=1)

    def protocols(self) -> tuple:
        """Return the six ``(protocol_id, Protocol)`` rows at equal effort."""
        return protocol_zoo(self.mean_fanout, self.rounds)

    def with_scale(self, factor: float) -> "ProtocolComparisonConfig":
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
class ProtocolPoint:
    """Measurements of one ``(protocol, q)`` cell."""

    protocol: str
    q: float
    repetitions: int
    reliability: float
    reliability_std: float
    mean_rounds: float
    messages_per_member: float
    atomic_rate: float


@dataclass(frozen=True)
class ProtocolComparisonResult(GridResult[ProtocolComparisonConfig, ProtocolPoint]):
    """Result of the cross-protocol comparison."""

    COLUMNS = (
        ("protocol", "protocol"),
        ("q", "q"),
        ("reps", "repetitions"),
        ("reliability", "reliability"),
        ("std", "reliability_std"),
        ("rounds", "mean_rounds"),
        ("msgs/member", "messages_per_member"),
        ("atomic", "atomic_rate"),
    )

    def series_for(self, protocol: str) -> list[ProtocolPoint]:
        """Return one protocol's ``q`` series, ordered by ``q``."""
        return self._series("q", protocol=protocol)

    def point(self, protocol: str, q: float) -> ProtocolPoint:
        """Return one cell; raise ``KeyError`` if absent."""
        return self._point(protocol=protocol, q=q)

    def check_shape(self, *, tolerance: float = 0.05) -> list[str]:
        """Check the qualitative cross-protocol claims.

        1. Per protocol, reliability does not *decrease* with ``q`` (beyond
           Monte-Carlo slack).
        2. At every supercritical ``q`` (>= 0.8): flooding >= pbcast >=
           fixed-fanout reliability — the strategy ordering at equal effort.
        3. Flooding at ``q = 1`` is essentially atomic.
        4. Every buffered/pull protocol pays more messages per member than
           plain push gossip at ``q = max(qs)`` (control traffic is not free).
        """
        problems: list[str] = []
        for protocol in self.protocols():
            series = self.series_for(protocol)
            for lo, hi in zip(series, series[1:], strict=False):
                if hi.reliability < lo.reliability - 2 * tolerance:
                    problems.append(
                        f"{protocol}: reliability drops from {lo.reliability:.4f} "
                        f"(q={lo.q}) to {hi.reliability:.4f} (q={hi.q})"
                    )
        for q in self.config.qs:
            if q < 0.8:
                continue
            try:
                flood = self.point("flooding", q)
                pb = self.point("pbcast", q)
                fixed = self.point("fixed-fanout", q)
            except KeyError:
                continue
            if flood.reliability < pb.reliability - tolerance:
                problems.append(
                    f"q={q}: flooding {flood.reliability:.4f} below pbcast {pb.reliability:.4f}"
                )
            if pb.reliability < fixed.reliability - tolerance:
                problems.append(
                    f"q={q}: pbcast {pb.reliability:.4f} below fixed-fanout {fixed.reliability:.4f}"
                )
        if 1.0 in self.config.qs:
            flood = self.point("flooding", 1.0)
            if flood.reliability < 1.0 - tolerance:
                problems.append(
                    f"flooding at q=1 is not atomic: reliability {flood.reliability:.4f}"
                )
        q_top = max(self.config.qs)
        push_cost = self.point("fixed-fanout", q_top).messages_per_member
        for protocol in ("pbcast", "lpbcast", "rdg"):
            if self.point(protocol, q_top).messages_per_member < push_cost:
                problems.append(
                    f"{protocol} at q={q_top} is cheaper than plain push gossip"
                )
        return problems


def _point(
    config: ProtocolComparisonConfig, cell: Cell, result: BatchProtocolResult
) -> ProtocolPoint:
    reliability, reliability_std = mean_std(result.reliability())
    return ProtocolPoint(
        protocol=cell.protocol_id,
        q=cell.q,
        repetitions=config.repetitions,
        reliability=reliability,
        reliability_std=reliability_std,
        mean_rounds=float(result.rounds.mean()),
        messages_per_member=float(result.messages_per_member().mean()),
        atomic_rate=float(result.is_atomic().mean()),
    )


def run_protocol_comparison(
    config: ProtocolComparisonConfig | None = None,
) -> ProtocolComparisonResult:
    """Run the comparison over the full ``(protocol, q)`` grid."""
    config = config or ProtocolComparisonConfig()
    cells = [
        Cell(protocol_id, protocol, float(q))
        for protocol_id, protocol in config.protocols()
        for q in config.qs
    ]
    return ProtocolComparisonResult(config, run_grid(config, cells, _point))
