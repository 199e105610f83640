"""Churn resilience — the protocol zoo under dynamic membership.

The paper's reliability analysis (and every static experiment in this
repository) fixes the group before dissemination starts: members may crash,
but nobody joins and nobody leaves.  Production gossip systems run under
**churn** — nodes enter and depart *while* a message is disseminating — and
gossip over bounded partial views maintained by a peer-sampling service.
This experiment sweeps the whole protocol zoo (plus the HyParView-style
peer-sampling protocol) over a grid of per-round churn rates crossed with
the nonfailed ratio ``q``, through the **batched churn plane**
(:func:`repro.simulation.protocol_batch.simulate_protocol_batch` with a
:class:`~repro.simulation.churn.PoissonChurnModel`), and reports per
``(protocol, q, churn_rate)`` cell:

* mean/std **reliability among survivors** — of the members still nonfailed
  *and present* when dissemination ended, the fraction holding the message
  (the only meaningful denominator once members leave mid-run),
* the mean survivor fraction (how much of the nonfailed group the churn
  schedule kept),
* mean message cost per member and the atomic-among-survivors rate,
* for the peer-sampling protocol: mean **view staleness** (fraction of
  active-view slots pointing at departed peers, per round before repair),
  total link **repairs**, and the mean **repair latency** in rounds.

Two rows anchor the comparison: ``lpbcast-frozen`` is fixed-fanout gossip
over a *static* partial view of exactly the peer-sampling protocol's
active-view size, so the ``hyparview`` vs ``lpbcast-frozen`` gap isolates
what view repair buys at equal view budget.  The expected shape — checked by
:meth:`ChurnResilienceResult.check_shape` — is graceful degradation:
reliability falls monotonically in the churn rate for every protocol, and
the self-repairing view degrades no faster than the frozen one.

At ``churn_rate = 0`` the churn model draws no randomness, so every cell is
bit-identical to the static path (the same discipline the loss plane
established); the test suite pins exactly that for all protocols.  The
cells run through :func:`repro.experiments.grid.run_grid`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.experiments.grid import Cell, GridResult, mean_std, run_grid
from repro.experiments.protocol_comparison import protocol_zoo
from repro.simulation.churn import PoissonChurnModel
from repro.simulation.protocol_batch import BatchProtocolResult
from repro.utils.validation import check_integer, check_probability

__all__ = [
    "ChurnResilienceConfig",
    "ChurnPoint",
    "ChurnResilienceResult",
    "run_churn_resilience",
]

EXPERIMENT_ID = "churn_resilience"
PAPER_REFERENCE = (
    "Sec. 3 model assumption lifted — protocol-zoo reliability among survivors "
    "under dynamic membership (churn_rate x q grid, batched churn plane, "
    "HyParView-style peer sampling vs frozen partial views)"
)

#: Active-view size of the peer-sampling row and view size of its frozen
#: static anchor (``lpbcast-frozen``) — matched so the comparison isolates
#: view *repair*, not view budget.
_PEER_VIEW_SIZE = 8


@dataclass(frozen=True)
class ChurnResilienceConfig:
    """Configuration of the churn-resilience sweep.

    Attributes
    ----------
    n:
        Group size.
    qs:
        Nonfailed-ratio grid (supercritical regimes — churn is the axis under
        study, crashes are the nuisance dimension).
    churn_rates:
        Per-round leave hazards to sweep.  Each nonzero rate builds a
        :class:`~repro.simulation.churn.PoissonChurnModel` with
        ``leave_rate = join_rate = rate`` and ``initially_absent`` as below;
        rate 0 is the all-zero model (static membership, no randomness).
    initially_absent:
        Join-pool fraction of the nonzero-churn models: members starting
        outside the group that trickle in at ``join_rate``.
    mean_fanout:
        Per-member effort budget (push fanout / overlay degree).
    rounds:
        Round horizon of the periodic protocols.
    repetitions:
        Independent executions per ``(protocol, q, churn_rate)`` cell.
    seed:
        Base seed; every cell derives an independent stream.
    processes:
        Worker processes (``None``: all cores but one).  Each cell runs as
        one seeded batch, so the pool size never changes the numbers.
    """

    n: int = 1000
    qs: tuple = (0.9, 1.0)
    churn_rates: tuple = (0.0, 0.02, 0.05, 0.1, 0.15)
    initially_absent: float = 0.1
    mean_fanout: int = 4
    rounds: int = 8
    repetitions: int = 40
    seed: int = 20082010
    processes: int | None = 1

    def __post_init__(self) -> None:
        check_integer("n", self.n, minimum=2)
        if not self.qs:
            raise ValueError("qs must be non-empty")
        for q in self.qs:
            check_probability("q", q)
        if not self.churn_rates:
            raise ValueError("churn_rates must be non-empty")
        for rate in self.churn_rates:
            check_probability("churn_rate", rate, allow_one=False)
        check_probability("initially_absent", self.initially_absent)
        check_integer("mean_fanout", self.mean_fanout, minimum=1)
        check_integer("rounds", self.rounds, minimum=1)
        check_integer("repetitions", self.repetitions, minimum=1)

    def protocols(self) -> tuple:
        """Return the ``(protocol_id, Protocol)`` rows of the churn sweep.

        The full zoo with the peer-sampling protocol appended, plus the
        ``lpbcast-frozen`` anchor: the same push gossip over a *static*
        partial view of the peer-sampling protocol's active-view size.
        """
        from repro.protocols import LpbcastProtocol

        rows = protocol_zoo(self.mean_fanout, self.rounds, include_peer_sampling=True)
        frozen = LpbcastProtocol(
            fanout=self.mean_fanout, rounds=self.rounds, view_size=_PEER_VIEW_SIZE
        )
        frozen.name = "lpbcast-frozen"
        return rows + (("lpbcast-frozen", frozen),)

    def churn_model(self, rate: float) -> PoissonChurnModel:
        """Return the churn model of one grid rate (all-zero at rate 0)."""
        if rate == 0.0:
            return PoissonChurnModel()
        return PoissonChurnModel(
            leave_rate=rate, join_rate=rate, initially_absent=self.initially_absent
        )

    def with_scale(self, factor: float) -> "ChurnResilienceConfig":
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
class ChurnPoint:
    """Measurements of one ``(protocol, q, churn_rate)`` cell.

    ``view_staleness``/``repairs``/``repair_latency`` describe the
    peer-sampling membership service and are ``NaN``/0 for every other
    protocol (their views have no repair machinery to measure).
    """

    protocol: str
    q: float
    churn_rate: float
    repetitions: int
    reliability: float
    reliability_std: float
    survivor_fraction: float
    messages_per_member: float
    atomic_rate: float
    view_staleness: float = float("nan")
    repairs: int = 0
    repair_latency: float = float("nan")


@dataclass(frozen=True)
class ChurnResilienceResult(GridResult[ChurnResilienceConfig, ChurnPoint]):
    """Result of the churn-resilience sweep."""

    COLUMNS = (
        ("protocol", "protocol"),
        ("q", "q"),
        ("churn", "churn_rate"),
        ("reps", "repetitions"),
        ("reliability", "reliability"),
        ("std", "reliability_std"),
        ("survivors", "survivor_fraction"),
        ("msgs/member", "messages_per_member"),
        ("atomic", "atomic_rate"),
        ("staleness", "view_staleness"),
        ("repairs", "repairs"),
        ("repair lat", "repair_latency"),
    )

    def series_for(self, protocol: str, q: float) -> list[ChurnPoint]:
        """Return one ``(protocol, q)`` churn series, ordered by rate."""
        return self._series("churn_rate", protocol=protocol, q=q)

    def point(self, protocol: str, q: float, churn_rate: float) -> ChurnPoint:
        """Return one cell; raise ``KeyError`` if absent."""
        return self._point(protocol=protocol, q=q, churn_rate=churn_rate)

    def check_shape(self, *, tolerance: float = 0.05) -> list[str]:
        """Check the qualitative churn-resilience claims.

        1. At ``churn_rate = 0`` every nonfailed member survives (the churn
           plane is inert) and reliability-among-survivors is supercritical.
        2. Per ``(protocol, q)``, reliability does not *increase* with the
           churn rate (beyond Monte-Carlo slack) and the survivor fraction
           falls as members leave — graceful degradation, no cliffs upward.
        3. At every nonzero churn rate, the peer-sampling protocol is at
           least as reliable as fixed-fanout gossip over a frozen partial
           view of the same size (view repair pays), and its total
           degradation from rate 0 is no steeper.
        4. Under churn the peer-sampling service actually works: staleness
           is observed and repairs happen.
        """
        problems: list[str] = []
        for p in self.points:
            if p.churn_rate == 0.0 and p.survivor_fraction != 1.0:
                problems.append(
                    f"{p.protocol} q={p.q}: survivor fraction "
                    f"{p.survivor_fraction:.4f} != 1 at churn rate 0"
                )
        for protocol in self.protocols():
            for q in self.config.qs:
                series = self.series_for(protocol, q)
                for lo, hi in zip(series, series[1:], strict=False):
                    if hi.reliability > lo.reliability + 2 * tolerance:
                        problems.append(
                            f"{protocol} q={q}: reliability rises from "
                            f"{lo.reliability:.4f} (rate={lo.churn_rate}) to "
                            f"{hi.reliability:.4f} (rate={hi.churn_rate})"
                        )
                    if hi.survivor_fraction > lo.survivor_fraction + tolerance:
                        problems.append(
                            f"{protocol} q={q}: survivor fraction rises from "
                            f"{lo.survivor_fraction:.4f} (rate={lo.churn_rate}) to "
                            f"{hi.survivor_fraction:.4f} (rate={hi.churn_rate})"
                        )
        for q in self.config.qs:
            for rate in self.config.churn_rates:
                if rate == 0.0:
                    continue
                try:
                    peer = self.point("hyparview", q, rate)
                    frozen = self.point("lpbcast-frozen", q, rate)
                except KeyError:
                    continue
                if peer.reliability < frozen.reliability - tolerance:
                    problems.append(
                        f"q={q} rate={rate}: hyparview {peer.reliability:.4f} below "
                        f"frozen-view anchor {frozen.reliability:.4f}"
                    )
                if peer.view_staleness <= 0.0 or math.isnan(peer.view_staleness):
                    problems.append(
                        f"q={q} rate={rate}: no view staleness observed under churn"
                    )
                if peer.repairs <= 0:
                    problems.append(
                        f"q={q} rate={rate}: peer-sampling service repaired nothing"
                    )
            rate_top = max(self.config.churn_rates)
            if rate_top > 0.0:
                try:
                    peer0 = self.point("hyparview", q, 0.0)
                    peer1 = self.point("hyparview", q, rate_top)
                    frozen0 = self.point("lpbcast-frozen", q, 0.0)
                    frozen1 = self.point("lpbcast-frozen", q, rate_top)
                except KeyError:
                    continue
                peer_drop = peer0.reliability - peer1.reliability
                frozen_drop = frozen0.reliability - frozen1.reliability
                if peer_drop > frozen_drop + tolerance:
                    problems.append(
                        f"q={q}: hyparview degrades by {peer_drop:.4f} to rate "
                        f"{rate_top}, faster than the frozen view's {frozen_drop:.4f}"
                    )
        return problems


def _point(config: ChurnResilienceConfig, cell: Cell, result: BatchProtocolResult) -> ChurnPoint:
    """Reduce one cell, with the peer-sampling service's stats where it has them."""
    reliability = result.reliability_among_survivors()
    mean, std = mean_std(reliability)
    stats = getattr(cell.protocol, "last_batch_stats", None)
    staleness = repair_latency = float("nan")
    repairs = 0
    if stats is not None:
        staleness = float(stats["view_staleness"])
        repairs = int(stats["repairs"])
        if repairs:
            repair_latency = float(stats["repair_latency"])
    return ChurnPoint(
        protocol=cell.protocol_id,
        q=cell.q,
        churn_rate=cell.key[0],
        repetitions=config.repetitions,
        reliability=mean,
        reliability_std=std,
        survivor_fraction=float(result.survivor_fraction().mean()),
        messages_per_member=float(result.messages_per_member().mean()),
        atomic_rate=float((reliability >= 1.0 - 1e-12).mean()),
        view_staleness=staleness,
        repairs=repairs,
        repair_latency=repair_latency,
    )


def run_churn_resilience(
    config: ChurnResilienceConfig | None = None,
) -> ChurnResilienceResult:
    """Run the sweep over the full ``(protocol, q, churn_rate)`` grid."""
    config = config or ChurnResilienceConfig()
    cells = [
        Cell(protocol_id, protocol, float(q), key=(float(rate),), churn=config.churn_model(rate))
        for protocol_id, protocol in config.protocols()
        for q in config.qs
        for rate in config.churn_rates
    ]
    return ChurnResilienceResult(config, run_grid(config, cells, _point))
