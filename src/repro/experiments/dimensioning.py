"""Auto-dimensioning — minimal fanout/rounds for a target reliability.

The paper's design-oriented result is Eq. 12: the Poisson mean fanout needed
for a target reliability under a crash budget.  This experiment generalises
that inverse to the whole baseline protocol zoo *and* to lossy networks: for
every cell of a ``(target reliability × q × loss × protocol)`` grid it runs
the loss-aware auto-dimensioning solver
(:func:`repro.analysis.dimensioning.dimension_fanout` in protocol mode) and
reports the minimal integer fanout — and, for the round-based protocols
(pbcast, lpbcast, RDG), the minimal round horizon — whose Wilson lower
confidence bound on the mean replica reliability clears the target.

Each cell also reports the analytic Eq. 12 seed (loss folded in as
effective-fanout thinning), the achieved reliability with its confidence
interval, and the Monte-Carlo replicas the solve consumed, so the table
doubles as a cost ledger for the solver itself.

Expected shape: the required fanout grows with the target, grows with the
loss budget, and shrinks as ``q`` rises; flooding (which re-uses every
member's links) never needs a larger degree than plain fixed-fanout push
gossip needs fanout.  Cells the solver cannot certify below its fanout cap
are reported with ``feasible=False`` and excluded from the shape checks.

This is the first workload that consumes the batched engines as an *inner
loop* of an outer parameter search (the cluster-method Monte-Carlo pattern),
which is why it leans on the engines' determinism guarantees: at a fixed
seed the whole grid reproduces bit-for-bit, serial or process-parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

from repro.analysis.dimensioning import dimension_fanout
from repro.analysis.tables import dimensioning_to_table
from repro.experiments.protocol_comparison import zoo_protocol
from repro.utils.parallel import parallel_map
from repro.utils.rng import spawn_seeds
from repro.utils.validation import check_integer, check_probability

__all__ = [
    "DimensioningConfig",
    "DimensioningPoint",
    "DimensioningExperimentResult",
    "run_dimensioning",
    "ROUND_BASED_PROTOCOLS",
]

EXPERIMENT_ID = "dimensioning"
PAPER_REFERENCE = (
    "Sec. 4.3 Eq. 12 generalised — loss-aware auto-dimensioning: minimal fanout "
    "(and rounds) for a target reliability, per protocol, under crash + loss budgets"
)

#: Protocols whose behaviour depends on the round horizon: for these the
#: solver also reports the minimal number of rounds at the solved fanout.
ROUND_BASED_PROTOCOLS = ("pbcast", "lpbcast", "rdg")

#: The full zoo, in the canonical order of ``protocol_zoo``.
_ALL_PROTOCOLS = (
    "flooding",
    "pbcast",
    "lpbcast",
    "rdg",
    "fixed-fanout",
    "random-fanout",
)


@dataclass(frozen=True)
class DimensioningConfig:
    """Configuration of the auto-dimensioning sweep.

    Attributes
    ----------
    n:
        Group size being dimensioned.
    targets:
        Reliability targets to dimension for (each in (0, 1)).
    qs:
        Nonfailed-ratio grid (the crash budgets).
    losses:
        Per-message loss probabilities (the loss budgets).
    protocols:
        Protocol ids to dimension (subset of the zoo).
    rounds:
        Round horizon the round-based protocols are solved *within*; the
        minimal sufficient rounds are then searched below it.
    confidence:
        Coverage of the Wilson feasibility certificates.
    initial_replicas, max_replicas:
        Per-decision replica budget of the solver (the cap is lifted to the
        Wilson feasibility floor of the highest target automatically).
    max_fanout:
        Fanout cap; cells needing more are reported infeasible.
    seed:
        Base seed; every cell derives an independent stream.
    processes:
        Worker processes for fanning the grid cells out; 1 runs serially
        (identical numbers either way — cell seeds are pre-spawned).
    """

    n: int = 1000
    targets: tuple = (0.9, 0.99)
    qs: tuple = (0.8, 0.9, 1.0)
    losses: tuple = (0.0, 0.1)
    protocols: tuple = _ALL_PROTOCOLS
    rounds: int = 8
    confidence: float = 0.95
    initial_replicas: int = 16
    max_replicas: int = 96
    max_fanout: int = 32
    seed: int = 20082010
    processes: int | None = 1

    def __post_init__(self) -> None:
        check_integer("n", self.n, minimum=2)
        for name, values in (("targets", self.targets), ("qs", self.qs), ("losses", self.losses)):
            if not values:
                raise ValueError(f"{name} must be non-empty")
        for target in self.targets:
            check_probability("target", target, allow_zero=False, allow_one=False)
        for q in self.qs:
            check_probability("q", q, allow_zero=False)
        for loss in self.losses:
            check_probability("loss", loss, allow_one=False)
        if not self.protocols:
            raise ValueError("protocols must be non-empty")
        unknown = set(self.protocols) - set(_ALL_PROTOCOLS)
        if unknown:
            raise ValueError(f"unknown protocols {sorted(unknown)}; choose from {_ALL_PROTOCOLS}")
        check_integer("rounds", self.rounds, minimum=1)
        check_integer("initial_replicas", self.initial_replicas, minimum=2)
        check_integer("max_replicas", self.max_replicas, minimum=self.initial_replicas)
        check_integer("max_fanout", self.max_fanout, minimum=1)

    def with_scale(self, factor: float) -> "DimensioningConfig":
        """Return a shrunken copy for quick runs (CLI ``--scale``).

        The group size shrinks; the replica budgets do *not* — they encode
        the statistical contract (a Wilson certificate at ``confidence``),
        which a quick run must not silently weaken.  Small scales also trim
        the grid to its corner cells so smoke runs finish in seconds.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"scale factor must be in (0, 1], got {factor}")
        if factor >= 0.999:
            return self
        trimmed: dict = {"n": max(200, int(self.n * factor))}
        if factor <= 0.25:
            trimmed["qs"] = self.qs[-2:] if len(self.qs) > 2 else self.qs
            trimmed["losses"] = (
                (self.losses[0], self.losses[-1]) if len(self.losses) > 2 else self.losses
            )
        return replace(self, **trimmed)


@dataclass(frozen=True)
class DimensioningPoint:
    """One solved cell of the auto-dimensioning grid."""

    protocol: str
    target_reliability: float
    q: float
    loss: float
    fanout: float
    rounds: int | None
    analytical_fanout: float
    achieved_reliability: float
    ci_low: float
    ci_high: float
    replicas_used: int
    evaluations: int
    feasible: bool
    certified: bool


@dataclass(frozen=True)
class DimensioningExperimentResult:
    """Result of the auto-dimensioning sweep."""

    config: DimensioningConfig
    points: tuple

    def protocols(self) -> list[str]:
        """Return the protocol ids in run order (deduplicated)."""
        seen: dict[str, None] = {}
        for p in self.points:
            seen.setdefault(p.protocol, None)
        return list(seen)

    def point(
        self, protocol: str, target: float, q: float, loss: float
    ) -> DimensioningPoint:
        """Return one cell; raise ``KeyError`` if absent."""
        for p in self.points:
            if (
                p.protocol == protocol
                and abs(p.target_reliability - target) < 1e-12
                and abs(p.q - q) < 1e-12
                and abs(p.loss - loss) < 1e-12
            ):
                return p
        raise KeyError(
            f"no point for protocol={protocol!r}, target={target!r}, q={q!r}, loss={loss!r}"
        )

    def total_replicas(self) -> int:
        """Return the Monte-Carlo replicas the whole grid consumed."""
        return int(sum(p.replicas_used for p in self.points))

    def to_table(self, *, precision: int = 4) -> str:
        """Render the full grid as an aligned text table."""
        return dimensioning_to_table(self.points, precision=precision)

    def check_shape(self, *, tolerance: int = 1) -> list[str]:
        """Check the qualitative dimensioning claims.

        1. Every feasible cell carries its certificate: the Wilson lower
           bound at the solved fanout clears the target.
        2. At fixed (protocol, q, loss) the solved fanout does not *drop* as
           the target rises (beyond integer-granularity slack).
        3. At fixed (protocol, target, q) the solved fanout does not drop as
           the loss budget grows.
        4. At fixed (protocol, target, loss) the solved fanout does not grow
           as ``q`` rises.
        5. Flooding never needs more than ``tolerance`` extra degree over
           plain fixed-fanout push gossip in the same cell (its redundancy
           can only help).
        """
        problems: list[str] = []
        feasible = [p for p in self.points if p.feasible]
        for p in feasible:
            if p.ci_low < p.target_reliability:
                problems.append(
                    f"{p.protocol} target={p.target_reliability} q={p.q} "
                    f"loss={p.loss}: ci_low {p.ci_low:.4f} below target"
                )

        def solved(protocol: str, target: float, q: float, loss: float) -> DimensioningPoint | None:
            try:
                p = self.point(protocol, target, q, loss)
            except KeyError:
                return None
            return p if p.feasible else None

        for protocol in self.protocols():
            for q in self.config.qs:
                for loss in self.config.losses:
                    cells = [solved(protocol, t, q, loss) for t in sorted(self.config.targets)]
                    pairs = zip(cells, cells[1:], strict=False)
                    for lo, hi in pairs:
                        if lo and hi and hi.fanout < lo.fanout - tolerance:
                            problems.append(
                                f"{protocol} q={q} loss={loss}: fanout falls from "
                                f"{lo.fanout} to {hi.fanout} as the target rises"
                            )
            for target in self.config.targets:
                for q in self.config.qs:
                    cells = [solved(protocol, target, q, el) for el in sorted(self.config.losses)]
                    for lo, hi in zip(cells, cells[1:], strict=False):
                        if lo and hi and hi.fanout < lo.fanout - tolerance:
                            problems.append(
                                f"{protocol} target={target} q={q}: fanout falls from "
                                f"{lo.fanout} to {hi.fanout} as loss grows"
                            )
                for loss in self.config.losses:
                    cells = [solved(protocol, target, q, loss) for q in sorted(self.config.qs)]
                    for lo, hi in zip(cells, cells[1:], strict=False):
                        if lo and hi and hi.fanout > lo.fanout + tolerance:
                            problems.append(
                                f"{protocol} target={target} loss={loss}: fanout rises "
                                f"from {lo.fanout} to {hi.fanout} as q rises"
                            )
        if "flooding" in self.protocols() and "fixed-fanout" in self.protocols():
            for target in self.config.targets:
                for q in self.config.qs:
                    for loss in self.config.losses:
                        flood = solved("flooding", target, q, loss)
                        fixed = solved("fixed-fanout", target, q, loss)
                        if flood and fixed and flood.fanout > fixed.fanout + tolerance:
                            problems.append(
                                f"target={target} q={q} loss={loss}: flooding degree "
                                f"{flood.fanout} above fixed-fanout {fixed.fanout}"
                            )
        return problems


def _solve_cell(args: tuple) -> tuple:
    """Process-pool worker: run the solver on one grid cell.

    The protocol is rebuilt inside the worker from its id (the solver needs
    a *factory*, not an instance — it probes many fanouts), so nothing but
    plain scalars crosses the process boundary.
    """
    (
        protocol_id,
        n,
        q,
        loss,
        target,
        rounds,
        confidence,
        initial_replicas,
        max_replicas,
        max_fanout,
        seed,
    ) = args
    result = dimension_fanout(
        n,
        q,
        target,
        loss=loss,
        protocol_factory=partial(zoo_protocol, protocol_id),
        rounds=rounds,
        solve_rounds=protocol_id in ROUND_BASED_PROTOCOLS,
        confidence=confidence,
        initial_replicas=initial_replicas,
        max_replicas=max_replicas,
        max_fanout=float(max_fanout),
        seed=seed,
    )
    return (
        protocol_id,
        target,
        q,
        loss,
        result.fanout,
        result.rounds,
        result.analytical_fanout,
        result.achieved_reliability,
        result.ci_low,
        result.ci_high,
        result.replicas_used,
        result.evaluations,
        result.feasible,
        result.certified,
    )


def run_dimensioning(config: DimensioningConfig | None = None) -> DimensioningExperimentResult:
    """Run the solver over the full ``(protocol, target, q, loss)`` grid."""
    config = config or DimensioningConfig()
    cells = [
        (protocol_id, target, q, loss)
        for protocol_id in config.protocols
        for target in config.targets
        for q in config.qs
        for loss in config.losses
    ]
    seeds = spawn_seeds(len(cells), config.seed)
    work = [
        (
            protocol_id,
            config.n,
            q,
            loss,
            target,
            config.rounds,
            config.confidence,
            config.initial_replicas,
            config.max_replicas,
            config.max_fanout,
            seed,
        )
        for (protocol_id, target, q, loss), seed in zip(cells, seeds, strict=True)
    ]
    rows = parallel_map(_solve_cell, work, processes=config.processes, serial_threshold=1)
    points = tuple(
        DimensioningPoint(
            protocol=row[0],
            target_reliability=float(row[1]),
            q=float(row[2]),
            loss=float(row[3]),
            fanout=float(row[4]),
            rounds=row[5],
            analytical_fanout=float(row[6]),
            achieved_reliability=float(row[7]),
            ci_low=float(row[8]),
            ci_high=float(row[9]),
            replicas_used=int(row[10]),
            evaluations=int(row[11]),
            feasible=bool(row[12]),
            certified=bool(row[13]),
        )
        for row in rows
    )
    return DimensioningExperimentResult(config=config, points=points)
