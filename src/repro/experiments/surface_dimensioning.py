"""Surface dimensioning — served answers vs live solves, head to head.

The serving subsystem (:mod:`repro.serving`) claims that a precomputed
reliability surface can answer dimensioning queries **in microseconds
without giving up the Wilson certificate**.  This experiment is the
evidence, in four sections:

1. **Surface build.**  A ``(q, loss, fanout)`` grid over the batched gossip
   engine (Poisson fanout, the paper's favourite family) is precomputed with
   per-cell Wilson intervals via :func:`repro.serving.surface.build_surface`.
2. **Served vs live.**  For a *held-out* query grid — targets, ``q`` values
   and loss budgets deliberately strictly between the surface knots — every
   query is answered twice: served
   (:func:`repro.serving.query.dimension_from_surface`, no live fallback)
   and live (:func:`repro.analysis.dimensioning.dimension_fanout`, the
   seconds-per-query bisection).  The table reports both fanouts, both
   certificates, the agreement verdict (within one grid spacing plus the
   live solver's tolerance) and the measured speedup; the headline claim is
   a **median speedup >= 10^3** with served answers that remain certified.
3. **Joint Pareto dimensioning.**  One live
   :func:`~repro.analysis.dimensioning.dimension_pareto` solve (pbcast)
   exhibits the joint ``(fanout, rounds)`` frontier and the cost-aware pick
   that replace the old lexicographic answer.
4. **Targeted-crash dimensioning.**  The solver's ``failure_model=`` plumbing
   is exercised end-to-end: the same cell is dimensioned under the uniform
   crash draw and under a :class:`~repro.simulation.failures.TargetedCrashModel`
   failing exactly the same *number* of members.  With exchangeable members
   the two must agree closely — a regression canary for the failure plane.

Expected shape: every served answer carries ``ci_low >= target``, agrees
with its live twin, and arrives >= 10^3 times faster at the median; the
Pareto frontier is mutually non-dominated and fully certified; targeted and
uniform fanouts differ by at most the integer-granularity slack.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import partial

from repro.analysis.dimensioning import (
    ParetoCandidate,
    dimension_fanout,
    dimension_pareto,
    wilson_floor,
)
from repro.experiments.protocol_comparison import zoo_protocol
from repro.utils.rng import spawn_seeds
from repro.utils.tables import format_table
from repro.utils.validation import check_integer, check_probability

__all__ = [
    "SurfaceDimensioningConfig",
    "ServingComparisonPoint",
    "SurfaceDimensioningResult",
    "run_surface_dimensioning",
]

EXPERIMENT_ID = "surface_dimensioning"
PAPER_REFERENCE = (
    "Sec. 4.3 Eq. 12 as a service — precomputed certified reliability surfaces: "
    "served (interpolated, cached) vs live (re-simulated) dimensioning answers"
)


@dataclass(frozen=True)
class SurfaceDimensioningConfig:
    """Configuration of the served-vs-live comparison.

    Attributes
    ----------
    n:
        Group size of the surface and of every query.
    grid_qs, grid_losses, grid_fanouts:
        The surface knots (the held-out queries must avoid them).
    repetitions:
        Monte-Carlo replicas per surface cell.  Must clear the Wilson
        feasibility floor of the highest target (``z^2 t / (1 - t)``),
        otherwise no cell could ever certify that target.
    confidence:
        Per-cell Wilson coverage.
    targets:
        Reliability targets of the held-out queries.
    held_out_qs, held_out_losses:
        The query grid; every value must lie strictly between surface knots
        so the comparison actually exercises interpolation.
    query_repeats:
        Served-path timing repeats per query (the median over these is the
        served latency; one-shot timing would measure cache warmup).
    pareto_protocol, pareto_n, pareto_max_rounds:
        The joint ``(fanout, rounds)`` Pareto solve (section 3).
    targeted_n, targeted_q, targeted_target:
        The targeted-vs-uniform crash cell (section 4); the targeted model
        fails exactly ``round((1 - targeted_q) * targeted_n)`` members.
    seed:
        Base seed; the surface build, every live solve, and the Pareto /
        targeted sections each derive independent streams.
    processes:
        Worker processes for the surface build (1 = serial; identical
        numbers either way).
    """

    n: int = 1000
    grid_qs: tuple = (0.75, 0.85, 0.95)
    grid_losses: tuple = (0.0, 0.1, 0.2)
    grid_fanouts: tuple = (2.0, 3.0, 4.0, 6.0, 8.0, 11.0, 15.0)
    repetitions: int = 96
    confidence: float = 0.95
    targets: tuple = (0.8, 0.9)
    held_out_qs: tuple = (0.8, 0.9)
    held_out_losses: tuple = (0.05, 0.15)
    query_repeats: int = 50
    pareto_protocol: str = "pbcast"
    pareto_n: int = 400
    pareto_max_rounds: int = 6
    targeted_n: int = 400
    targeted_q: float = 0.9
    targeted_target: float = 0.9
    seed: int = 20082012
    processes: int | None = 1

    def __post_init__(self) -> None:
        check_integer("n", self.n, minimum=2)
        check_integer("repetitions", self.repetitions, minimum=2)
        check_probability("confidence", self.confidence, allow_zero=False, allow_one=False)
        check_integer("query_repeats", self.query_repeats, minimum=1)
        check_integer("pareto_n", self.pareto_n, minimum=2)
        check_integer("pareto_max_rounds", self.pareto_max_rounds, minimum=1)
        check_integer("targeted_n", self.targeted_n, minimum=2)
        check_probability("targeted_q", self.targeted_q, allow_zero=False)
        check_probability(
            "targeted_target", self.targeted_target, allow_zero=False, allow_one=False
        )
        for name, values in (
            ("grid_qs", self.grid_qs),
            ("grid_losses", self.grid_losses),
            ("grid_fanouts", self.grid_fanouts),
            ("targets", self.targets),
            ("held_out_qs", self.held_out_qs),
            ("held_out_losses", self.held_out_losses),
        ):
            if not values:
                raise ValueError(f"{name} must be non-empty")
        for target in self.targets:
            check_probability("target", target, allow_zero=False, allow_one=False)
        top = max(self.targets + (self.targeted_target,))
        floor = wilson_floor(top, self.confidence)
        if self.repetitions < floor:
            raise ValueError(
                f"repetitions={self.repetitions} cannot certify target {top} at "
                f"confidence {self.confidence} (Wilson feasibility floor: {floor} "
                "replicas per cell)"
            )
        for q in self.held_out_qs:
            if not self.grid_qs[0] <= q <= self.grid_qs[-1]:
                raise ValueError(f"held-out q={q} outside the surface span {self.grid_qs}")
        for loss in self.held_out_losses:
            if not self.grid_losses[0] <= loss <= self.grid_losses[-1]:
                raise ValueError(
                    f"held-out loss={loss} outside the surface span {self.grid_losses}"
                )

    def with_scale(self, factor: float) -> "SurfaceDimensioningConfig":
        """Return a shrunken copy for quick runs (CLI ``--scale``).

        Group sizes shrink and small scales trim the held-out query grid to
        its corner cells; the per-cell replica budget does **not** shrink —
        it encodes the Wilson-certificate contract a smoke run must not
        silently weaken.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"scale factor must be in (0, 1], got {factor}")
        if factor >= 0.999:
            return self
        trimmed: dict = {
            "n": max(250, int(self.n * factor)),
            "pareto_n": max(200, int(self.pareto_n * factor)),
            "targeted_n": max(200, int(self.targeted_n * factor)),
            "query_repeats": max(5, int(self.query_repeats * factor)),
        }
        if factor <= 0.25:
            trimmed["targets"] = self.targets[-1:]
            trimmed["held_out_qs"] = self.held_out_qs[-1:]
            trimmed["held_out_losses"] = self.held_out_losses[:1]
            last = self.grid_fanouts[-1]
            trimmed["grid_fanouts"] = tuple(
                f for i, f in enumerate(self.grid_fanouts) if i % 2 == 0 or f == last
            )
        return replace(self, **trimmed)


@dataclass(frozen=True)
class ServingComparisonPoint:
    """One held-out query answered both ways.

    ``tolerance`` is the agreement budget: the fanout-axis spacing around
    the live answer plus the live solver's ``fanout_tol``; ``agree`` is
    ``|served_fanout - live_fanout| <= tolerance``.  ``speedup`` is
    ``live_seconds / served_seconds`` (served latency is the median over
    the configured timing repeats).
    """

    target_reliability: float
    q: float
    loss: float
    served_fanout: float
    live_fanout: float
    served_ci_low: float
    live_ci_low: float
    served_cost: float
    served_source: str
    tolerance: float
    agree: bool
    served_seconds: float
    live_seconds: float
    speedup: float


@dataclass(frozen=True)
class SurfaceDimensioningResult:
    """Result of the served-vs-live comparison plus the solver-upgrade sections."""

    config: SurfaceDimensioningConfig
    points: tuple
    surface_cells: int
    surface_build_seconds: float
    pareto_frontier: tuple
    pareto_best_cost: ParetoCandidate | None
    pareto_replicas: int
    targeted_fanout: float
    uniform_fanout: float

    def median_speedup(self) -> float:
        """Return the median served-vs-live speedup over the held-out grid."""
        speedups = sorted(p.speedup for p in self.points)
        mid = len(speedups) // 2
        if len(speedups) % 2:
            return speedups[mid]
        return 0.5 * (speedups[mid - 1] + speedups[mid])

    def to_table(self, *, precision: int = 4) -> str:
        """Render the held-out comparison plus the Pareto / targeted sections."""
        comparison = format_table(
            [
                "target", "q", "loss", "served_f", "live_f", "served_ci_low",
                "live_ci_low", "agree", "served_us", "live_s", "speedup",
            ],
            [
                (
                    p.target_reliability, p.q, p.loss, p.served_fanout, p.live_fanout,
                    p.served_ci_low, p.live_ci_low, p.agree,
                    p.served_seconds * 1e6, p.live_seconds, p.speedup,
                )
                for p in self.points
            ],
            precision=precision,
        )
        lines = [
            f"surface: {self.surface_cells} cells x {self.config.repetitions} replicas, "
            f"built in {self.surface_build_seconds:.2f}s",
            comparison,
            f"median served-vs-live speedup: {self.median_speedup():.0f}x",
            "",
            f"joint (fanout, rounds) Pareto frontier — {self.config.pareto_protocol}, "
            f"n={self.config.pareto_n}, target={self.config.targets[-1]}:",
            format_table(
                ["fanout", "rounds", "ci_low", "msgs/member"],
                [
                    (c.fanout, c.rounds, c.ci_low, c.messages_per_member)
                    for c in self.pareto_frontier
                ],
                precision=precision,
            ),
        ]
        if self.pareto_best_cost is not None:
            lines.append(
                f"cost-aware pick: fanout={self.pareto_best_cost.fanout:.0f} "
                f"rounds={self.pareto_best_cost.rounds} "
                f"({self.pareto_best_cost.messages_per_member:.2f} msgs/member)"
            )
        lines.append("")
        lines.append(
            f"targeted-crash vs uniform dimensioning (n={self.config.targeted_n}, "
            f"q={self.config.targeted_q}, target={self.config.targeted_target}): "
            f"uniform f={self.uniform_fanout:.0f}, targeted f={self.targeted_fanout:.0f}"
        )
        return "\n".join(lines)

    def check_shape(self, *, fanout_slack: float = 2.0) -> list[str]:
        """Check the serving claims.

        1. Every served answer came from the surface (no silent fallback)
           and carries its certificate (``ci_low >= target``).
        2. Served and live fanouts agree within the per-point tolerance.
        3. The median speedup is at least 10^3.
        4. The Pareto frontier is non-empty, fully certified, and mutually
           non-dominated.
        5. Targeted-crash and uniform dimensioning agree within
           ``fanout_slack`` (members are exchangeable, so failing *which*
           members cannot matter beyond integer granularity).
        """
        problems: list[str] = []
        for p in self.points:
            label = f"target={p.target_reliability} q={p.q} loss={p.loss}"
            if p.served_source != "surface":
                problems.append(f"{label}: served answer fell back to {p.served_source}")
            if p.served_ci_low < p.target_reliability:
                problems.append(
                    f"{label}: served ci_low {p.served_ci_low:.4f} below target"
                )
            if not p.agree:
                problems.append(
                    f"{label}: served fanout {p.served_fanout} vs live {p.live_fanout} "
                    f"disagree beyond tolerance {p.tolerance:.2f}"
                )
        if self.median_speedup() < 1e3:
            problems.append(
                f"median served-vs-live speedup {self.median_speedup():.0f}x below 1000x"
            )
        if not self.pareto_frontier:
            problems.append("Pareto frontier is empty")
        for c in self.pareto_frontier:
            if c.ci_low < self.config.targets[-1]:
                problems.append(
                    f"frontier point (f={c.fanout}, r={c.rounds}) lacks its certificate"
                )
            for other in self.pareto_frontier:
                if other is c:
                    continue
                if (
                    other.fanout <= c.fanout
                    and other.rounds <= c.rounds
                    and (other.fanout, other.rounds) != (c.fanout, c.rounds)
                ):
                    problems.append(
                        f"frontier point (f={c.fanout}, r={c.rounds}) is dominated by "
                        f"(f={other.fanout}, r={other.rounds})"
                    )
        if abs(self.targeted_fanout - self.uniform_fanout) > fanout_slack:
            problems.append(
                f"targeted-crash fanout {self.targeted_fanout} vs uniform "
                f"{self.uniform_fanout} differ beyond slack {fanout_slack}"
            )
        return problems


def run_surface_dimensioning(
    config: SurfaceDimensioningConfig | None = None,
) -> SurfaceDimensioningResult:
    """Run the full served-vs-live comparison (build, query, Pareto, targeted)."""
    from repro.serving.query import SurfaceQueryEngine, dimension_from_surface
    from repro.serving.surface import SurfaceGrid, build_surface
    from repro.simulation.failures import TargetedCrashModel

    config = config or SurfaceDimensioningConfig()
    queries = [
        (target, q, loss)
        for target in config.targets
        for q in config.held_out_qs
        for loss in config.held_out_losses
    ]
    seeds = spawn_seeds(len(queries) + 4, config.seed)
    live_seeds, aux_seeds = seeds[: len(queries)], seeds[len(queries):]

    grid = SurfaceGrid(
        ns=(config.n,),
        qs=config.grid_qs,
        losses=config.grid_losses,
        fanouts=config.grid_fanouts,
    )
    build_start = time.perf_counter()
    surface = build_surface(
        grid,
        repetitions=config.repetitions,
        confidence=config.confidence,
        conditional_on_spread=True,
        seed=int(aux_seeds[0]),
        processes=config.processes,
    )
    build_seconds = time.perf_counter() - build_start
    engine = SurfaceQueryEngine(surface)

    fanout_axis = config.grid_fanouts
    points = []
    for (target, q, loss), live_seed in zip(queries, live_seeds, strict=True):
        served_start = time.perf_counter()
        served = dimension_from_surface(
            engine, n=config.n, q=q, target_reliability=target, loss=loss,
            allow_live_fallback=False,
        )
        first = time.perf_counter() - served_start
        timings = [first]
        for _ in range(config.query_repeats - 1):
            tick = time.perf_counter()
            dimension_from_surface(
                engine, n=config.n, q=q, target_reliability=target, loss=loss,
                allow_live_fallback=False,
            )
            timings.append(time.perf_counter() - tick)
        timings.sort()
        served_seconds = timings[len(timings) // 2]

        live_start = time.perf_counter()
        live = dimension_fanout(
            config.n, q, target, loss=loss, conditional_on_spread=True,
            seed=int(live_seed),
        )
        live_seconds = time.perf_counter() - live_start

        spacing = max(
            (hi - lo for lo, hi in zip(fanout_axis, fanout_axis[1:], strict=False)
             if lo - 1e-9 <= live.fanout <= hi + 1e-9),
            default=fanout_axis[-1] - fanout_axis[-2] if len(fanout_axis) > 1 else 1.0,
        )
        tolerance = spacing + 0.25  # one grid cell + the live solver's fanout_tol
        points.append(
            ServingComparisonPoint(
                target_reliability=target,
                q=q,
                loss=loss,
                served_fanout=served.fanout,
                live_fanout=live.fanout,
                served_ci_low=served.ci_low,
                live_ci_low=live.ci_low,
                served_cost=served.cost,
                served_source=served.source,
                tolerance=tolerance,
                agree=bool(
                    served.feasible
                    and live.feasible
                    and abs(served.fanout - live.fanout) <= tolerance
                ),
                served_seconds=served_seconds,
                live_seconds=live_seconds,
                speedup=live_seconds / max(served_seconds, 1e-9),
            )
        )

    pareto = dimension_pareto(
        config.pareto_n,
        0.9,
        config.targets[-1],
        protocol_factory=partial(zoo_protocol, config.pareto_protocol),
        max_rounds=config.pareto_max_rounds,
        seed=int(aux_seeds[1]),
    )

    crash_count = int(round((1.0 - config.targeted_q) * config.targeted_n))
    targeted_model = TargetedCrashModel(failed=tuple(range(1, crash_count + 1)))
    uniform = dimension_fanout(
        config.targeted_n,
        config.targeted_q,
        config.targeted_target,
        protocol_factory=partial(zoo_protocol, "fixed-fanout"),
        rounds=config.pareto_max_rounds,
        seed=int(aux_seeds[2]),
    )
    targeted = dimension_fanout(
        config.targeted_n,
        config.targeted_q,
        config.targeted_target,
        protocol_factory=partial(zoo_protocol, "fixed-fanout"),
        rounds=config.pareto_max_rounds,
        failure_model=targeted_model,
        seed=int(aux_seeds[3]),
    )

    return SurfaceDimensioningResult(
        config=config,
        points=tuple(points),
        surface_cells=surface.cells,
        surface_build_seconds=build_seconds,
        pareto_frontier=pareto.frontier,
        pareto_best_cost=pareto.best_cost,
        pareto_replicas=pareto.replicas_used,
        targeted_fanout=targeted.fanout,
        uniform_fanout=uniform.fanout,
    )
