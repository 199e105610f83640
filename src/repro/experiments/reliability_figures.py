"""Shared machinery for the reliability-vs-fanout figures (Figs. 4 and 5).

Both figures use the same protocol — sweep the mean fanout from 1.1 to 6.7 in
steps of 0.4, sweep the nonfailed ratio over two panels of four values, run
20 executions per (fanout, q) pair, and overlay the analytical curve from
Eq. 11 — and differ only in the group size (1000 vs 5000).  The per-figure
modules configure :class:`ReliabilityFigureConfig` accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.compare import SeriesComparison, compare_sweep
from repro.analysis.tables import comparison_to_table, sweep_to_table
from repro.core.poisson_case import poisson_critical_fanout
from repro.simulation.runner import SweepResult, reliability_sweep
from repro.utils.validation import check_choice, check_integer

__all__ = ["ReliabilityFigureConfig", "ReliabilityFigureResult", "run_reliability_figure", "paper_fanout_grid"]


def paper_fanout_grid() -> tuple:
    """Return the paper's fanout grid: 1.1 to 6.7 in increments of 0.4."""
    return tuple(np.round(np.arange(1.1, 6.7 + 1e-9, 0.4), 2))


@dataclass(frozen=True)
class ReliabilityFigureConfig:
    """Configuration of a reliability-vs-fanout figure.

    Attributes
    ----------
    n:
        Group size (1000 for Fig. 4, 5000 for Fig. 5).
    fanouts:
        Mean fanout grid (paper: 1.1 .. 6.7 step 0.4).
    qs_panel_a, qs_panel_b:
        The two panels of nonfailed ratios the paper splits each figure into.
    repetitions:
        Executions per (fanout, q) pair (paper: 20).
    conditional_on_spread:
        Average only over executions whose dissemination took off.  Enabled
        by default because the paper's analytical reliability (the
        giant-component size) corresponds to that conditional branch; see
        :func:`repro.simulation.runner.estimate_reliability`.
    seed:
        Base seed for reproducibility.
    engine:
        Simulation engine: ``"batch"`` (default, replica-parallel) or
        ``"scalar"`` (per-replica reference).
    processes:
        Worker processes (1 = serial; ``None`` = auto).  The sweep maps
        whole cells over the pool, so the pool size never changes a number.
    """

    n: int
    fanouts: tuple = field(default_factory=paper_fanout_grid)
    qs_panel_a: tuple = (0.1, 0.3, 0.5, 1.0)
    qs_panel_b: tuple = (0.4, 0.6, 0.8, 1.0)
    repetitions: int = 20
    conditional_on_spread: bool = True
    seed: int = 20080149
    engine: str = "batch"
    processes: int | None = 1

    def __post_init__(self) -> None:
        check_integer("n", self.n, minimum=2)
        check_integer("repetitions", self.repetitions, minimum=1)
        check_choice("engine", self.engine, ("batch", "scalar"))

    def all_qs(self) -> tuple:
        """Return the union of both panels' ratios, sorted and de-duplicated."""
        return tuple(sorted(set(self.qs_panel_a) | set(self.qs_panel_b)))

    def scaled(self, *, n: int | None = None, repetitions: int | None = None) -> "ReliabilityFigureConfig":
        """Return a copy with a smaller group / fewer repetitions (for quick runs)."""
        return ReliabilityFigureConfig(
            n=n if n is not None else self.n,
            fanouts=self.fanouts,
            qs_panel_a=self.qs_panel_a,
            qs_panel_b=self.qs_panel_b,
            repetitions=repetitions if repetitions is not None else self.repetitions,
            conditional_on_spread=self.conditional_on_spread,
            seed=self.seed,
            engine=self.engine,
            processes=self.processes,
        )


@dataclass(frozen=True)
class ReliabilityFigureResult:
    """Result of a reliability figure: the sweep plus per-``q`` comparison metrics."""

    config: ReliabilityFigureConfig
    sweep: SweepResult
    comparisons: dict

    def to_table(self, *, precision: int = 4) -> str:
        """Render the full sweep (the figure's data points) as a table."""
        return sweep_to_table(self.sweep, precision=precision)

    def comparison_table(self, *, precision: int = 4) -> str:
        """Render the per-``q`` analysis-vs-simulation error metrics."""
        return comparison_to_table(self.comparisons, precision=precision)

    def series(self, q: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (fanouts, simulated, analytical) for one ``q`` curve."""
        points = self.sweep.series_for_q(q)
        return (
            np.array([p.mean_fanout for p in points]),
            np.array([p.simulated for p in points]),
            np.array([p.analytical for p in points]),
        )

    def check_shape(self, *, tolerance: float = 0.12) -> list[str]:
        """Check the qualitative properties the paper reports for Figs. 4-5.

        1. The percolation condition holds: reliability stays near zero while
           the mean fanout is below ``1/q`` and becomes substantial above it.
        2. Simulation tallies with the analytical curve (mean absolute error
           below ``tolerance`` per ``q`` series).
        3. Reliability is (noise-tolerantly) non-decreasing in the fanout and
           in ``q``.
        """
        problems: list[str] = []
        for q, comparison in self.comparisons.items():
            if comparison.mean_absolute_error > tolerance:
                problems.append(
                    f"q={q}: mean |simulation − analysis| = "
                    f"{comparison.mean_absolute_error:.3f} exceeds {tolerance}"
                )
        for q in self.sweep.qs:
            fanouts, simulated, analytical = self.series(q)
            critical = poisson_critical_fanout(q) if q > 0 else float("inf")
            below = simulated[fanouts < critical * 0.8]
            well_above = simulated[fanouts > critical * 1.8]
            if below.size and below.max() > 0.35:
                problems.append(
                    f"q={q}: reliability {below.max():.2f} well below the critical fanout"
                )
            if well_above.size and well_above.min() < 0.3:
                problems.append(
                    f"q={q}: reliability {well_above.min():.2f} well above the critical fanout"
                )
            diffs = np.diff(simulated)
            # The non-decreasing claim only holds where a giant component
            # exists: in the deep-subcritical tail (analytical reliability
            # ~0 on both sides) the conditional average is occasionally
            # spiked by a rare large finite component, which the MAE and
            # below-critical checks already bound.
            meaningful = (analytical[:-1] > 0.05) | (analytical[1:] > 0.05)
            if diffs[meaningful].size and diffs[meaningful].min() < -0.15:
                problems.append(f"q={q}: simulated reliability drops sharply along the fanout axis")
        # Monotonicity in q at the largest fanout.
        qs_sorted = sorted(self.sweep.qs)
        top_fanout = max(self.sweep.fanouts)
        top_values = [
            next(p.simulated for p in self.sweep.series_for_q(q) if p.mean_fanout == top_fanout)
            for q in qs_sorted
        ]
        if any(b < a - 0.15 for a, b in zip(top_values, top_values[1:], strict=False)):
            problems.append("reliability at the largest fanout is not non-decreasing in q")
        return problems


def run_reliability_figure(config: ReliabilityFigureConfig) -> ReliabilityFigureResult:
    """Run the reliability sweep of one figure and compute comparison metrics."""
    sweep = reliability_sweep(
        config.n,
        config.fanouts,
        config.all_qs(),
        repetitions=config.repetitions,
        seed=config.seed,
        conditional_on_spread=config.conditional_on_spread,
        engine=config.engine,
        processes=config.processes,
    )
    comparisons: dict[float, SeriesComparison] = compare_sweep(sweep)
    return ReliabilityFigureResult(config=config, sweep=sweep, comparisons=comparisons)
