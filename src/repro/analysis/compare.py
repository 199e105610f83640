"""Analysis-vs-simulation comparison utilities.

The paper's headline claim is that "the simulation results tally with our
analytic results very well".  These helpers quantify that statement for any
pair of series (simulated vs analytical reliability over a fanout sweep) with
the error metrics the integration tests and the EXPERIMENTS.md records use:
mean/max absolute error, root-mean-square error, and the location of the
empirical percolation threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.simulation.runner import SweepResult

__all__ = ["SeriesComparison", "compare_series", "compare_sweep", "threshold_crossing"]


@dataclass(frozen=True)
class SeriesComparison:
    """Error metrics between a simulated series and an analytical series.

    Attributes
    ----------
    xs:
        The common abscissa (e.g. mean fanout values).
    simulated, analytical:
        The two series being compared.
    mean_absolute_error, max_absolute_error, rmse:
        The usual error summaries.
    simulated_threshold, analytical_threshold:
        First abscissa at which each series exceeds the threshold used by
        :func:`compare_series` (NaN when never exceeded).
    """

    xs: np.ndarray
    simulated: np.ndarray
    analytical: np.ndarray
    mean_absolute_error: float
    max_absolute_error: float
    rmse: float
    simulated_threshold: float
    analytical_threshold: float


def threshold_crossing(xs: Sequence[float], ys: Sequence[float], level: float) -> float:
    """Return the first ``x`` at which ``y`` reaches ``level`` (NaN if never)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise ValueError("xs and ys must have the same shape")
    above = np.flatnonzero(ys >= level)
    return float(xs[above[0]]) if above.size else float("nan")


def compare_series(
    xs: Sequence[float],
    simulated: Sequence[float],
    analytical: Sequence[float],
    *,
    threshold_level: float = 0.5,
) -> SeriesComparison:
    """Compare a simulated and an analytical series defined on the same grid."""
    xs = np.asarray(xs, dtype=float)
    simulated = np.asarray(simulated, dtype=float)
    analytical = np.asarray(analytical, dtype=float)
    if not (xs.shape == simulated.shape == analytical.shape):
        raise ValueError("xs, simulated, and analytical must have the same shape")
    if xs.size == 0:
        raise ValueError("series must be non-empty")
    errors = np.abs(simulated - analytical)
    return SeriesComparison(
        xs=xs,
        simulated=simulated,
        analytical=analytical,
        mean_absolute_error=float(errors.mean()),
        max_absolute_error=float(errors.max()),
        rmse=float(np.sqrt(np.mean(errors**2))),
        simulated_threshold=threshold_crossing(xs, simulated, threshold_level),
        analytical_threshold=threshold_crossing(xs, analytical, threshold_level),
    )


def compare_sweep(sweep: SweepResult, *, threshold_level: float = 0.5) -> dict[float, SeriesComparison]:
    """Compare analysis and simulation for every ``q`` series of a sweep."""
    comparisons: dict[float, SeriesComparison] = {}
    for q in sweep.qs:
        points = sweep.series_for_q(q)
        comparisons[q] = compare_series(
            [p.mean_fanout for p in points],
            [p.simulated for p in points],
            [p.analytical for p in points],
            threshold_level=threshold_level,
        )
    return comparisons
