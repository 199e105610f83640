"""Rendering experiment results as fixed-width tables.

The benchmark harness prints "the same rows/series the paper reports"; these
functions turn the structured result objects into those printable tables so
benchmarks, examples, and EXPERIMENTS.md all show identical formatting.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from repro.simulation.metrics import SuccessCountResult
from repro.simulation.runner import SweepResult
from repro.utils.tables import format_table

__all__ = [
    "sweep_to_table",
    "pmf_to_table",
    "dimensioning_to_table",
]


def sweep_to_table(sweep: SweepResult, *, precision: int = 4) -> str:
    """Render a reliability sweep as a (fanout, q, simulated, analytical, error) table."""
    headers = ["mean_fanout", "q", "simulated", "analytical", "abs_error"]
    return format_table(headers, sweep.to_rows(), precision=precision)


def pmf_to_table(result: SuccessCountResult, *, precision: int = 4) -> str:
    """Render a success-count distribution as (k, simulated, analytical) rows."""
    headers = ["k", "simulated_Pr(X=k)", "binomial_Pr(X=k)"]
    rows = [
        (int(k), float(result.empirical_pmf[k]), float(result.analytical_pmf[k]))
        for k in np.arange(result.executions + 1)
    ]
    return format_table(headers, rows, precision=precision)


def dimensioning_to_table(points: Iterable[Any], *, precision: int = 4) -> str:
    """Render auto-dimensioning cells as one row per solved cell.

    ``points`` is any iterable of objects with the
    :class:`~repro.experiments.dimensioning.DimensioningPoint` /
    :class:`~repro.analysis.dimensioning.DimensioningResult` field surface
    (``fanout``, ``rounds``, ``analytical_fanout``, the achieved interval,
    and the solver cost counters); the optional ``protocol`` field column is
    included when present so both the per-protocol experiment grid and bare
    distribution-mode solver results render through the same code.
    """
    points = list(points)
    with_protocol = any(getattr(p, "protocol", None) is not None for p in points)
    headers = (["protocol"] if with_protocol else []) + [
        "target",
        "q",
        "loss",
        "fanout",
        "rounds",
        "analytic_f",
        "achieved",
        "ci_low",
        "ci_high",
        "replicas",
        "feasible",
    ]
    rows = []
    for p in points:
        target = getattr(p, "target_reliability", None)
        rows.append(
            ([getattr(p, "protocol", "-")] if with_protocol else [])
            + [
                target,
                p.q,
                p.loss,
                p.fanout,
                "-" if p.rounds is None else p.rounds,
                p.analytical_fanout,
                p.achieved_reliability,
                p.ci_low,
                p.ci_high,
                p.replicas_used,
                p.feasible,
            ]
        )
    return format_table(headers, rows, precision=precision)
