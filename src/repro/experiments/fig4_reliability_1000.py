"""Fig. 4a/4b — reliability of gossiping in a 1000-member group.

Simulation protocol (Section 5.1 of the paper): group size 1000, Poisson
fanout with mean swept from 1.1 to 6.7 in steps of 0.4, nonfailed ratios
{0.1, 0.3, 0.5, 1.0} (panel a) and {0.4, 0.6, 0.8, 1.0} (panel b), 20
executions per pair, averaged; the analytical curve is Eq. 11.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.reliability_figures import (
    ReliabilityFigureConfig,
    ReliabilityFigureResult,
    run_reliability_figure,
)

__all__ = ["Fig4Config", "run_fig4"]

EXPERIMENT_ID = "fig4"
PAPER_REFERENCE = "Figs. 4a/4b — Reliability in a 1000 nodes group"


@dataclass(frozen=True)
class Fig4Config(ReliabilityFigureConfig):
    """Fig. 4 configuration: the shared protocol at group size 1000."""

    n: int = 1000


def run_fig4(config: Fig4Config | None = None) -> ReliabilityFigureResult:
    """Run the Fig. 4 experiment (simulation + analysis, 1000 members)."""
    return run_reliability_figure(config or Fig4Config())
