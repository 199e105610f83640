"""Fig. 5a/5b — reliability of gossiping in a 5000-member group.

Same protocol as Fig. 4 but with 5000 members; the paper notes the simulation
matches the analysis even better at this size (finite-size effects shrink).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.reliability_figures import (
    ReliabilityFigureConfig,
    ReliabilityFigureResult,
    run_reliability_figure,
)

__all__ = ["Fig5Config", "run_fig5"]

EXPERIMENT_ID = "fig5"
PAPER_REFERENCE = "Figs. 5a/5b — Reliability in a 5000 nodes group"


@dataclass(frozen=True)
class Fig5Config(ReliabilityFigureConfig):
    """Fig. 5 configuration: the shared protocol at group size 5000."""

    n: int = 5000


def run_fig5(config: Fig5Config | None = None) -> ReliabilityFigureResult:
    """Run the Fig. 5 experiment (simulation + analysis, 5000 members)."""
    return run_reliability_figure(config or Fig5Config())
