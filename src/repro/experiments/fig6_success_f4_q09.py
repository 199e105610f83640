"""Fig. 6 — distribution of gossiping success with {f = 4.0, q = 0.9}.

2000-member group, Poisson fanout with mean 4.0, nonfailed ratio 0.9, 20
executions per simulation, 100 simulations; the empirical distribution of the
success count ``X`` is compared against the Binomial ``B(20, R(0.9, Po(4)))``
(≈ B(20, 0.967) in the paper's rounding).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.success_figures import (
    SuccessFigureConfig,
    SuccessFigureResult,
    run_success_figure,
)

__all__ = ["Fig6Config", "run_fig6"]

EXPERIMENT_ID = "fig6"
PAPER_REFERENCE = "Fig. 6 — The distribution of Gossiping Success with f=4.0, q=0.9"


@dataclass(frozen=True)
class Fig6Config(SuccessFigureConfig):
    """Fig. 6 configuration: {f = 4.0, q = 0.9} in a 2000-member group."""

    mean_fanout: float = 4.0
    q: float = 0.9


def run_fig6(config: Fig6Config | None = None) -> SuccessFigureResult:
    """Run the Fig. 6 experiment."""
    return run_success_figure(config or Fig6Config())
