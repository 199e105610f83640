"""Fig. 7 — distribution of gossiping success with {f = 6.0, q = 0.6}.

Same protocol as Fig. 6 with the parameter pair {f = 6.0, q = 0.6}.  The
product ``f·q`` equals Fig. 6's, so the analytical single-execution
reliability is identical, but — as the paper points out — the realised
success-count distributions are not exactly the same because the fanout and
the nonfailed ratio influence the gossip dynamics differently.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.success_figures import (
    SuccessFigureConfig,
    SuccessFigureResult,
    run_success_figure,
)

__all__ = ["Fig7Config", "run_fig7"]

EXPERIMENT_ID = "fig7"
PAPER_REFERENCE = "Fig. 7 — The distribution of Gossiping Success with f=6.0, q=0.6"


@dataclass(frozen=True)
class Fig7Config(SuccessFigureConfig):
    """Fig. 7 configuration: {f = 6.0, q = 0.6} in a 2000-member group."""

    mean_fanout: float = 6.0
    q: float = 0.6


def run_fig7(config: Fig7Config | None = None) -> SuccessFigureResult:
    """Run the Fig. 7 experiment."""
    return run_success_figure(config or Fig7Config())
