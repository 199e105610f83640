"""The dense-grid fanout inverse, kept as the dimensioning solver's test reference.

:func:`dense_grid_dimension` walks a fixed fanout grid at the full replica
budget per point, through the solver's own gossip evaluator and Wilson
decision rule.  ``tests/analysis/test_dimensioning.py`` holds
:func:`repro.analysis.dimensioning.dimension_fanout` to it: both certify the
target, they agree on where the certifiable region begins, and the solver
spends fewer replicas.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy import stats

from repro.analysis.dimensioning import (
    DimensioningResult,
    _gossip_evaluator,
    analytic_required_fanout,
    wilson_interval,
)
from repro.core.distributions import FanoutDistribution, PoissonFanout
from repro.utils.rng import SeedLike, as_generator, spawn_seeds
from repro.utils.validation import check_integer, check_probability


def dense_grid_dimension(
    n: int,
    q: float,
    target_reliability: float,
    *,
    loss: float = 0.0,
    distribution_factory: Callable[[float], FanoutDistribution] = PoissonFanout,
    confidence: float = 0.95,
    fanout_step: float = 0.25,
    replicas_per_point: int = 192,
    max_fanout: float = 64.0,
    conditional_on_spread: bool = False,
    seed: SeedLike = None,
) -> DimensioningResult:
    """Naive dense-grid inverse: the reference the solver is tested against.

    Walks the fanout grid ``min, min+step, ...`` upward, spending the *full*
    replica budget at every point (a fixed-grid sweep cannot know in advance
    which points sit on the decision boundary), and returns the first grid
    point whose Wilson lower bound clears the target.  Same decision rule,
    same engines, and the same per-message loss semantics as
    :func:`~repro.analysis.dimensioning.dimension_fanout`, so a comparison of
    the two isolates the search strategy.
    """
    n = check_integer("n", n, minimum=2)
    q = check_probability("q", q)
    target_reliability = check_probability(
        "target_reliability", target_reliability, allow_zero=False, allow_one=False
    )
    loss = check_probability("loss", loss)
    if fanout_step <= 0:
        raise ValueError(f"fanout_step must be positive, got {fanout_step}")
    rng = as_generator(seed)
    evaluate = _gossip_evaluator(n, q, loss, distribution_factory, conditional_on_spread)

    # A point can only ever certify if its budget clears the Wilson floor
    # z^2 rho / (1 - rho) (the perfect-sample bound) — otherwise the grid
    # degenerates into scanning to max_fanout without ever stopping.
    z = float(stats.norm.ppf(0.5 + confidence / 2.0))
    replicas_per_point = max(
        replicas_per_point,
        int(math.ceil(z * z * target_reliability / (1.0 - target_reliability))) + 1,
    )
    start = max(1e-3, 0.5 / max(q * (1.0 - loss), 1e-9))
    replicas_used = 0
    evaluations = 0
    mean, ci_lo, ci_hi = 0.0, 0.0, 1.0
    fanout = start
    while fanout <= max_fanout:
        evaluations += 1
        samples, _ = evaluate(fanout, None, replicas_per_point, spawn_seeds(1, rng)[0])
        replicas_used += replicas_per_point
        mean = float(np.mean(samples))
        ci_lo, ci_hi = wilson_interval(float(np.sum(samples)), len(samples), confidence)
        if ci_lo >= target_reliability:
            return DimensioningResult(
                n=n,
                q=q,
                target_reliability=target_reliability,
                loss=loss,
                confidence=confidence,
                fanout=float(fanout),
                rounds=None,
                analytical_fanout=analytic_required_fanout(
                    target_reliability,
                    q,
                    loss=loss,
                    distribution_factory=distribution_factory,
                ),
                achieved_reliability=mean,
                ci_low=ci_lo,
                ci_high=ci_hi,
                replicas_used=replicas_used,
                evaluations=evaluations,
                feasible=True,
            )
        fanout += fanout_step
    return DimensioningResult(
        n=n,
        q=q,
        target_reliability=target_reliability,
        loss=loss,
        confidence=confidence,
        fanout=float(max_fanout),
        rounds=None,
        analytical_fanout=analytic_required_fanout(
            target_reliability, q, loss=loss, distribution_factory=distribution_factory
        ),
        achieved_reliability=mean,
        ci_low=ci_lo,
        ci_high=ci_hi,
        replicas_used=replicas_used,
        evaluations=evaluations,
        feasible=False,
        certified=bool(ci_hi < target_reliability),
    )
