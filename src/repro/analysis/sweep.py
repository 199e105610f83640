"""The fanout-distribution families the CLI offers, at a common mean.

The paper's third claimed advantage over prior models is that analysis "can
be performed for various fanout distributions, rather than only the Poisson
distribution".  ``repro analyze`` and ``repro simulate`` expose that claim
through ``--family``; :func:`default_distribution_families` builds the four
families at one requested mean fanout.
"""

from __future__ import annotations

from repro.core.distributions import (
    FanoutDistribution,
    FixedFanout,
    GeometricFanout,
    PoissonFanout,
    UniformFanout,
)

__all__ = ["default_distribution_families"]


def default_distribution_families(mean_fanout: float) -> dict[str, FanoutDistribution]:
    """Return the standard set of distribution families at a common mean fanout.

    The fixed and uniform families require integer parameters, so the mean is
    rounded for them.  The uniform support is clipped *symmetrically* around
    the rounded mean (half-width ``min(2, rounded)``) so its realised mean is
    exactly the rounded target: the former one-sided clip
    ``U(max(0, rounded - 2), rounded + 2)`` silently inflated the mean once
    ``rounded < 2`` (e.g. a requested mean of 1 became ``U(0, 3)`` with
    realised mean 1.5, a 50% bias).  Residual integer rounding shows in each
    instance's ``mean()``.
    """
    rounded = max(1, int(round(mean_fanout)))
    half_width = min(2, rounded)
    return {
        "poisson": PoissonFanout(mean_fanout),
        "fixed": FixedFanout(rounded),
        "geometric": GeometricFanout.from_mean(mean_fanout),
        "uniform": UniformFanout(rounded - half_width, rounded + half_width),
    }
