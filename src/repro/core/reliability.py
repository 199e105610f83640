"""Reliability of gossiping ``R(q, P)`` (Section 4.2, case (1)).

The paper defines the reliability of gossiping as the expected fraction of
nonfailed members that receive the message in one execution of the general
gossip algorithm, and identifies it with the size of the giant component of
the gossip-induced generalized random graph.  This module wraps the
percolation machinery into the reliability-centric API used by experiments
and benchmarks:

* :func:`reliability` — point evaluation of ``R(q, P)``, and
* :class:`ReliabilityModel` — an object-style wrapper bundling a fanout
  distribution with failure information.

Eq. 12, the design-oriented inverse, is
:func:`repro.core.poisson_case.mean_fanout_for_reliability`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.distributions import FanoutDistribution, PoissonFanout
from repro.core.percolation import (
    PercolationResult,
    critical_ratio,
    giant_component_size,
    percolation_analysis,
)
from repro.core.poisson_case import poisson_reliability
from repro.utils.validation import check_probability

__all__ = [
    "reliability",
    "ReliabilityModel",
]


def reliability(dist: FanoutDistribution, q: float) -> float:
    """Return the analytical reliability ``R(q, P)`` for one execution.

    For a :class:`~repro.core.distributions.PoissonFanout` the closed form of
    Eq. 11 is used; any other distribution goes through the generic
    generating-function solver.
    """
    q = check_probability("q", q)
    if isinstance(dist, PoissonFanout):
        return poisson_reliability(dist.mean_fanout, q)
    return giant_component_size(dist, q)


@dataclass
class ReliabilityModel:
    """Reliability analysis of a fixed fanout distribution across failure levels.

    This is the object-oriented face of the reliability equations, convenient
    when a single distribution is probed at many nonfailed ratios (the way
    the paper's Figs. 4-5 sweep ``q``).

    Parameters
    ----------
    distribution:
        Fanout distribution ``P`` of the gossip algorithm.
    """

    distribution: FanoutDistribution
    _cache: dict = field(default_factory=dict, repr=False)

    def critical_ratio(self) -> float:
        """Return ``q_c`` below which reliability is zero (Eq. 3)."""
        return critical_ratio(self.distribution)

    def reliability(self, q: float) -> float:
        """Return ``R(q, P)``; results are memoised per ``q``."""
        q = check_probability("q", q)
        if q not in self._cache:
            self._cache[q] = reliability(self.distribution, q)
        return self._cache[q]

    def analysis(self, q: float) -> PercolationResult:
        """Return the full percolation record at ratio ``q``."""
        return percolation_analysis(self.distribution, q)

    def tolerable_failure_ratio(self, min_reliability: float, *, tol: float = 1e-6) -> float:
        """Return the maximum failed-node ratio keeping reliability >= target.

        This is the quantity the paper's abstract promises: "the maximum
        ratio of failed nodes that can be tolerated without reducing the
        required degree of reliability".  Computed by bisection on ``q``
        (reliability is monotone non-decreasing in ``q``); returns 0.0 when
        even a failure-free group cannot reach the target.
        """
        min_reliability = check_probability(
            "min_reliability", min_reliability, allow_zero=False, allow_one=False
        )
        if self.reliability(1.0) < min_reliability:
            return 0.0
        lo, hi = 0.0, 1.0  # reliability(hi) >= target, reliability(lo) < target (usually)
        if self.reliability(1e-9) >= min_reliability:
            return 1.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if self.reliability(mid) >= min_reliability:
                hi = mid
            else:
                lo = mid
        q_min = hi
        return 1.0 - q_min
