"""``GossipModel`` — the ``Gossip(n, P, q)`` façade (Section 4.1).

A :class:`GossipModel` ties together the three ingredients of the paper's
model definition — the group size ``n``, the fanout distribution ``P``, and
the nonfailed-member ratio ``q`` — and exposes both faces of the study:

* the **analytical** quantities (reliability, critical point, success of
  gossiping, required executions), computed with the generating-function
  machinery of this subpackage, and
* the **simulated** quantities, delegated to :mod:`repro.simulation` (the
  Monte-Carlo counterpart of the paper's MATLAB experiments).

The simulation imports are performed lazily inside the methods so the
analytical core has no dependency on the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.distributions import FanoutDistribution, PoissonFanout
from repro.core.percolation import PercolationResult, percolation_analysis
from repro.core.reliability import reliability as analytical_reliability
from repro.core.success import min_executions, success_probability
from repro.utils.rng import SeedLike
from repro.utils.validation import check_integer, check_probability

if TYPE_CHECKING:
    from repro.simulation.metrics import ReliabilityEstimate

__all__ = ["GossipModel"]


@dataclass
class GossipModel:
    """The paper's ``Gossip(n, P, q)`` model.

    Parameters
    ----------
    n:
        Number of members in the multicast group ``G`` (the source node is
        member 0 and is assumed never to fail, per Section 3).
    distribution:
        Fanout distribution ``P``; every member draws its fanout from it
        independently when it first receives the message.
    q:
        Nonfailed-member ratio: the expected fraction of members that do not
        crash during gossiping.

    Examples
    --------
    >>> from repro import GossipModel, PoissonFanout
    >>> model = GossipModel(n=1000, distribution=PoissonFanout(4.0), q=0.9)
    >>> round(model.reliability(), 3)
    0.97
    >>> model.min_executions(0.999)
    2
    """

    n: int
    distribution: FanoutDistribution
    q: float
    _analysis_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.n = check_integer("n", self.n, minimum=2)
        if not isinstance(self.distribution, FanoutDistribution):
            raise TypeError(
                "distribution must be a FanoutDistribution, got "
                f"{type(self.distribution).__name__}"
            )
        self.q = check_probability("q", self.q)

    # ------------------------------------------------------------ analysis
    @classmethod
    def poisson(cls, n: int, mean_fanout: float, q: float) -> "GossipModel":
        """Convenience constructor for the Poisson case study ``Gossip(n, Po(z), q)``."""
        return cls(n=n, distribution=PoissonFanout(mean_fanout), q=q)

    def analysis(self) -> PercolationResult:
        """Return the full percolation analysis (cached)."""
        if "analysis" not in self._analysis_cache:
            self._analysis_cache["analysis"] = percolation_analysis(self.distribution, self.q)
        return self._analysis_cache["analysis"]

    def reliability(self) -> float:
        """Return the analytical reliability ``R(q, P)`` of one execution."""
        return analytical_reliability(self.distribution, self.q)

    def critical_ratio(self) -> float:
        """Return ``q_c``, the smallest nonfailed ratio with non-zero reliability."""
        return self.analysis().critical_ratio

    def is_supercritical(self) -> bool:
        """Return ``True`` when ``q > q_c`` (a giant component exists)."""
        return self.analysis().supercritical

    def success_probability(self, executions: int) -> float:
        """Return ``Pr(S(q, P, t))`` using the analytical reliability (Eq. 5)."""
        return success_probability(self.reliability(), executions)

    def min_executions(self, required_success: float) -> int:
        """Return the minimum executions to reach ``required_success`` (Eq. 6)."""
        return min_executions(required_success, self.reliability())

    def max_tolerable_failure_ratio(self, min_reliability: float) -> float:
        """Return the largest failed-node ratio keeping reliability above target."""
        from repro.core.reliability import ReliabilityModel

        return ReliabilityModel(self.distribution).tolerable_failure_ratio(min_reliability)

    # ---------------------------------------------------------- simulation
    def simulate_reliability(
        self,
        *,
        repetitions: int = 20,
        seed: SeedLike = None,
        processes: int | None = 1,
    ) -> ReliabilityEstimate:
        """Estimate the reliability by Monte-Carlo simulation.

        Mirrors the paper's simulation protocol: each repetition runs one
        execution of the gossip algorithm on a fresh failure pattern and
        reports the fraction of nonfailed members reached; the returned
        record aggregates the repetitions.  See
        :func:`repro.simulation.runner.estimate_reliability`.
        """
        from repro.simulation.runner import estimate_reliability

        return estimate_reliability(
            n=self.n,
            distribution=self.distribution,
            q=self.q,
            repetitions=repetitions,
            seed=seed,
            processes=processes,
        )

    # ----------------------------------------------------------- metadata
    def describe(self) -> dict:
        """Return a metadata dict (used in experiment records and tables)."""
        return {
            "n": self.n,
            "q": self.q,
            "distribution": self.distribution.describe(),
            "mean_fanout": self.distribution.mean(),
            "critical_ratio": self.critical_ratio(),
            "analytical_reliability": self.reliability(),
        }
