"""Core analytical model from Fan et al. (ICPP 2008).

This subpackage contains the paper's primary contribution: a generalized
random graph model of the gossip process, used to derive

* the reliability of gossiping ``R(q, P)`` as the size of the giant
  component of the gossip-induced random graph (Section 4.2),
* the critical nonfailed-member ratio ``q_c = 1 / G1'(1)`` (Eq. 3),
* the success of gossiping over ``t`` repeated executions (Eqs. 5-6), and
* the closed-form Poisson-fanout case study (Section 4.3, Eqs. 7-12).
"""

from repro.core.distributions import (
    FanoutDistribution,
    PoissonFanout,
    FixedFanout,
    GeometricFanout,
    UniformFanout,
    MixtureFanout,
)
from repro.core.percolation import (
    PercolationResult,
    critical_ratio,
    giant_component_size,
    mean_component_size,
    percolation_analysis,
)
from repro.core.reliability import (
    ReliabilityModel,
    reliability,
)
from repro.core.success import (
    success_probability,
    min_executions,
    success_count_pmf,
)
from repro.core.poisson_case import (
    poisson_reliability,
    poisson_critical_fanout,
    mean_fanout_for_reliability,
)
from repro.core.model import GossipModel

__all__ = [
    "FanoutDistribution",
    "PoissonFanout",
    "FixedFanout",
    "GeometricFanout",
    "UniformFanout",
    "MixtureFanout",
    "PercolationResult",
    "critical_ratio",
    "giant_component_size",
    "mean_component_size",
    "percolation_analysis",
    "ReliabilityModel",
    "reliability",
    "success_probability",
    "min_executions",
    "success_count_pmf",
    "poisson_reliability",
    "poisson_critical_fanout",
    "mean_fanout_for_reliability",
    "GossipModel",
]
