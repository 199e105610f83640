"""repro — fault-tolerance modeling of gossip-based reliable multicast.

Reproduction of Fan, Cao, Wu, Raynal, "On Modeling Fault Tolerance of
Gossip-Based Reliable Multicast Protocols", ICPP 2008.

The package is organised as:

* :mod:`repro.core` — the analytical model (fanout distributions, generating
  functions, percolation, reliability and success of gossiping).
* :mod:`repro.graphs` — generalized random-graph substrate (configuration
  model, components, gossip-induced graphs).
* :mod:`repro.simulation` — Monte-Carlo and event-driven simulators of the
  general gossip algorithm with fail-stop failures.
* :mod:`repro.protocols` — baseline reliable-multicast protocols used for
  comparison (fixed fanout, pbcast-style, lpbcast-style, RDG-style, flooding).
* :mod:`repro.analysis` — sweeps, analysis-vs-simulation comparison,
  goodness-of-fit utilities, and the certified dimensioning solvers
  (:func:`~repro.analysis.dimensioning.dimension_fanout`,
  :func:`~repro.analysis.dimensioning.dimension_pareto`).
* :mod:`repro.serving` — dimensioning as a service: precomputed certified
  reliability surfaces, interpolated microsecond queries, and the
  JSON-lines serving loop behind ``repro serve``.
* :mod:`repro.experiments` — one driver per registered experiment: the
  paper's figures plus the extension planes (see ``docs/EXPERIMENTS.md``).

See ``docs/ARCHITECTURE.md`` for how the layers stack onto the paper's
equations (Eqs. 3-4, 11, 12).
"""

from repro.core import (
    FanoutDistribution,
    FixedFanout,
    GeometricFanout,
    GossipModel,
    MixtureFanout,
    PercolationResult,
    PoissonFanout,
    ReliabilityModel,
    UniformFanout,
    critical_ratio,
    giant_component_size,
    mean_component_size,
    mean_fanout_for_reliability,
    min_executions,
    percolation_analysis,
    poisson_critical_fanout,
    poisson_reliability,
    reliability,
    success_count_pmf,
    success_probability,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
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
