"""Sec. 4 — large-``n`` empirical validation of the percolation formulas.

The paper derives reliability analytically: the gossip graph is a generalized
random graph, the critical nonfailed ratio is ``q_c = 1 / G1'(1)`` (Eq. 3),
and the reliability is the giant-component size solved from the generating
functions (Eq. 4).  Sections 5-6 only validate this indirectly, through round
simulations at ``n ≤ 5000``.  This experiment checks the percolation claims
*graph-side* at ``n`` up to ``10⁶`` — two orders of magnitude beyond the
paper — using the batched ensemble engine (:mod:`repro.graphs.ensemble`):

* the **undirected configuration-model** giant fraction under site
  percolation, measured on the ensemble the formulas are derived on, must
  converge to Eq. 4 for every supercritical ``q`` in the grid;
* the **directed gossip graph's** source-reachability reliability
  (conditional on take-off) must match the same curve — for Poisson fanouts
  the out-component equation coincides with Eq. 4, which is exactly the
  approximation the paper leans on; and
* the pooled empirical degree moments give ``1 / G1'(1)``, pinning the
  critical ratio of Eq. 3 per group size.

Subcritical points must stay near zero and near-critical points are reported
but not gated (finite-size effects peak at ``q_c``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.distributions import PoissonFanout
from repro.core.percolation import critical_ratio, giant_component_size
from repro.graphs.ensemble import GossipGraphEnsemble, percolation_ensemble
from repro.utils.rng import spawn_seeds
from repro.utils.tables import format_table
from repro.utils.validation import check_integer, check_probability

__all__ = [
    "Sec4Config",
    "Sec4Point",
    "Sec4CriticalEstimate",
    "Sec4Result",
    "run_sec4",
]

EXPERIMENT_ID = "sec4_percolation_validation"
PAPER_REFERENCE = (
    "Sec. 4 — percolation validation: giant components vs Eqs. 3-4 at n up to 1e6"
)


@dataclass(frozen=True)
class Sec4Config:
    """Configuration of the large-``n`` percolation validation.

    Attributes
    ----------
    ns:
        Group sizes; the default spans 10⁴ … 10⁶ (the round simulator's
        practical ceiling is ~5·10³ per execution).
    qs:
        Nonfailed-ratio grid.  With the default Poisson mean fanout 4 the
        critical ratio (Eq. 3) is 0.25, so the grid brackets the transition.
    mean_fanout:
        Mean of the Poisson fanout distribution ``P``.
    replicas:
        Graph replicas per ``(n, q)`` point.
    replicas_large / large_n_threshold:
        Replica count used once ``n >= large_n_threshold`` (million-node
        replicas are seconds each; a handful suffices because the
        per-replica variance shrinks with ``n``).
    seed:
        Base seed; every ``(n, q)`` point derives an independent stream.
    """

    ns: tuple = (10_000, 100_000, 1_000_000)
    qs: tuple = (0.15, 0.3, 0.45, 0.6, 0.8, 1.0)
    mean_fanout: float = 4.0
    replicas: int = 8
    replicas_large: int = 3
    large_n_threshold: int = 500_000
    seed: int = 20080408

    def __post_init__(self) -> None:
        if not self.ns or not self.qs:
            raise ValueError("ns and qs must be non-empty")
        for n in self.ns:
            check_integer("n", n, minimum=2)
        for q in self.qs:
            check_probability("q", q)
        check_integer("replicas", self.replicas, minimum=1)
        check_integer("replicas_large", self.replicas_large, minimum=1)

    def distribution(self) -> PoissonFanout:
        """Return the fanout distribution ``P`` of the configuration."""
        return PoissonFanout(self.mean_fanout)

    def replicas_for(self, n: int) -> int:
        """Return the replica count for group size ``n``."""
        return self.replicas_large if n >= self.large_n_threshold else self.replicas

    def with_scale(self, factor: float) -> "Sec4Config":
        """Return a shrunken copy for quick runs (CLI ``--scale``)."""
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"scale factor must be in (0, 1], got {factor}")
        ns = tuple(sorted({max(2000, int(n * factor)) for n in self.ns}))
        return replace(self, ns=ns, replicas=max(2, int(self.replicas * factor)))


@dataclass(frozen=True)
class Sec4Point:
    """Measurements of one ``(n, q)`` grid point.

    ``giant_empirical`` is the configuration-model ensemble's mean giant
    fraction (the direct Eq. 4 check); ``gossip_reliability`` is the directed
    gossip ensemble's conditional reachability (NaN when no replica took
    off, expected deep in the subcritical phase).
    """

    n: int
    q: float
    replicas: int
    analytical: float
    giant_empirical: float
    giant_std: float
    gossip_reliability: float
    gossip_std: float

    def giant_error(self) -> float:
        """Absolute error of the configuration-model giant fraction vs Eq. 4."""
        return abs(self.giant_empirical - self.analytical)

    def reliability_error(self) -> float:
        """Absolute error of the gossip reachability vs Eq. 4 (NaN-safe)."""
        if np.isnan(self.gossip_reliability):
            return 0.0 if self.analytical == 0.0 else float("nan")
        return abs(self.gossip_reliability - self.analytical)


@dataclass(frozen=True)
class Sec4CriticalEstimate:
    """Empirical vs analytical critical ratio (Eq. 3) for one group size."""

    n: int
    empirical: float
    analytical: float

    def error(self) -> float:
        """Absolute error of the empirical critical ratio."""
        return abs(self.empirical - self.analytical)


@dataclass(frozen=True)
class Sec4Result:
    """Result of the percolation validation experiment."""

    config: Sec4Config
    points: tuple
    critical: tuple

    def to_table(self, *, precision: int = 4) -> str:
        """Render the grid and the per-``n`` critical-ratio estimates."""
        headers = ["n", "q", "replicas", "eq4", "giant_emp", "giant_std", "gossip_rel", "err_giant"]
        rows = [
            [
                p.n,
                p.q,
                p.replicas,
                p.analytical,
                p.giant_empirical,
                p.giant_std,
                p.gossip_reliability,
                p.giant_error(),
            ]
            for p in self.points
        ]
        grid = format_table(headers, rows, precision=precision)
        crit_rows = [[c.n, c.empirical, c.analytical, c.error()] for c in self.critical]
        crit = format_table(
            ["n", "qc_empirical", "qc_eq3", "err"], crit_rows, precision=precision
        )
        return f"{grid}\n\ncritical ratio (Eq. 3):\n{crit}"

    def check_shape(self, *, tolerance: float = 0.04) -> list[str]:
        """Check the convergence claims of the validation.

        1. Supercritical points (``q >= q_c + 0.1``): the configuration-model
           giant fraction and the gossip reachability both sit within
           ``tolerance`` (plus Monte-Carlo slack) of Eq. 4.
        2. Subcritical points (``q <= q_c - 0.05``): the giant fraction is
           vanishing.
        3. The empirical critical ratio matches Eq. 3 per group size.
        4. Convergence in ``n``: the worst supercritical error does not grow
           from the smallest to the largest group size.
        """
        problems: list[str] = []
        qc = critical_ratio(self.config.distribution())
        worst: dict[int, float] = {}
        for p in self.points:
            if p.q >= qc + 0.1:
                slack = 4.0 * p.giant_std / np.sqrt(p.replicas)
                if p.giant_error() > tolerance + slack:
                    problems.append(
                        f"n={p.n} q={p.q}: giant fraction {p.giant_empirical:.4f} "
                        f"deviates from Eq. 4 {p.analytical:.4f} by {p.giant_error():.4f}"
                    )
                # The gossip estimate averages only the take-off replicas (a
                # smaller, noisier sample than the percolation ensemble), so
                # it gets its own Monte-Carlo slack.
                gossip_slack = 4.0 * p.gossip_std / np.sqrt(p.replicas)
                if not np.isnan(p.gossip_reliability) and p.reliability_error() > tolerance + gossip_slack:
                    problems.append(
                        f"n={p.n} q={p.q}: gossip reachability {p.gossip_reliability:.4f} "
                        f"deviates from Eq. 4 {p.analytical:.4f}"
                    )
                worst[p.n] = max(worst.get(p.n, 0.0), p.giant_error())
            elif p.q <= qc - 0.05:
                if p.giant_empirical > 0.1:
                    problems.append(
                        f"n={p.n} q={p.q}: subcritical giant fraction {p.giant_empirical:.4f} "
                        "is not vanishing"
                    )
        for c in self.critical:
            if c.error() > 0.05:
                problems.append(
                    f"n={c.n}: empirical critical ratio {c.empirical:.4f} "
                    f"misses Eq. 3 {c.analytical:.4f}"
                )
        if len(worst) >= 2:
            ns_sorted = sorted(worst)
            if worst[ns_sorted[-1]] > worst[ns_sorted[0]] + 0.01:
                problems.append(
                    "supercritical error grows with n "
                    f"({worst[ns_sorted[0]]:.4f} at n={ns_sorted[0]} vs "
                    f"{worst[ns_sorted[-1]]:.4f} at n={ns_sorted[-1]})"
                )
        return problems


def run_sec4(config: Sec4Config | None = None) -> Sec4Result:
    """Run the percolation validation over the full ``(n, q)`` grid."""
    config = config or Sec4Config()
    dist = config.distribution()
    qc = critical_ratio(dist)
    points: list[Sec4Point] = []
    critical: list[Sec4CriticalEstimate] = []
    seeds = iter(spawn_seeds(2 * len(config.ns) * len(config.qs), config.seed))
    for n in config.ns:
        replicas = config.replicas_for(n)
        moments_estimate: float | None = None
        for q in config.qs:
            analytical = giant_component_size(dist, q)
            gossip = GossipGraphEnsemble(n, dist, q).realise(replicas, seed=next(seeds))
            perc = percolation_ensemble(dist, n, q, repetitions=replicas, seed=next(seeds))
            spread = gossip.spread_occurred()
            gossip_std = (
                float(gossip.reliability[spread].std(ddof=1)) if spread.sum() > 1 else 0.0
            )
            points.append(
                Sec4Point(
                    n=n,
                    q=q,
                    replicas=replicas,
                    analytical=analytical,
                    giant_empirical=perc.mean_fraction(),
                    giant_std=perc.std_fraction(),
                    gossip_reliability=gossip.conditional_reliability(),
                    gossip_std=gossip_std,
                )
            )
            # The pooled degree moments of the largest-q ensemble give the
            # cleanest Eq. 3 estimate (most alive members to pool over).
            if q == max(config.qs):
                moments_estimate = gossip.empirical_critical_ratio()
        critical.append(
            Sec4CriticalEstimate(
                n=n,
                empirical=moments_estimate if moments_estimate is not None else float("inf"),
                analytical=qc,
            )
        )
    return Sec4Result(config=config, points=tuple(points), critical=tuple(critical))
