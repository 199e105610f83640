"""Distribution ablation sweeps.

The paper's third claimed advantage over prior models is that analysis "can
be performed for various fanout distributions, rather than only the Poisson
distribution".  :func:`distribution_ablation` exercises that claim: it holds
the *mean* fanout fixed, swaps the distribution family, and reports the
analytical and simulated reliabilities side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.distributions import (
    FanoutDistribution,
    FixedFanout,
    GeometricFanout,
    PoissonFanout,
    UniformFanout,
)
from repro.core.percolation import critical_ratio
from repro.core.reliability import reliability as analytical_reliability
from repro.simulation.runner import estimate_reliability
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_in_range, check_integer, check_probability

__all__ = ["DistributionSweep", "distribution_ablation", "default_distribution_families"]


def default_distribution_families(mean_fanout: float) -> dict[str, FanoutDistribution]:
    """Return the standard set of distribution families at a common mean fanout.

    The fixed and uniform families require integer parameters, so the mean is
    rounded for them.  The uniform support is clipped *symmetrically* around
    the rounded mean (half-width ``min(2, rounded)``) so its realised mean is
    exactly the rounded target: the former one-sided clip
    ``U(max(0, rounded - 2), rounded + 2)`` silently inflated the mean once
    ``rounded < 2`` (e.g. a requested mean of 1 became ``U(0, 3)`` with
    realised mean 1.5 — a 50% bias that broke the "mean held fixed" contract
    of the ablation).  Residual integer rounding is surfaced per row as
    ``realised_mean`` so comparisons are made at the mean each family
    actually runs with.
    """
    rounded = max(1, int(round(mean_fanout)))
    half_width = min(2, rounded)
    return {
        "poisson": PoissonFanout(mean_fanout),
        "fixed": FixedFanout(rounded),
        "geometric": GeometricFanout.from_mean(mean_fanout),
        "uniform": UniformFanout(rounded - half_width, rounded + half_width),
    }


@dataclass(frozen=True)
class DistributionSweepRow:
    """One row of the distribution ablation: a (family, q) cell.

    ``mean_fanout`` is the *requested* common mean of the ablation;
    ``realised_mean`` is the mean the family's (integer-parameter) instance
    actually has.  The analytical column is always evaluated at the realised
    mean — the same distribution object the simulator draws from — so the
    analysis-vs-simulation comparison stays apples-to-apples even when the
    two means differ by integer rounding.
    """

    family: str
    mean_fanout: float
    realised_mean: float
    q: float
    critical_ratio: float
    analytical: float
    simulated: float
    simulated_std: float

    def absolute_error(self) -> float:
        """Return the analysis-vs-simulation gap for this cell."""
        return abs(self.analytical - self.simulated)

    def mean_bias(self) -> float:
        """Return ``realised_mean - mean_fanout`` (integer-rounding residue)."""
        return self.realised_mean - self.mean_fanout


@dataclass
class DistributionSweep:
    """Results of a distribution-family ablation."""

    n: int
    qs: tuple
    rows: list = field(default_factory=list)

    def families(self) -> list[str]:
        """Return the distribution family names present, in first-seen order."""
        seen: list[str] = []
        for row in self.rows:
            if row.family not in seen:
                seen.append(row.family)
        return seen

    def rows_for_family(self, family: str) -> list[DistributionSweepRow]:
        """Return the rows of one family, ordered by q."""
        return sorted((r for r in self.rows if r.family == family), key=lambda r: r.q)

    def max_absolute_error(self) -> float:
        """Return the worst analysis-vs-simulation gap in the ablation."""
        return max((r.absolute_error() for r in self.rows), default=0.0)


def distribution_ablation(
    n: int,
    mean_fanout: float,
    qs: Sequence[float],
    *,
    families: Mapping[str, FanoutDistribution] | None = None,
    repetitions: int = 10,
    seed: SeedLike = None,
) -> DistributionSweep:
    """Compare reliability across distribution families at a common mean fanout.

    Parameters
    ----------
    n:
        Group size for the simulated column.
    mean_fanout:
        Target mean fanout shared by every family, at most ``n - 1`` (no
        member can address more peers than the group holds).
    qs:
        Nonfailed ratios to evaluate.
    families:
        Mapping of name → distribution; defaults to
        :func:`default_distribution_families`.
    repetitions:
        Simulation repetitions per cell.
    """
    n = check_integer("n", n, minimum=2)
    mean_fanout = check_in_range("mean_fanout", mean_fanout, 0.0, n - 1)
    qs = tuple(float(check_probability("q", q)) for q in qs)
    if families is None:
        families = default_distribution_families(mean_fanout)
    rng = as_generator(seed)

    sweep = DistributionSweep(n=n, qs=qs)
    for name, dist in families.items():
        qc = critical_ratio(dist)
        for q in qs:
            estimate = estimate_reliability(n, dist, q, repetitions=repetitions, seed=rng)
            sweep.rows.append(
                DistributionSweepRow(
                    family=name,
                    mean_fanout=float(mean_fanout),
                    realised_mean=dist.mean(),
                    q=q,
                    critical_ratio=qc,
                    analytical=analytical_reliability(dist, q),
                    simulated=estimate.mean_reliability,
                    simulated_std=estimate.std_reliability,
                )
            )
    return sweep
