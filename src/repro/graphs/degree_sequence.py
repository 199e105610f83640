"""Degree (fanout) sequences of the gossip-induced random graph.

The out-degree of a member in one gossip execution is exactly its fanout, so
degree sequences are sampled straight from a
:class:`~repro.core.distributions.FanoutDistribution`.  :class:`DegreeMoments`
holds the empirical moments the graph ensemble compares against the
analytical generating-function predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.distributions import FanoutDistribution
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_integer

__all__ = ["sample_degree_sequence", "DegreeMoments"]


def sample_degree_sequence(
    dist: FanoutDistribution,
    n: int,
    *,
    seed: SeedLike = None,
    max_degree: int | None = None,
) -> np.ndarray:
    """Sample an i.i.d. degree sequence of length ``n`` from ``dist``.

    Parameters
    ----------
    dist:
        Fanout distribution to draw from.
    n:
        Number of members.
    max_degree:
        Optional cap: members cannot gossip to more targets than exist in the
        rest of the group, so simulators pass ``max_degree = n - 1``.
    """
    n = check_integer("n", n, minimum=0)
    rng = as_generator(seed)
    degrees = dist.sample(n, seed=rng)
    if max_degree is not None:
        max_degree = check_integer("max_degree", max_degree, minimum=0)
        degrees = np.minimum(degrees, max_degree)
    return degrees.astype(np.int64)


@dataclass(frozen=True)
class DegreeMoments:
    """Empirical moments of a degree sequence.

    Attributes
    ----------
    mean:
        Sample mean, estimator of ``G0'(1)``.
    second_factorial:
        Sample mean of ``k (k - 1)``, estimator of ``G0''(1)``.
    mean_excess:
        ``second_factorial / mean`` — estimator of ``G1'(1)``, whose
        reciprocal is the empirical critical ratio (Eq. 3).
    variance:
        Sample variance of the degrees.
    """

    mean: float
    second_factorial: float
    mean_excess: float
    variance: float
