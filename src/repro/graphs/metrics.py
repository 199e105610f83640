"""Empirical graph statistics used to validate the analytical model.

:func:`empirical_giant_component` measures, on realised configuration-model
graphs, the relative size of the giant component under site percolation,
which the generating-function machinery predicts in expectation.  The
integration tests compare it against :mod:`repro.core.percolation` at
moderate ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.distributions import FanoutDistribution
from repro.graphs.components import component_sizes
from repro.graphs.configuration_model import configuration_model_edges
from repro.graphs.degree_sequence import sample_degree_sequence
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_integer, check_probability

__all__ = [
    "empirical_giant_component",
    "GiantComponentEstimate",
]


@dataclass(frozen=True)
class GiantComponentEstimate:
    """Monte-Carlo estimate of the giant component under site percolation.

    Attributes
    ----------
    mean_fraction:
        Average (over repetitions) of the largest component's share of the
        *occupied* (nonfailed) nodes — directly comparable to the paper's
        reliability ``R(q, P)``.
    std_fraction:
        Sample standard deviation across repetitions.
    repetitions:
        Number of independent graphs measured.
    """

    mean_fraction: float
    std_fraction: float
    repetitions: int


def empirical_giant_component(
    dist: FanoutDistribution,
    n: int,
    q: float,
    *,
    repetitions: int = 10,
    seed: SeedLike = None,
) -> GiantComponentEstimate:
    """Estimate the giant-component fraction of ``ζ(n, P)`` under site percolation.

    For each repetition a fresh undirected configuration-model graph is built
    from the fanout distribution, a uniform fraction ``1 - q`` of nodes is
    removed, and the largest remaining component is measured relative to the
    number of occupied nodes.
    """
    n = check_integer("n", n, minimum=1)
    q = check_probability("q", q)
    repetitions = check_integer("repetitions", repetitions, minimum=1)
    rng = as_generator(seed)

    fractions = np.zeros(repetitions)
    for rep in range(repetitions):
        degrees = sample_degree_sequence(dist, n, seed=rng, max_degree=n - 1)
        edges = configuration_model_edges(degrees, seed=rng)
        occupied = rng.random(n) < q
        occ_count = int(occupied.sum())
        if occ_count == 0:
            fractions[rep] = 0.0
            continue
        if edges.size:
            keep = occupied[edges[:, 0]] & occupied[edges[:, 1]]
            kept_edges = edges[keep]
        else:
            kept_edges = edges
        sizes = component_sizes(n, kept_edges)
        # component_sizes counts isolated removed nodes as singleton components;
        # the largest occupied component is still the max because removed nodes
        # are isolated (all their edges were dropped) — unless every occupied
        # node is isolated, in which case the max is 1 and still correct.
        fractions[rep] = sizes[0] / occ_count if occ_count else 0.0
    return GiantComponentEstimate(
        mean_fraction=float(fractions.mean()),
        std_fraction=float(fractions.std(ddof=1)) if repetitions > 1 else 0.0,
        repetitions=repetitions,
    )
