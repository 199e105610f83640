"""Shared pytest fixtures for the repro test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.distributions import (
    FixedFanout,
    GeometricFanout,
    MixtureFanout,
    PoissonFanout,
    UniformFanout,
)

#: Deterministic seed used by any test that needs a single reproducible stream.
TEST_SEED = 20080149


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(TEST_SEED)


@pytest.fixture
def poisson4() -> PoissonFanout:
    """The paper's favourite configuration: Poisson fanout with mean 4."""
    return PoissonFanout(4.0)


def _point_masses(weights, start: int = 0) -> MixtureFanout:
    """The fanout with ``P(F = start + i)`` proportional to ``weights[i]``.

    A mixture of fixed fanouts expresses any finite PMF, so the binomial,
    Zipf and tabulated shapes below need no family of their own.
    """
    return MixtureFanout([FixedFanout(start + i) for i in range(len(weights))], weights)


def all_distributions() -> dict[str, object]:
    """One representative instance of every fanout shape, by test id."""
    return {
        "poisson": PoissonFanout(3.0),
        "fixed": FixedFanout(3),
        "binomial": _point_masses(
            [math.comb(10, k) * 0.3**k * 0.7 ** (10 - k) for k in range(11)]
        ),
        "geometric": GeometricFanout.from_mean(3.0),
        "uniform": UniformFanout(1, 5),
        "zipf": _point_masses([k**-2.0 for k in range(1, 13)], start=1),
        "empirical": _point_masses([0.1, 0.2, 0.3, 0.25, 0.15]),
        "mixture": MixtureFanout([FixedFanout(1), PoissonFanout(5.0)], [0.4, 0.6]),
    }


@pytest.fixture(params=list(all_distributions().items()), ids=lambda item: item[0])
def any_distribution(request):
    """Parametrised fixture iterating over every fanout shape."""
    return request.param[1]
