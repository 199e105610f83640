"""The paper's general gossip algorithm wrapped in the common protocol interface.

Its hook hands the batch to :func:`repro.simulation.gossip.simulate_gossip_batch`;
exposing it as a :class:`~repro.protocols.base.Protocol` lets the baseline
comparison benchmark treat "the paper's algorithm" as just another row of the
protocol table.
"""

from __future__ import annotations

import numpy as np

from repro.core.distributions import FanoutDistribution
from repro.protocols.base import Protocol
from repro.simulation.gossip import simulate_gossip_batch
from repro.simulation.transport import Transport

__all__ = ["RandomFanoutGossip"]


class RandomFanoutGossip(Protocol):
    """Push gossip with a per-member random fanout drawn from a distribution."""

    name = "random-fanout"

    def __init__(self, distribution: FanoutDistribution) -> None:
        if not isinstance(distribution, FanoutDistribution):
            raise TypeError(
                f"distribution must be a FanoutDistribution, got {type(distribution).__name__}"
            )
        self.distribution = distribution

    def _disseminate_batch(
        self,
        n: int,
        alive: np.ndarray,
        source: int,
        rng: np.random.Generator,
        transport: Transport,
    ) -> np.ndarray:
        return simulate_gossip_batch(
            n,
            self.distribution,
            1.0,  # failures are supplied through the explicit masks
            repetitions=int(alive.shape[0]),
            source=source,
            seed=rng,
            alive=alive,
            transport=transport,
        ).delivered
