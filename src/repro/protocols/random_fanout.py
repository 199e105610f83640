"""The paper's general gossip algorithm wrapped in the common protocol interface.

Functionally identical to :func:`repro.simulation.gossip.simulate_gossip_once`;
exposing it as a :class:`~repro.protocols.base.Protocol` lets the baseline
comparison benchmark treat "the paper's algorithm" as just another row of the
protocol table.
"""

from __future__ import annotations

import numpy as np

from repro.core.distributions import FanoutDistribution
from repro.protocols.base import Protocol
from repro.simulation.failures import FailurePattern
from repro.simulation.gossip import simulate_gossip_batch, simulate_gossip_once
from repro.simulation.network import NetworkModel
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

    def _disseminate(
        self,
        n: int,
        alive: np.ndarray,
        source: int,
        rng: np.random.Generator,
        network: NetworkModel | None = None,
    ) -> tuple[np.ndarray, int, int, int]:
        pattern = FailurePattern(alive=alive, timing=np.full(n, None, dtype=object))
        execution = simulate_gossip_once(
            n,
            self.distribution,
            q=1.0,  # failures are supplied through the explicit pattern
            source=source,
            seed=rng,
            failure_pattern=pattern,
            network=network,
        )
        return execution.delivered, execution.messages_sent, execution.rounds, 0

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
