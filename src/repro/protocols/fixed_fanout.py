"""Traditional push gossip with a constant fanout.

This is the algorithm the paper's "general gossiping algorithm" generalises:
instead of drawing the fanout from a distribution, every member forwards the
message to exactly ``fanout`` targets chosen uniformly at random the first
time it receives it.  Analytically it corresponds to the
:class:`~repro.core.distributions.FixedFanout` degree distribution.
"""

from __future__ import annotations

import numpy as np

from repro.core.distributions import FixedFanout
from repro.protocols.base import Protocol
from repro.simulation.gossip import simulate_gossip_batch
from repro.simulation.transport import Transport
from repro.utils.validation import check_integer

__all__ = ["FixedFanoutGossip"]


class FixedFanoutGossip(Protocol):
    """Push gossip where every infected member forwards to ``fanout`` peers once."""

    name = "fixed-fanout"

    def __init__(self, fanout: int) -> None:
        self.fanout = check_integer("fanout", fanout, minimum=0)

    def _disseminate_batch(
        self,
        n: int,
        alive: np.ndarray,
        source: int,
        rng: np.random.Generator,
        transport: Transport,
    ) -> np.ndarray:
        # The constant-fanout push process IS the paper's algorithm with a
        # degenerate distribution, so the batched gossip engine does all the
        # work; failures arrive through the pre-drawn alive masks and every
        # send through the batch's transport.
        return simulate_gossip_batch(
            n,
            FixedFanout(self.fanout),
            1.0,  # failures are supplied through the explicit masks
            repetitions=int(alive.shape[0]),
            source=source,
            seed=rng,
            alive=alive,
            transport=transport,
        ).delivered
