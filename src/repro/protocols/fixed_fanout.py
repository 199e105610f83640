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
from repro.simulation.membership import sample_distinct
from repro.simulation.network import NetworkModel
from repro.simulation.transport import Transport
from repro.utils.validation import check_integer

__all__ = ["FixedFanoutGossip"]


class FixedFanoutGossip(Protocol):
    """Push gossip where every infected member forwards to ``fanout`` peers once."""

    name = "fixed-fanout"

    def __init__(self, fanout: int) -> None:
        self.fanout = check_integer("fanout", fanout, minimum=0)

    def _disseminate(
        self,
        n: int,
        alive: np.ndarray,
        source: int,
        rng: np.random.Generator,
        network: NetworkModel | None = None,
    ) -> tuple[np.ndarray, int, int, int]:
        received = np.zeros(n, dtype=bool)
        delivered = np.zeros(n, dtype=bool)
        received[source] = True
        delivered[source] = True
        messages = 0
        rounds = 0
        frontier = np.array([source], dtype=np.int64)
        while frontier.size:
            rounds += 1
            batches = [
                sample_distinct(rng, n, self.fanout, exclude=int(member))
                for member in frontier
            ]
            batches = [b for b in batches if b.size]
            if not batches:
                break
            targets = np.concatenate(batches)
            messages += int(targets.size)
            if network is not None:
                targets = targets[network.draw_loss(rng, targets.size)]
            unique_targets = np.unique(targets)
            fresh = unique_targets[~received[unique_targets]]
            received[fresh] = True
            newly_alive = fresh[alive[fresh]]
            delivered[newly_alive] = True
            frontier = newly_alive
        return delivered, messages, rounds, 0

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
