"""Route Driven Gossip (RDG) style protocol.

Luo, Eugster and Hubaux's RDG targets mobile ad-hoc networks: data packets,
negative acknowledgments and membership information are all gossiped
uniformly, and missing packets are recovered with a pull ("gossiper-pull")
step driven by packet identifiers seen in gossip headers.  Stripped of the
routing specifics, the dissemination core alternates:

* **push**: every nonfailed member holding the message forwards it to
  ``fanout`` random peers,
* **pull**: every nonfailed member *without* the message asks ``pull_fanout``
  random peers; any queried peer that has it responds (one request plus one
  response message each).

The pull phase is what distinguishes RDG-style protocols from pure push and
lets them patch the last few percent of members at modest extra cost.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import Protocol
from repro.simulation.protocol_batch import sample_group_targets_batch
from repro.simulation.transport import Transport
from repro.utils.validation import check_integer

__all__ = ["RouteDrivenGossip"]


class RouteDrivenGossip(Protocol):
    """Push/pull gossip with NACK-style recovery rounds."""

    name = "rdg"

    def __init__(self, fanout: int = 2, rounds: int = 6, pull_fanout: int = 1) -> None:
        self.fanout = check_integer("fanout", fanout, minimum=1)
        self.rounds = check_integer("rounds", rounds, minimum=1)
        self.pull_fanout = check_integer("pull_fanout", pull_fanout, minimum=0)

    def _disseminate_batch(
        self,
        n: int,
        alive: np.ndarray,
        source: int,
        rng: np.random.Generator,
        transport: Transport,
    ) -> np.ndarray:
        repetitions = int(alive.shape[0])
        has_message = np.zeros((repetitions, n), dtype=bool)
        has_message[:, source] = True
        has_flat = has_message.ravel()
        alive_flat = alive.ravel()

        active = np.ones(repetitions, dtype=bool)
        pull_fanout = min(self.pull_fanout, n - 1)
        for _ in range(self.rounds):
            active = active | transport.pending_mask()
            if not active.any():
                break
            # Absent members neither push, pull, nor answer pulls.
            present = transport.next_round()
            transport.rounds += active
            # ---------------------------------------------------------- push
            holders = has_message & alive & active[:, None]
            if present is not None:
                holders &= present
            active &= holders.any(axis=1)
            rep_idx, mem_idx = np.nonzero(holders & active[:, None])
            cells = rep_idx[:0]
            if rep_idx.size:
                cells, target_replica = sample_group_targets_batch(
                    n, rep_idx, mem_idx, self.fanout, rng
                )
                cells, _ = transport.send(cells, target_replica)
            cells, times, _ = transport.arrive(cells)
            fresh = transport.deliver(cells, times, has_flat, alive_flat)
            # A matured push can revive a replica whose holders had all
            # departed.
            active = active | (np.bincount(fresh // n, minlength=repetitions) > 0)
            # ---------------------------------------------------------- pull
            if pull_fanout > 0:
                missing = alive & ~has_message & active[:, None]
                if present is not None:
                    missing &= present
                miss_rep, miss_mem = np.nonzero(missing)
                if miss_rep.size:
                    peer_cells, peer_replica = sample_group_targets_batch(
                        n, miss_rep, miss_mem, pull_fanout, rng
                    )
                    puller = np.repeat(np.arange(miss_rep.size), pull_fanout)
                    peer_cells, puller = transport.send(
                        peer_cells, peer_replica, control=True, aux=puller
                    )
                    # One response per missing member whose surviving requests
                    # include at least one nonfailed holder; the response is
                    # one more lossy message, an intra-round round trip.
                    hit = has_flat[peer_cells] & alive_flat[peer_cells]
                    responding = np.bincount(puller[hit], minlength=miss_rep.size) > 0
                    recovered, _ = transport.send(
                        miss_rep[responding] * n + miss_mem[responding], miss_rep[responding]
                    )
                    has_flat[recovered] = True
                    transport.round_trip(recovered)
            active &= np.any(alive & ~has_message, axis=1)
        # Pushes still in flight at the horizon arrive anyway.
        transport.drain(has_flat, alive_flat)
        return has_message
