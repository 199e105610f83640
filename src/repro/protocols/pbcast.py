"""Bimodal-Multicast (pbcast) style protocol.

Birman et al.'s Bimodal Multicast has two phases: an unreliable best-effort
broadcast (e.g. IP multicast) that reaches most members, followed by rounds
of anti-entropy gossip in which every member summarises the messages it has
seen to a few random peers and peers that discover they are missing a message
request a retransmission.  The dissemination core modelled here keeps exactly
that structure:

1. the source's best-effort broadcast reaches each member independently with
   probability ``broadcast_reach`` (losses model the unreliable transport),
2. for ``rounds`` anti-entropy rounds, every nonfailed member that has the
   message gossips a digest to ``fanout`` random peers; a nonfailed peer that
   is missing the message pulls it back (costing one extra message).

The bimodal character — runs either reach almost everyone or almost no one —
emerges from the same percolation effect the paper analyses.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import Protocol
from repro.simulation.protocol_batch import sample_group_targets_batch
from repro.simulation.transport import Transport
from repro.utils.validation import check_integer, check_probability

__all__ = ["PbcastProtocol"]


class PbcastProtocol(Protocol):
    """Unreliable broadcast followed by anti-entropy gossip rounds."""

    name = "pbcast"

    def __init__(self, fanout: int = 2, rounds: int = 5, broadcast_reach: float = 0.8) -> None:
        self.fanout = check_integer("fanout", fanout, minimum=1)
        self.rounds = check_integer("rounds", rounds, minimum=0)
        self.broadcast_reach = check_probability("broadcast_reach", broadcast_reach)

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

        # Phase 1: one (R, n) draw realises every replica's unreliable
        # broadcast.  All n-1 legs per replica are sent (and may be lost)
        # before the anti-entropy rounds, departing at time 0; only members
        # that are up can buffer the message.
        reached = rng.random((repetitions, n)) < self.broadcast_reach
        others = np.flatnonzero(np.arange(n) != source)
        legs = (np.arange(repetitions, dtype=np.int64)[:, None] * n + others).ravel()
        legs, _ = transport.send(legs, legs // n)
        legs, times, _ = transport.arrive(legs[reached.ravel()[legs]])
        transport.deliver(legs, times, has_flat, alive_flat)

        # Phase 2: anti-entropy rounds advance all replicas in lock-step;
        # a replica leaves the batch once a round produces no recovery
        # (converged) — unless messages
        # are still in flight for it, which can seed later recoveries.
        active = np.ones(repetitions, dtype=bool)
        for _ in range(self.rounds):
            active = active | transport.pending_mask()
            if not active.any():
                break
            present = transport.next_round()
            transport.rounds += active
            holders = has_message & alive & active[:, None]
            if present is not None:
                # Departed holders stop gossiping digests.
                holders &= present
            active &= holders.any(axis=1)
            rep_idx, mem_idx = np.nonzero(holders & active[:, None])
            cells = rep_idx[:0]
            if rep_idx.size:
                cells, target_replica = sample_group_targets_batch(
                    n, rep_idx, mem_idx, self.fanout, rng
                )
                cells, _ = transport.send(cells, target_replica, control=True)
            # Digests ride the latency plane too: a slow digest triggers its
            # pull in the round it lands, not the round it was sent.
            cells, digest_times, _ = transport.arrive(cells, channel="digest")
            # A digest landing on a nonfailed peer that misses the message
            # triggers one pull each (duplicates within the round
            # included); the pull round trip is one lossy
            # message — only surviving pulls recover the payload, a pull
            # latency draw after the digest's arrival instant.
            pulling = alive_flat[cells] & ~has_flat[cells]
            pull_cells = cells[pulling]
            pull_cells, pull_times = transport.send(
                pull_cells,
                pull_cells // n,
                aux=None if digest_times is None else digest_times[pulling],
            )
            transport.record(pull_cells, transport.reply(pull_times))
            # A matured digest can recover a member in a replica that had
            # already converged; the recovery itself is what keeps (or
            # makes) a replica active.
            active = np.bincount(pull_cells // n, minlength=repetitions) > 0
            has_flat[pull_cells] = True
        # Broadcast legs still in flight at the horizon arrive anyway; in-flight
        # digests die with the protocol (nobody answers them).
        transport.drain(has_flat, alive_flat)
        return has_message
