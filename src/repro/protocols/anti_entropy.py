"""Anti-entropy (push-pull reconciliation) recovery protocol.

The classic epidemic-repair backstop (Demers et al.'s anti-entropy): every
round, **every** member in the group — holder or not — picks ``fanout``
random peers and exchanges a state digest with each.  Whenever exactly one
side of a surviving exchange holds the payload, it is transferred to the
other side (push if the initiator holds it, pull if the peer does).  The
digest and the payload transfer are independently lossy messages, and the
digest is reported as a **control message** through the
``control_messages_sent`` accounting split.

Anti-entropy never stops trying while rounds remain, so a single surviving
copy anywhere in the group eventually repairs everyone — the property pure
push loses the moment a payload message is dropped.  The price is the flat
control overhead of ``n × fanout`` digests per round, which is exactly the
trade the ``recovery_resilience`` experiment makes visible: high control
cost, near-minimal payload cost (≈ one transfer per member), and
reliability that survives loss rates where push protocols collapse.

Under churn, absent members neither initiate nor answer exchanges, so a
digest sent to a departed peer is a wasted send (counted, not dropped) —
the same membership semantics as the rest of the zoo.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import Protocol
from repro.simulation.protocol_batch import sample_group_targets_batch
from repro.simulation.transport import Transport
from repro.utils.validation import check_integer

__all__ = ["AntiEntropyProtocol"]


class AntiEntropyProtocol(Protocol):
    """Periodic push-pull reconciliation across the whole group."""

    name = "anti-entropy"

    def __init__(self, fanout: int = 2, rounds: int = 8) -> None:
        self.fanout = check_integer("fanout", fanout, minimum=1)
        self.rounds = check_integer("rounds", rounds, minimum=0)

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

        fanout = min(self.fanout, n - 1)
        active = np.ones(repetitions, dtype=bool)
        for _ in range(self.rounds):
            active = active | transport.pending_mask()
            active &= np.any(alive & ~has_message, axis=1)
            if not active.any():
                break
            present = transport.next_round()
            transport.rounds += active
            participants = alive & active[:, None]
            if present is not None:
                participants &= present
            rep_idx, mem_idx = np.nonzero(participants)
            snapshot_flat = has_flat.copy()
            cells = sender_cells = rep_idx[:0]
            if rep_idx.size:
                cells, target_replica = sample_group_targets_batch(n, rep_idx, mem_idx, fanout, rng)
                senders = np.repeat(rep_idx * n + mem_idx, fanout)
                cells, sender_cells = transport.send(
                    cells, target_replica, control=True, aux=senders
                )
            # Digests ride the latency plane, each carrying its sender; a slow
            # digest reconciles the pair's states in the round it lands
            # (anti-entropy compares states at exchange time).
            cells, digest_times, sender_cells = transport.arrive(
                cells, channel="digest", aux=sender_cells
            )
            # Transfer whenever a nonfailed peer and its initiator disagree
            # at round start: push to the peer, or pull back to the initiator.
            transfer = alive_flat[cells] & (snapshot_flat[sender_cells] != snapshot_flat[cells])
            if not transfer.any():
                continue
            cells = cells[transfer]
            sender_cells = sender_cells[transfer]
            recipients = np.where(snapshot_flat[sender_cells], cells, sender_cells)
            # The payload lands one transfer leg after the digest's arrival
            # instant (push and pull transfers alike).
            recipients, digest_times = transport.send(
                recipients,
                cells // n,
                aux=None if digest_times is None else digest_times[transfer],
            )
            times = transport.reply(digest_times)
            if times is not None:
                unseen = ~has_flat[recipients]
                transport.record(recipients[unseen], times[unseen])
            has_flat[recipients] = True
        return has_message
