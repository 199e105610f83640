"""HyParView-style peer sampling: gossip over a self-repairing partial view.

Leitão, Pereira and Rodrigues' HyParView maintains two bounded views per
member: a small **active view** over which all payload gossip travels, and a
larger **passive view** kept as a reservoir of backup peers.  When a send
over an active-view link fails (the peer left the group), the member promotes
a random passive-view entry into the broken slot; a periodic **shuffle**
exchanges entries between the views so the passive reservoir stays fresh.
This is the canonical answer to the failure mode of a static partial view
under churn (lpbcast's views, frozen for the execution, keep pointing at
departed peers), and the protocol this module adds is the zoo's
representative of that family:

* dissemination is plain round-based push gossip (like
  :class:`~repro.protocols.lpbcast.LpbcastProtocol`) but over the *active*
  view only;
* every send to a currently-absent peer is detected (a broken TCP link, in
  HyParView terms) and repaired on the spot from the passive view;
* every ``shuffle_interval`` rounds, each group member swaps one random
  active entry for one random passive entry, at the cost of one control
  message — so the membership service has nonzero message cost even when
  nobody is churning, exactly as in the real protocol.

Under zero churn no link ever breaks, so the repair machinery never draws
randomness and the protocol degrades to "lpbcast with a smaller, slowly
shuffling view".  Under churn the repair path is what separates it from a
static partial view: the ``churn_resilience`` experiment checks it degrades
no faster than lpbcast's frozen views.

The batched hook also measures the membership service itself and stores the
results on ``last_batch_stats``:

* ``view_staleness`` — mean fraction of in-group members' active-view slots
  pointing at absent peers, per round (before repairs);
* ``repairs`` — total broken links repaired from passive views;
* ``repair_latency`` — mean rounds a broken slot stayed stale before its
  repair (stale-slot-rounds / repairs), the time-to-repair proxy.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import Protocol
from repro.simulation.transport import Transport
from repro.utils.sampling import sample_distinct_rows, sample_distinct_rows_excluding
from repro.utils.validation import check_integer

__all__ = ["HyParViewProtocol"]


class HyParViewProtocol(Protocol):
    """Push gossip over bounded active views with passive-view repair and shuffle."""

    name = "hyparview"

    def __init__(
        self,
        fanout: int = 3,
        rounds: int = 8,
        active_size: int = 5,
        passive_size: int = 30,
        shuffle_interval: int = 1,
    ) -> None:
        self.fanout = check_integer("fanout", fanout, minimum=1)
        self.rounds = check_integer("rounds", rounds, minimum=1)
        self.active_size = check_integer("active_size", active_size, minimum=1)
        self.passive_size = check_integer("passive_size", passive_size, minimum=1)
        self.shuffle_interval = check_integer("shuffle_interval", shuffle_interval, minimum=1)
        #: membership-service measurements of the last batched run (dict with
        #: ``view_staleness``, ``repairs``, ``repair_latency``) — ``None``
        #: until ``_disseminate_batch`` executes.
        self.last_batch_stats: dict | None = None

    def _disseminate_batch(
        self,
        n: int,
        alive: np.ndarray,
        source: int,
        rng: np.random.Generator,
        transport: Transport,
    ) -> np.ndarray:
        repetitions = int(alive.shape[0])
        active_size = min(self.active_size, n - 1)
        passive_size = min(self.passive_size, n - 1)
        fanout = min(self.fanout, active_size)
        cells_total = repetitions * n
        members = np.tile(np.arange(n, dtype=np.int64), repetitions)

        # One batched draw per view kind realises every replica's initial
        # assignment.  Slot ``j`` of cell ``c``'s view is entry
        # ``c * size + j`` of the flat array; the ``(R, n, size)`` arrays are
        # reshaped views of it.
        picks, _ = sample_distinct_rows_excluding(
            rng, n, np.full(cells_total, active_size, dtype=np.int64), members
        )
        active_flat = picks.astype(np.int64, copy=False).ravel()
        active_view = active_flat.reshape(repetitions, n, active_size)
        active_rows = active_flat.reshape(cells_total, active_size)
        picks, _ = sample_distinct_rows_excluding(
            rng, n, np.full(cells_total, passive_size, dtype=np.int64), members
        )
        passive_flat = picks.astype(np.int64, copy=False).ravel()
        passive_view = passive_flat.reshape(repetitions, n, passive_size)

        has_message = np.zeros((repetitions, n), dtype=bool)
        has_message[:, source] = True
        has_flat = has_message.ravel()
        alive_flat = alive.ravel()

        staleness: list[float] = []
        repairs = 0
        stale_slot_rounds = 0
        active = np.ones(repetitions, dtype=bool)
        for _ in range(self.rounds):
            # Pushes still in flight keep their replica's clock running.
            active = active | transport.pending_mask()
            if not active.any():
                break
            present = transport.next_round()
            if present is not None:
                # Staleness is measured over the active-view slots of
                # in-group nonfailed members, before this round's repairs.
                in_group = np.flatnonzero(alive & present)
                if in_group.size:
                    # View entries are member ids; add each row's replica
                    # offset to address the peers' cells.
                    peers = active_rows.take(in_group, axis=0)
                    peers += (in_group - in_group % n)[:, None]
                    stale = peers.size - int(np.count_nonzero(present.ravel()[peers]))
                    staleness.append(stale / peers.size)
                    stale_slot_rounds += stale
            transport.rounds += active
            holders = has_message & alive & active[:, None]
            if present is not None:
                holders &= present
            active &= holders.any(axis=1)
            rep_idx, mem_idx = np.nonzero(holders & active[:, None])
            cells = rep_idx[:0]
            if rep_idx.size:
                slot_idx, _ = sample_distinct_rows(
                    rng, active_size, np.full(rep_idx.size, fanout, dtype=np.int64)
                )
                slot_idx = slot_idx.astype(np.int64, copy=False)
                targets = np.take_along_axis(
                    active_view[rep_idx, mem_idx], slot_idx, axis=1
                ).ravel()
                target_replica = np.repeat(rep_idx, fanout)
                cells = target_replica * n + targets
                if present is not None:
                    # A send to a departed peer fails like a broken TCP link:
                    # the sender detects it (independently of message loss)
                    # and promotes a random passive entry into that slot.
                    broken = np.flatnonzero(~present.ravel()[cells])
                    if broken.size:
                        b_rep = target_replica[broken]
                        b_mem = np.repeat(mem_idx, fanout)[broken]
                        b_slot = slot_idx.ravel()[broken]
                        promoted = rng.integers(passive_size, size=broken.size)
                        active_view[b_rep, b_mem, b_slot] = passive_view[b_rep, b_mem, promoted]
                        repairs += int(broken.size)
                cells, _ = transport.send(cells, target_replica)
            # Link repair and shuffling are the membership service's local
            # bookkeeping and stay untimed.
            cells, times, _ = transport.arrive(cells)
            fresh = transport.deliver(cells, times, has_flat, alive_flat)
            # A matured push can hand the message to a replica whose holders
            # had all departed; the new holder re-activates it.
            active = active | (np.bincount(fresh // n, minlength=repetitions) > 0)
            # Periodic shuffle: every in-group nonfailed member swaps one
            # random active slot with one random passive entry, at one
            # message each (booked, never lost or delayed).
            if transport.round_index % self.shuffle_interval == 0:
                participants = alive if present is None else alive & present
                shufflers = np.flatnonzero(participants)
                if shufflers.size:
                    slot = shufflers * active_size + rng.integers(active_size, size=shufflers.size)
                    pick = shufflers * passive_size + rng.integers(
                        passive_size, size=shufflers.size
                    )
                    swapped_out = active_flat[slot]
                    active_flat[slot] = passive_flat[pick]
                    passive_flat[pick] = swapped_out
                    transport.sent += participants.sum(axis=1)
        # Pushes still in flight at the horizon arrive anyway.
        transport.drain(has_flat, alive_flat)
        self.last_batch_stats = {
            "view_staleness": float(np.mean(staleness)) if staleness else 0.0,
            "repairs": int(repairs),
            "repair_latency": (stale_slot_rounds / repairs) if repairs else 0.0,
        }
        return has_message
