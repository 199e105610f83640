"""One transport for every send leg of the batched engines.

Every message the batched engines move — a gossip push, a pbcast broadcast
leg, a digest, a pull request, an IWANT, an anti-entropy transfer — goes
through the :class:`Transport` of its batch.  It is built once per batch from
the batch's :class:`~repro.simulation.network.NetworkModel` (loss), its
:class:`~repro.simulation.churn.ChurnScheduleBatch` (membership) and, with a
network, a :class:`~repro.simulation.latency.DeliveryTimePlane` (latency),
and it owns the per-replica ``sent``, ``dropped``, ``control`` and ``rounds``
counters the batched results report.  Protocols keep only protocol logic:
who sends to whom, and what an arrival means.

A leg has two halves.  :meth:`Transport.send` books the leg's messages and
returns the ones that survive loss and membership; :meth:`Transport.arrive`
hands those to the latency plane and returns what lands this round (earlier
sends maturing now plus this round's fast ones).  The leg law, stated once:

* losses are drawn once per :meth:`~Transport.send` call, one independent
  draw per message, so an empty leg still advances a Gilbert–Elliott chain;
* a send is **wasted** if its addressee is absent when it is sent or when it
  lands; a wasted send counts as sent, never as dropped;
* payloads still in flight at a protocol's round horizon land through
  :meth:`~Transport.drain`, without a membership check (the round budget
  bounds sending, not physics).

Round ``r`` (1-based, the churn clock) sends at time ``(r - 1) · T`` on the
latency plane's clock; sends made before round 1 (pbcast's broadcast) leave
at time 0 with round 1's.  Without a network there is no latency plane:
sends land in the round they are sent and no times are tracked.  Cells are
flat ids ``replica · n + member``, the addressing of every batched hook.

A leg is **replica-major** when every message of replica ``r`` comes before
every message of replica ``r + 1``.  The gossip engine's legs are, by
construction: its frontier is sorted, each sender's targets are contiguous,
and loss and membership filtering keep the order.  Their per-replica
counts are then segment lengths (:meth:`Transport.replica_counts`), found
with ``R + 1`` binary searches instead of a ``bincount`` over every message.
Such a leg also lands replica-major whenever :attr:`Transport.in_order`
holds.  A non-constant plane prepends matured messages to a round's
arrivals, so legs built from its arrivals (pbcast's pulls, anti-entropy's
transfers) are not replica-major; the protocol hooks pass each message's
replica and are counted by ``bincount``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.simulation.churn import ChurnScheduleBatch
from repro.simulation.latency import DeliveryTimePlane
from repro.simulation.network import NetworkModel

__all__ = ["Transport"]


class Transport:
    """Loss, membership and latency for every send leg of one ``(R, n)`` batch.

    Parameters
    ----------
    n, repetitions, source:
        Group size, replica count and the source member (which holds the
        message at time 0 in every replica).
    rng:
        The batch's generator; every loss and latency draw reads it.
    network:
        Optional loss and latency model.  With one, a latency plane tracks
        delivery times; the model's counters are not reset here.
    churn:
        Optional join/leave schedules; a trivial schedule is dropped, so a
        static group takes the churn-free path verbatim.
    round_period:
        Round duration ``T`` of the latency plane's clock.

    Attributes
    ----------
    sent, dropped, control, rounds:
        ``(R,)`` counters: messages sent, lost in transit, sent without
        payload, and rounds executed (hooks add to ``rounds``).
    round_index:
        The current round (0 before :meth:`next_round` is first called).
    present:
        ``(R, n)`` presence masks of the current round, or ``None`` without
        churn.
    in_order:
        ``True`` when every send lands in the round it is sent, in send order
        and at one time per round: without a latency plane, or on a constant
        plane within one round period.  A replica-major leg then lands
        replica-major.
    """

    def __init__(
        self,
        n: int,
        repetitions: int,
        source: int,
        rng: np.random.Generator,
        *,
        network: NetworkModel | None = None,
        churn: ChurnScheduleBatch | None = None,
        round_period: float = 1.0,
    ) -> None:
        if churn is not None:
            if (churn.repetitions, churn.n) != (repetitions, n):
                raise ValueError(
                    f"churn schedule is for shape {(churn.repetitions, churn.n)}, "
                    f"expected {(repetitions, n)}"
                )
            if churn.is_trivial():
                churn = None
        self.n = n
        self.repetitions = repetitions
        self._edges = np.arange(repetitions + 1, dtype=np.int64) * n
        self.rng = rng
        self.network = network
        self.churn = churn
        self.plane: DeliveryTimePlane | None = None
        if network is not None:
            self.plane = DeliveryTimePlane(network, repetitions, n, round_period=round_period)
            # The source holds the message from the start of every replica.
            sources = np.arange(repetitions, dtype=np.int64) * n + source
            self.plane.record(sources, np.zeros(repetitions))
        self.in_order = self.plane is None or self.plane.constant_fast_path
        self.sent = np.zeros(repetitions, dtype=np.int64)
        self.dropped = np.zeros(repetitions, dtype=np.int64)
        self.control = np.zeros(repetitions, dtype=np.int64)
        self.rounds = np.zeros(repetitions, dtype=np.int64)
        self.round_index = 0
        self._set_presence()

    def _set_presence(self) -> None:
        self.present = None if self.churn is None else self.churn.present_at(self.round_index)
        self._present_flat = None if self.present is None else self.present.ravel()

    def next_round(self) -> np.ndarray | None:
        """Advance to the next round; return its presence masks (``None`` without churn)."""
        self.round_index += 1
        self._set_presence()
        return self.present

    def replica_counts(self, cells: np.ndarray) -> np.ndarray:
        """Return the ``(R,)`` counts of replica-major flat ``cells`` of this batch.

        Equal to ``np.bincount(cells // n, minlength=R)`` whenever every cell
        of replica ``r`` precedes every cell of replica ``r + 1`` (members
        within a replica may come in any order): the counts are the segment
        lengths between the edges ``arange(R + 1) * n``, and a binary search
        finds each edge because ``cells < r * n`` holds on a prefix.

        >>> transport = Transport(5, 3, 0, np.random.default_rng(0))
        >>> transport.replica_counts(np.array([3, 1, 4, 9, 8]))
        array([3, 2, 0])
        """
        bounds = cells.searchsorted(self._edges)
        return bounds[1:] - bounds[:-1]

    # ------------------------------------------------------------------ legs

    def send(
        self,
        cells: np.ndarray,
        replica: np.ndarray | None = None,
        *,
        control: bool = False,
        aux: np.ndarray | None = None,
    ) -> tuple[np.ndarray, Any]:
        """Send one leg of messages; return the ``(cells, aux)`` that survive it.

        ``cells`` are the addressees and ``replica`` the replica of each
        message.  A replica-major leg may leave ``replica`` out: its counts
        are then segment lengths, and the replicas are derived from the
        cells only when the loss draw needs one per message.  ``control``
        books the leg as messages without payload.  One loss is drawn per
        message, then sends to addressees absent this round are wasted.
        ``aux`` (any array parallel to ``cells``) is filtered alongside and
        returned in its place (``None`` stays ``None``).
        """
        if replica is None:
            booked = self.replica_counts(cells)
        else:
            booked = np.bincount(replica, minlength=self.repetitions)
        self.sent += booked
        if control:
            self.control += booked
        keep: np.ndarray | None = None
        if self.network is not None:
            if replica is None:
                replica = cells // self.n
            keep, dropped = self.network.draw_loss_batch(self.rng, replica, self.repetitions)
            self.dropped += dropped
        if self._present_flat is not None:
            here = self._present_flat[cells]
            keep = here if keep is None else keep & here
        if keep is None:
            return cells, aux
        kept = np.flatnonzero(keep)
        return cells[kept], None if aux is None else aux[kept]

    def arrive(
        self, cells: np.ndarray, *, channel: str = "payload", aux: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray | None, Any]:
        """Launch this round's surviving ``cells``; return ``(cells, times, aux)`` landing now.

        Each send draws one latency on the plane's ``channel``; slow ones
        land in a later round's call on the same channel, re-checked then
        against that round's membership; ``aux`` travels with its cells.
        ``times`` is ``None`` without a latency plane, where everything lands
        in the round it is sent.

        Precondition: ``cells`` survived :meth:`send` in this same round
        (every hook calls ``send`` and then ``arrive`` before
        :meth:`next_round`).  Their addressees were present at ``send``, so
        only messages maturing from an earlier round are checked on landing.
        """
        if self.plane is None:
            return cells, None, aux
        return self.plane.schedule(
            max(self.round_index - 1, 0),
            cells,
            self.rng,
            channel=channel,
            aux=aux,
            present=self._present_flat,
        )

    # -------------------------------------------------------------- payloads

    def record(self, cells: np.ndarray, times: np.ndarray | None) -> None:
        """Fold payload arrival ``times`` into the delivery clock (no-op without a plane)."""
        if self.plane is not None and times is not None:
            self.plane.record(cells, times)

    def deliver(
        self, cells: np.ndarray, times: np.ndarray | None, holds: np.ndarray, alive: np.ndarray
    ) -> np.ndarray:
        """Hand landed payloads to the alive members not holding the message yet.

        Marks them in the flat ``holds`` mask, records their arrival times
        and returns their cells.
        """
        fresh = np.flatnonzero(alive[cells] & ~holds[cells])
        cells = cells[fresh]
        if self.plane is not None and times is not None:
            self.plane.record(cells, times[fresh])
        holds[cells] = True
        return cells

    def drain(self, holds: np.ndarray, alive: np.ndarray) -> None:
        """At a protocol's round horizon, deliver every payload still in flight."""
        if self.plane is not None:
            cells, times, _ = self.plane.drain("payload")
            self.deliver(cells, times, holds, alive)

    def reply(self, times: np.ndarray | None) -> np.ndarray | None:
        """Return when replies to requests that landed at ``times`` land: one latency leg later."""
        if self.plane is None or times is None:
            return None
        return times + self.plane.draw(self.rng, times.size)

    def round_trip(self, cells: np.ndarray) -> None:
        """Record payloads fetched by an intra-round request and reply.

        They land a request leg plus a reply leg after this round's send
        instant.
        """
        if self.plane is not None:
            start = self.plane.send_time(self.round_index - 1)
            self.plane.record(
                cells,
                start
                + self.plane.draw(self.rng, cells.size)
                + self.plane.draw(self.rng, cells.size),
            )

    # ---------------------------------------------------------------- clock

    def pending_mask(self) -> np.ndarray:
        """``(R,)`` bool: replicas with messages still in flight."""
        if self.plane is None:
            return np.zeros(self.repetitions, dtype=bool)
        return self.plane.pending_mask()

    def finalize(self, delivered: np.ndarray) -> np.ndarray | None:
        """Return the ``(R, n)`` delivery times (``inf`` where undelivered), or ``None``."""
        return None if self.plane is None else self.plane.finalize(delivered)
