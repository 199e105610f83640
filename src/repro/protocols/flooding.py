"""Deterministic flooding over a random overlay.

Flooding forwards the message on every overlay link exactly once.  On a
connected overlay it reaches every nonfailed member that remains connected to
the source, so it is the reliability upper bound for a given overlay — at the
cost of ``O(n · degree)`` messages.  It anchors the protocol comparison: the
interesting question for gossip protocols is how close they get to flooding's
reliability at a fraction of its message cost.

The overlay is a random regular-ish graph: every member links to ``degree``
uniformly chosen peers (links are used bidirectionally, as overlay links are).

The batched hook realises all ``R`` overlays with one
:func:`repro.utils.sampling.sample_distinct_rows_excluding` draw (the same
kernel the graph-percolation ensemble uses), symmetrises them into one
block-diagonal CSR adjacency in chunk-global node ids (replica ``r``'s member
``i`` is ``r·n + i`` — components never span replicas), and floods every
replica simultaneously with vectorised frontier waves.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.protocols.base import Protocol
from repro.simulation.membership import sample_distinct
from repro.simulation.network import NetworkModel
from repro.simulation.transport import Transport
from repro.utils.sampling import sample_distinct_rows_excluding, unique_unseen
from repro.utils.validation import check_integer

__all__ = ["FloodingProtocol"]


class FloodingProtocol(Protocol):
    """Flood the message over every link of a random overlay."""

    name = "flooding"

    def __init__(self, degree: int = 4) -> None:
        self.degree = check_integer("degree", degree, minimum=1)

    def _disseminate(
        self,
        n: int,
        alive: np.ndarray,
        source: int,
        rng: np.random.Generator,
        network: NetworkModel | None = None,
    ) -> tuple[np.ndarray, int, int, int]:
        # Build the overlay: each member picks `degree` neighbours; links are
        # symmetric, so the adjacency is the union of both directions.
        neighbours: list[set[int]] = [set() for _ in range(n)]
        for member in range(n):
            picks = sample_distinct(rng, n, min(self.degree, n - 1), exclude=member)
            for peer in picks:
                neighbours[member].add(int(peer))
                neighbours[int(peer)].add(member)

        delivered = np.zeros(n, dtype=bool)
        delivered[source] = True
        messages = 0
        rounds = 0
        frontier = [source]
        while frontier:
            rounds += 1
            next_frontier: list[int] = []
            for member in frontier:
                if not alive[member] and member != source:
                    continue
                peers = sorted(neighbours[member])
                messages += len(peers)
                if network is not None:
                    keep = network.draw_loss(rng, len(peers))
                    peers = [peer for peer, kept in zip(peers, keep, strict=True) if kept]
                for peer in peers:
                    if not delivered[peer]:
                        delivered[peer] = True
                        if alive[peer]:
                            next_frontier.append(peer)
            frontier = next_frontier
        return delivered, messages, rounds, 0

    def _disseminate_batch(
        self,
        n: int,
        alive: np.ndarray,
        source: int,
        rng: np.random.Generator,
        transport: Transport,
    ) -> np.ndarray:
        repetitions = int(alive.shape[0])
        cells = repetitions * n
        degree = min(self.degree, n - 1)

        # One batched draw realises every replica's overlay picks; the
        # chunk-global arc list is then symmetrised and deduplicated (the
        # scalar engine's neighbour *sets* collapse reciprocal picks).  The
        # COO→CSR conversion merges duplicate arcs in one C-level pass —
        # an order of magnitude cheaper than sorting 64-bit arc keys.
        members = np.tile(np.arange(n, dtype=np.int64), repetitions)
        picks, valid = sample_distinct_rows_excluding(
            rng, n, np.full(cells, degree, dtype=np.int64), members
        )
        row_ids = np.arange(cells, dtype=np.int64)
        src = np.repeat(row_ids, degree)
        dst = picks[valid].astype(np.int64, copy=False) + np.repeat(row_ids - members, degree)
        overlay = sparse.coo_matrix(
            (
                np.ones(2 * src.size, dtype=np.int8),
                (
                    np.concatenate([src, dst]).astype(np.int32, copy=False),
                    np.concatenate([dst, src]).astype(np.int32, copy=False),
                ),
            ),
            shape=(cells, cells),
        ).tocsr()
        indptr = overlay.indptr
        arc_dst = overlay.indices
        neighbour_counts = np.diff(indptr)

        delivered = np.zeros(cells, dtype=bool)
        alive_flat = alive.ravel()

        frontier = np.arange(repetitions, dtype=np.int64) * n + source
        delivered[frontier] = True
        while True:
            present = transport.next_round()
            if present is not None:
                # Members that left the group stop flooding their links.
                frontier = frontier[present.ravel()[frontier]]
            # Waves still in flight keep their replica's clock running.
            active = np.bincount(frontier // n, minlength=repetitions) > 0
            active |= transport.pending_mask()
            if not active.any():
                break
            transport.rounds += active
            targets = frontier[:0]
            fanout = neighbour_counts[frontier].astype(np.int64, copy=False)
            total = int(fanout.sum())
            if total:
                # Gather every frontier member's neighbour slice in one pass;
                # a lost or wasted link is never retried (flooding forwards
                # on every link exactly once).
                positions = (
                    np.arange(total, dtype=np.int64)
                    - np.repeat(np.cumsum(fanout) - fanout, fanout)
                    + np.repeat(indptr[frontier], fanout)
                )
                targets = arc_dst[positions].astype(np.int64, copy=False)
                targets, _ = transport.send(targets, targets // n)
            targets, times, _ = transport.arrive(targets)
            if times is not None:
                unseen = ~delivered[targets]
                transport.record(targets[unseen], times[unseen])
            # Sorted, so the next wave (and its loss draws) runs in cell order.
            fresh = unique_unseen(targets, delivered)
            delivered[fresh] = True
            frontier = fresh[alive_flat[fresh]]
        return delivered.reshape(repetitions, n)
