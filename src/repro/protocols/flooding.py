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
``i`` is ``r·n + i`` — components never span replicas) with one sort of arc
keys, and floods every replica simultaneously with vectorised frontier waves.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import Protocol
from repro.simulation.transport import Transport
from repro.utils.sampling import sample_distinct_rows_excluding, unique_unseen
from repro.utils.validation import check_integer

__all__ = ["FloodingProtocol"]


def _symmetric_csr(cells: int, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return the CSR ``(indptr, indices)`` of the undirected graph of arcs ``src → dst``.

    Every arc is stored both ways and every repeated arc once (a member's
    neighbours form a *set*, so reciprocal picks collapse): one sort of the
    int64 keys ``src · cells + dst`` puts the arcs in CSR order, by source and
    then by destination, and dropping repeated keys deduplicates them.
    """
    keys = np.concatenate([src * cells + dst, dst * cells + src])
    keys.sort()
    keep = np.ones(keys.size, dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    rows, indices = np.divmod(keys[keep], cells)
    indptr = np.zeros(cells + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=cells), out=indptr[1:])
    return indptr, indices


class FloodingProtocol(Protocol):
    """Flood the message over every link of a random overlay."""

    name = "flooding"

    def __init__(self, degree: int = 4) -> None:
        self.degree = check_integer("degree", degree, minimum=1)

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

        # One batched draw realises every replica's overlay picks in
        # chunk-global ids.
        members = np.tile(np.arange(n, dtype=np.int64), repetitions)
        picks, valid = sample_distinct_rows_excluding(
            rng, n, np.full(cells, degree, dtype=np.int64), members
        )
        row_ids = np.arange(cells, dtype=np.int64)
        src = np.repeat(row_ids, degree)
        dst = picks[valid].astype(np.int64, copy=False) + np.repeat(row_ids - members, degree)
        indptr, arc_dst = _symmetric_csr(cells, src, dst)
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
            fanout = neighbour_counts[frontier]
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
                targets = arc_dst[positions]
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
