"""The two-pass latency plane, kept as a test oracle.

This is :meth:`repro.simulation.latency.DeliveryTimePlane.schedule` as it ran
before the plane split a leg in one pass: every message's round delay is
``max(1, ceil(delay / round_period))`` as an integer, the due and late parts
are taken with one boolean mask per array, and the late part is bucketed by a
stable sort on its processing round.  :func:`arrive` adds the landing filter
that :meth:`repro.simulation.transport.Transport.arrive` then applied to the
whole due batch, this round's arrivals included.  The tests pin the plane to
it: equal cells, times, aux, pending counters and generator state after every
call.
"""

from __future__ import annotations

import numpy as np

from repro.simulation.latency import DeliveryTimePlane


class ReferenceDeliveryTimePlane(DeliveryTimePlane):
    """A :class:`DeliveryTimePlane` whose ``schedule`` is the two-pass original."""

    def schedule(
        self,
        round_index: int,
        cells: np.ndarray,
        rng: np.random.Generator,
        *,
        channel: str = "payload",
        aux: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        cells = np.asarray(cells, dtype=np.int64)
        delays = self.network.draw_latency_batch(rng, cells.size)
        times = self.send_time(round_index) + delays
        if self.constant_fast_path:
            return cells, times, aux

        if cells.size:
            rounds_delay = np.ceil(delays / self.round_period).astype(np.int64)
            np.maximum(rounds_delay, 1, out=rounds_delay)
            due_now = rounds_delay == 1
        else:
            due_now = np.zeros(0, dtype=bool)

        channel_buckets = self._buckets.setdefault(channel, {})
        if cells.size and not due_now.all():
            late = ~due_now
            late_cells = cells[late]
            process_rounds = round_index + rounds_delay[late] - 1
            late_times = times[late]
            late_aux = aux[late] if aux is not None else None
            order = np.argsort(process_rounds, kind="stable")
            bounds = np.flatnonzero(np.diff(process_rounds[order])) + 1
            for chunk in np.split(order, bounds):
                key = int(process_rounds[chunk[0]])
                channel_buckets.setdefault(key, []).append(
                    (
                        late_cells[chunk],
                        late_times[chunk],
                        late_aux[chunk] if late_aux is not None else None,
                    )
                )
            self._pending_per_replica += np.bincount(
                late_cells // self.n, minlength=self.repetitions
            )
            cells, times = cells[due_now], times[due_now]
            aux = aux[due_now] if aux is not None else None

        matured = channel_buckets.pop(round_index, None)
        if not matured:
            return cells, times, aux
        parts = matured + [(cells, times, aux)] if cells.size else matured
        due_cells = np.concatenate([p[0] for p in parts])
        due_times = np.concatenate([p[1] for p in parts])
        if aux is not None or any(p[2] is not None for p in matured):
            due_aux = np.concatenate(
                [p[2] if p[2] is not None else np.zeros(p[0].size, dtype=np.int64) for p in parts]
            )
        else:
            due_aux = None
        matured_cells = np.concatenate([p[0] for p in matured])
        self._pending_per_replica -= np.bincount(
            matured_cells // self.n, minlength=self.repetitions
        )
        return due_cells, due_times, due_aux


def arrive(
    plane: ReferenceDeliveryTimePlane,
    round_index: int,
    cells: np.ndarray,
    rng: np.random.Generator,
    *,
    present: np.ndarray | None,
    channel: str = "payload",
    aux: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Schedule one leg, then drop every landing message whose addressee is absent.

    ``present`` is the flat presence mask of the landing round (``None``
    without churn); the filter runs over the whole due batch.
    """
    cells, times, aux = plane.schedule(round_index, cells, rng, channel=channel, aux=aux)
    if present is not None and cells.size:
        here = present[cells]
        cells, times = cells[here], times[here]
        if aux is not None:
            aux = aux[here]
    return cells, times, aux
