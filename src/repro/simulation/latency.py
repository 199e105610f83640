"""Discretised per-message latency plane for the batched engines.

The batched engines (:func:`repro.simulation.gossip.simulate_gossip_batch`,
:func:`repro.simulation.protocol_batch.simulate_protocol_batch`) advance in
lock-step rounds; the event-driven reference advances in continuous time.
This module bridges the two: a :class:`DeliveryTimePlane` owns per-member
delivery times for a whole ``(R, n)`` batch and discretises continuous
latency draws back onto the round clock via time-buckets.

Timeline convention
-------------------
Round ``r`` (0-based) starts at time ``r * round_period``; everything a
protocol sends during round ``r`` leaves at that instant.  A message with
latency ``l`` is delivered at ``r * round_period + l`` and becomes
*processable* at the end of round ``r + d - 1`` where
``d = max(1, ceil(l / round_period))`` — i.e. a message whose latency fits
inside one round period (including zero) is usable by its target from the
next round on, exactly like today's latency-free engines.  That makes the
plane **bit-identical to the latency-free engines whenever the sampler is a
constant no larger than the round period**: every message has ``d == 1``,
no bucket is ever populated, and a :class:`~repro.simulation.network.ConstantLatency`
sampler consumes no randomness.

Channels
--------
Protocols send more than one kind of message.  Eager payload pushes carry
the message itself and stamp delivery times; digests (pbcast round digests,
lazy-push IHAVEs, anti-entropy push-pull digests) only *trigger* a later
exchange.  The plane therefore keeps an independent bucket set per named
channel (``"payload"``, ``"digest"``, ...), each optionally carrying an
auxiliary integer array alongside the cell ids (e.g. the advertising
sender of each digest).  Intra-round round trips (pull requests, IWANT
retries) never enter a bucket: their extra legs are drawn directly with
:meth:`DeliveryTimePlane.draw` and recorded as ``send_time + request_leg +
response_leg``, preserving the engines' same-round recovery dynamics for
*any* latency law.  The batched engines reach the plane only through their
:class:`~repro.simulation.transport.Transport`.

Cells are flat ids ``replica * n + member`` — the same addressing every
batched hook already uses.
"""

from __future__ import annotations

import numpy as np

from repro.simulation.network import NetworkModel

__all__ = ["DeliveryTimePlane", "delivery_percentiles", "percentile_label"]


def percentile_label(p: float) -> str:
    """Format a percentile as a compact key: 50 -> 'p50', 99.9 -> 'p999'."""
    return "p" + ("%g" % float(p)).replace(".", "")


def delivery_percentiles(
    delivery_times: np.ndarray,
    percentiles: tuple[float, ...] = (50.0, 99.0, 99.9),
) -> dict[str, float]:
    """Percentiles of the *finite* (delivered) entries of a delivery-time array.

    Undelivered members carry ``inf`` and are excluded — the percentiles
    describe time-to-delivery conditioned on delivery, which is the tail
    metric the latency experiments report (reliability itself is already a
    first-class result field).  All-undelivered input yields ``nan`` values.
    """
    times = np.asarray(delivery_times, dtype=float).ravel()
    finite = times[np.isfinite(times)]
    out: dict[str, float] = {}
    for p in percentiles:
        label = percentile_label(p)
        out[label] = float(np.percentile(finite, p)) if finite.size else float("nan")
    return out


def _concatenate_aux(parts: list) -> np.ndarray:
    """Concatenate the aux arrays of ``(cells, times, aux)`` parts; a missing one reads as zeros."""
    return np.concatenate(
        [p[2] if p[2] is not None else np.zeros(p[0].size, dtype=np.int64) for p in parts]
    )


class DeliveryTimePlane:
    """Per-member delivery clocks plus time-buckets for in-flight messages.

    One plane instance serves one batched execution of ``R`` replicas over
    ``n`` members.  Its batch's transport drives it through four verbs:

    ``schedule(round_index, cells, rng, channel=, aux=, present=)``
        Draw one latency per cell (through
        :meth:`~repro.simulation.network.NetworkModel.draw_latency_batch`,
        so ``total_latency`` stays correct), bucket the late ones (those
        with ``delay / round_period > 1``), and return the batch
        *processable this round*: everything previously bucketed for
        ``round_index`` plus this call's same-round arrivals.  With a
        presence mask, matured messages whose addressee is absent are
        dropped on landing; this call's own cells are not re-checked.
        Call it once per round per channel — with an empty ``cells`` when
        the protocol sent nothing but bucketed messages may be due.  On the
        constant fast path nothing is drawn: ``total_latency`` grows by
        count × value and every cell lands now, at the round's one time.

    ``record(cells, times)``
        Fold arrival times into the per-member delivery clock
        (element-wise minimum).  It is called for *payload* arrivals
        only, pre-filtered to not-yet-delivered members (``minimum.at`` is
        the slow path; fresh-only keeps it off the hot loop).

    ``draw(rng, count)``
        Raw latency draws for intra-round round trips (request + response
        legs of pulls and IWANTs).

    ``drain(channel=)``
        Pop every still-bucketed message of a channel.  At a protocol's
        round horizon, in-flight *payloads* still arrive (the budget bounds
        sending, not physics) so they are drained and recorded; in-flight
        digests are simply dropped — the exchange they would have triggered
        is never sent.

    ``finalize(delivered)`` reshapes the clock to ``(R, n)`` and scrubs
    members the engine does not count as delivered (e.g. dead at horizon)
    back to ``inf``.
    """

    def __init__(
        self,
        network: NetworkModel,
        repetitions: int,
        n: int,
        *,
        round_period: float = 1.0,
    ) -> None:
        if round_period <= 0.0:
            raise ValueError(f"round_period must be > 0, got {round_period!r}")
        self.network = network
        self.repetitions = int(repetitions)
        self.n = int(n)
        self.round_period = float(round_period)
        self._delivery = np.full(self.repetitions * self.n, np.inf)
        #: channel name -> {process_round: [(cells, times, aux), ...]}
        self._buckets: dict[str, dict[int, list]] = {}
        self._pending_per_replica = np.zeros(self.repetitions, dtype=np.int64)
        sampler = getattr(network, "latency", None)
        #: constant latency within one round period: every message is
        #: same-round processable at one time per round, so the bucket
        #: machinery is never touched and the plane adds nothing but the
        #: (randomness-free) latency accounting — the bit-identity fast path.
        self.constant_fast_path = bool(getattr(sampler, "is_constant", False)) and (
            float(getattr(sampler, "value", np.inf)) <= self.round_period
        )
        self._constant_latency = float(sampler.value) if self.constant_fast_path else None

    # ------------------------------------------------------------------ time

    def send_time(self, round_index: int) -> float:
        """Instant at which round ``round_index`` (0-based) sends depart."""
        return float(round_index) * self.round_period

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Raw latency draws (booked into ``total_latency``) for extra legs."""
        return self.network.draw_latency_batch(rng, count)

    # ------------------------------------------------------------- scheduling

    def schedule(
        self,
        round_index: int,
        cells: np.ndarray,
        rng: np.random.Generator,
        *,
        channel: str = "payload",
        aux: np.ndarray | None = None,
        present: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Launch ``cells`` in round ``round_index``; return what is due now.

        Returns ``(due_cells, due_times, due_aux)`` where ``due_aux`` is
        ``None`` when the channel carries no auxiliary data.  The due batch
        is previously bucketed messages maturing this round followed by
        this call's same-round arrivals; in the constant fast path it is
        exactly the input (order preserved, no copies), and ``due_times`` is
        a read-only broadcast of the round's single arrival time.

        A message is late when ``delay / round_period > 1``, the same
        decision as ``max(1, ceil(delay / round_period)) > 1`` for every
        finite non-negative delay; only the late ones are bucketed, by a
        stable sort on their processing round.  ``present`` is an optional
        flat presence mask over the cells: matured messages whose addressee
        is absent are dropped on landing (they still leave the pending
        counters).  It applies to matured messages only, because this
        call's own cells were sent this round and already checked against
        the same mask.
        """
        cells = np.asarray(cells, dtype=np.int64)
        if self._constant_latency is not None:
            self.network.total_latency += cells.size * self._constant_latency
            arrival = self.send_time(round_index) + self._constant_latency
            return cells, np.broadcast_to(arrival, cells.shape), aux

        delays = self.network.draw_latency_batch(rng, cells.size)
        times = self.send_time(round_index) + delays
        channel_buckets = self._buckets.setdefault(channel, {})
        if cells.size:
            spans = delays / self.round_period
            is_late = spans > 1.0
            late = np.flatnonzero(is_late)
            if late.size:
                process_rounds = round_index - 1 + np.ceil(spans[late]).astype(np.int64)
                order = np.argsort(process_rounds, kind="stable")
                rounds_sorted = process_rounds[order]
                late = late[order]
                late_cells, late_times = cells[late], times[late]
                late_aux = None if aux is None else aux[late]
                bounds = (np.flatnonzero(np.diff(rounds_sorted)) + 1).tolist()
                for lo, hi in zip([0, *bounds], [*bounds, late.size]):
                    channel_buckets.setdefault(int(rounds_sorted[lo]), []).append(
                        (
                            late_cells[lo:hi],
                            late_times[lo:hi],
                            None if late_aux is None else late_aux[lo:hi],
                        )
                    )
                self._pending_per_replica += np.bincount(
                    late_cells // self.n, minlength=self.repetitions
                )
                due = np.flatnonzero(~is_late)
                cells, times = cells[due], times[due]
                aux = None if aux is None else aux[due]

        matured = channel_buckets.pop(round_index, None)
        if not matured:
            return cells, times, aux
        matured_cells = np.concatenate([p[0] for p in matured])
        self._pending_per_replica -= np.bincount(
            matured_cells // self.n, minlength=self.repetitions
        )
        matured_times = np.concatenate([p[1] for p in matured])
        carries_aux = aux is not None or any(p[2] is not None for p in matured)
        matured_aux = _concatenate_aux(matured) if carries_aux else None
        if present is not None:
            landed = np.flatnonzero(present[matured_cells])
            matured_cells, matured_times = matured_cells[landed], matured_times[landed]
            matured_aux = None if matured_aux is None else matured_aux[landed]
        if not cells.size:
            return matured_cells, matured_times, matured_aux
        if matured_aux is not None:
            own_aux = aux if aux is not None else np.zeros(cells.size, dtype=np.int64)
            aux = np.concatenate((matured_aux, own_aux))
        return (
            np.concatenate((matured_cells, cells)),
            np.concatenate((matured_times, times)),
            aux,
        )

    def pending_mask(self) -> np.ndarray:
        """``(R,)`` bool: replicas with messages still in flight (any channel)."""
        return self._pending_per_replica > 0

    def drain(
        self, channel: str = "payload"
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Pop everything still bucketed on ``channel``; return it raw.

        Returns ``(cells, times, aux)`` concatenated across all remaining
        buckets (``aux`` is ``None`` when the channel never carried any).
        The caller decides what the late arrivals mean — payload drains are
        recorded as deliveries; digest channels are typically *not* drained
        because the protocol that would answer them has stopped.
        """
        channel_buckets = self._buckets.get(channel)
        if not channel_buckets:
            return (
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=float),
                None,
            )
        parts = [entry for key in sorted(channel_buckets) for entry in channel_buckets[key]]
        channel_buckets.clear()
        cells = np.concatenate([p[0] for p in parts])
        times = np.concatenate([p[1] for p in parts])
        aux = _concatenate_aux(parts) if any(p[2] is not None for p in parts) else None
        self._pending_per_replica -= np.bincount(cells // self.n, minlength=self.repetitions)
        return cells, times, aux

    # -------------------------------------------------------------- recording

    def record(self, cells: np.ndarray, times: np.ndarray) -> None:
        """Fold payload arrival times into the delivery clock (min-merge)."""
        cells = np.asarray(cells, dtype=np.int64)
        if cells.size:
            np.minimum.at(self._delivery, cells, np.asarray(times, dtype=float))

    def finalize(self, delivered: np.ndarray) -> np.ndarray:
        """Return the ``(R, n)`` delivery-time array, ``inf`` where undelivered."""
        out = self._delivery.reshape(self.repetitions, self.n).copy()
        out[~np.asarray(delivered, dtype=bool)] = np.inf
        return out
