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


class DeliveryTimePlane:
    """Per-member delivery clocks plus time-buckets for in-flight messages.

    One plane instance serves one batched execution of ``R`` replicas over
    ``n`` members.  Its batch's transport drives it through four verbs:

    ``schedule(round_index, cells, rng, channel=, aux=)``
        Draw one latency per cell (through
        :meth:`~repro.simulation.network.NetworkModel.draw_latency_batch`,
        so ``total_latency`` stays correct), bucket the slow ones, and
        return the batch *processable this round*: everything previously
        bucketed for ``round_index`` plus this call's same-round arrivals.
        Call it once per round per channel — with an empty ``cells`` when
        the protocol sent nothing but bucketed messages may be due.

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
        #: same-round processable, so the bucket machinery is never touched
        #: and the plane adds nothing but the (randomness-free) latency
        #: accounting — the bit-identity fast path.
        self.constant_fast_path = bool(getattr(sampler, "is_constant", False)) and (
            float(getattr(sampler, "value", np.inf)) <= self.round_period
        )

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
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Launch ``cells`` in round ``round_index``; return what is due now.

        Returns ``(due_cells, due_times, due_aux)`` where ``due_aux`` is
        ``None`` when the channel carries no auxiliary data.  The due batch
        is previously bucketed messages maturing this round followed by
        this call's same-round arrivals; in the constant fast path it is
        exactly the input (order preserved, no copies beyond the times).
        """
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
        if any(p[2] is not None for p in parts):
            aux = np.concatenate(
                [p[2] if p[2] is not None else np.zeros(p[0].size, dtype=np.int64) for p in parts]
            )
        else:
            aux = None
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
