"""Batched Monte-Carlo engine for the whole baseline-protocol zoo.

PR 1 proved that propagating all replicas of a Monte-Carlo experiment as
``(R, n)`` boolean masks removes the Python-interpreter round trips that
dominate per-replica simulation (10-50× on the paper's gossip process).
This module extends that treatment from the paper's algorithm to **every**
:class:`~repro.protocols.base.Protocol`:

* :func:`simulate_protocol_batch` is the dispatch entry point: it draws the
  failure patterns for all replicas in one vectorised pass (any
  :class:`~repro.simulation.failures.FailureModel` — uniform or targeted
  crashes, pre- or mid-execution :class:`~repro.simulation.failures.CrashTiming`),
  builds the batch's :class:`~repro.simulation.transport.Transport` from the
  network, churn and latency planes, and hands both to the protocol's
  ``_disseminate_batch(n, alive, source, rng, transport)`` hook, which
  returns the ``(R, n)`` delivered masks;
* every protocol implements that hook as an array program over the shared
  :mod:`repro.utils.sampling` kernels (flooding = one overlay build +
  frontier waves in chunk-global node ids, pbcast/lpbcast = buffered rounds
  with batched view sampling, RDG = batched push masks + pull masks per
  round) and sends every message through the transport, which applies
  loss, membership and latency under one leg law and keeps the per-replica
  ``messages_sent`` / ``messages_dropped`` / control / round counters that
  surface on :class:`BatchProtocolResult`;
* the scalar :meth:`~repro.protocols.base.Protocol.run` stays the exact
  behavioural reference — ``tests/protocols/test_protocol_batch.py`` pins
  each batched protocol to its scalar pin through the shared statistical
  harness (``tests/helpers/statistical.py``).

Per-round helpers for the round-based protocols live here
(:func:`sample_group_targets_batch`) so the protocol modules stay readable
and every protocol consumes the same target-drawing law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.simulation.churn import ChurnModel, ChurnScheduleBatch
from repro.simulation.failures import (
    FailureModel,
    FailurePatternBatch,
    UniformCrashModel,
)
from repro.simulation.latency import delivery_percentiles
from repro.simulation.network import NetworkModel
from repro.simulation.transport import Transport
from repro.utils.rng import SeedLike, as_generator
from repro.utils.sampling import sample_distinct_rows_excluding
from repro.utils.validation import check_integer, check_probability

if TYPE_CHECKING:
    from repro.protocols.base import Protocol, ProtocolResult

__all__ = [
    "BatchProtocolResult",
    "simulate_protocol_batch",
    "sample_group_targets_batch",
]


@dataclass(frozen=True)
class BatchProtocolResult:
    """Outcome of ``R`` replica runs of one protocol, propagated as a batch.

    Every attribute is the batched analogue of the corresponding
    :class:`~repro.protocols.base.ProtocolResult` field, with a leading
    replica axis.

    Attributes
    ----------
    protocol:
        Protocol name.
    n:
        Group size.
    source:
        Source member identifier (shared by all replicas).
    alive:
        ``(R, n)`` boolean masks of nonfailed members.
    delivered:
        ``(R, n)`` boolean masks of nonfailed members holding the message.
    messages_sent:
        ``(R,)`` total point-to-point messages per replica.
    messages_dropped:
        ``(R,)`` messages lost in transit per replica (all zero unless a
        lossy :class:`~repro.simulation.network.NetworkModel` was supplied).
    rounds:
        ``(R,)`` protocol rounds / gossip hops executed per replica.
    failure:
        The batch failure pattern the replicas ran under (crash timing
        included, for mid-execution-crash bookkeeping).
    present:
        Optional ``(R, n)`` masks of members still in the group when each
        replica's dissemination ended (``None`` for churn-free runs, where
        everyone is present throughout).  Together with ``alive`` this
        defines the **survivors** — the denominator of the churn-resilience
        metrics.
    control_messages_sent:
        Optional ``(R,)`` per-replica counts of control messages (digests,
        IHAVE/IWANT, pull requests) — the subset of ``messages_sent`` that
        carried no payload.  ``None`` is treated as all-payload.
    delivery_times:
        Optional ``(R, n)`` float array of first-receipt times on the round
        clock (``inf`` where undelivered).  Present exactly when the batch
        ran with a network model, which turns on the latency plane.
    """

    protocol: str
    n: int
    source: int
    alive: np.ndarray
    delivered: np.ndarray
    messages_sent: np.ndarray
    messages_dropped: np.ndarray
    rounds: np.ndarray
    failure: FailurePatternBatch
    present: np.ndarray | None = None
    control_messages_sent: np.ndarray | None = None
    delivery_times: np.ndarray | None = None

    @property
    def repetitions(self) -> int:
        """Return the number of replicas ``R``."""
        return int(self.alive.shape[0])

    def n_alive(self) -> np.ndarray:
        """Return the per-replica number of nonfailed members, shape ``(R,)``."""
        return self.alive.sum(axis=1)

    def n_delivered(self) -> np.ndarray:
        """Return the per-replica number of reached nonfailed members, shape ``(R,)``."""
        return self.delivered.sum(axis=1)

    def reliability(self) -> np.ndarray:
        """Return the per-replica delivered/alive ratio, shape ``(R,)``."""
        return self.n_delivered() / self.n_alive()

    def is_atomic(self) -> np.ndarray:
        """Return per-replica flags: every nonfailed member got the message."""
        return ~np.any(self.alive & ~self.delivered, axis=1)

    def messages_per_member(self) -> np.ndarray:
        """Return the per-replica message cost normalised by group size."""
        return self.messages_sent / self.n

    def drop_rate(self) -> np.ndarray:
        """Return the per-replica fraction of sent messages lost in transit."""
        sent = np.maximum(self.messages_sent, 1)
        return self.messages_dropped / sent

    def control_messages(self) -> np.ndarray:
        """Return ``(R,)`` control-message counts (zeros for all-payload protocols)."""
        if self.control_messages_sent is None:
            return np.zeros_like(self.messages_sent)
        return self.control_messages_sent

    def payload_messages_sent(self) -> np.ndarray:
        """Return ``(R,)`` payload-carrying message counts (total minus control)."""
        return self.messages_sent - self.control_messages()

    def payload_messages_per_member(self) -> np.ndarray:
        """Return the per-replica payload-only message cost normalised by group size."""
        return self.payload_messages_sent() / self.n

    def control_messages_per_member(self) -> np.ndarray:
        """Return the per-replica control-message cost normalised by group size."""
        return self.control_messages() / self.n

    def survivors(self) -> np.ndarray:
        """Return ``(R, n)`` masks of nonfailed members still present at the end.

        Without churn this is exactly ``alive``; under churn a member counts
        only if it neither crashed nor left before its replica's
        dissemination finished.
        """
        if self.present is None:
            return self.alive
        return self.alive & self.present

    def n_survivors(self) -> np.ndarray:
        """Return the per-replica number of survivors, shape ``(R,)``."""
        return self.survivors().sum(axis=1)

    def survivor_fraction(self) -> np.ndarray:
        """Return the per-replica fraction of nonfailed members that survived churn."""
        return self.n_survivors() / np.maximum(self.n_alive(), 1)

    def reliability_among_survivors(self) -> np.ndarray:
        """Return the per-replica delivered/survivor ratio, shape ``(R,)``.

        The churn-resilience headline metric: of the members that were still
        nonfailed *and present* when dissemination ended, how many hold the
        message?  Members that received and then left neither help nor hurt.
        Identical to :meth:`reliability` for churn-free runs.
        """
        survivors = self.survivors()
        return (self.delivered & survivors).sum(axis=1) / np.maximum(
            survivors.sum(axis=1), 1
        )

    def delivery_percentiles(
        self, percentiles: tuple[float, ...] = (50.0, 99.0, 99.9)
    ) -> dict[str, float]:
        """Pooled delivery-time percentiles across all replicas (p50/p99/p999)."""
        if self.delivery_times is None:
            raise ValueError(
                "no delivery times recorded: run the batch with a network model "
                "to enable the latency plane"
            )
        return delivery_percentiles(self.delivery_times, percentiles)

    def result(self, replica: int) -> ProtocolResult:
        """Return one replica as a scalar :class:`~repro.protocols.base.ProtocolResult`."""
        from repro.protocols.base import ProtocolResult

        replica = check_integer("replica", replica, minimum=0, maximum=self.repetitions - 1)
        return ProtocolResult(
            protocol=self.protocol,
            n=self.n,
            alive=self.alive[replica],
            delivered=self.delivered[replica],
            messages_sent=int(self.messages_sent[replica]),
            rounds=int(self.rounds[replica]),
            messages_dropped=int(self.messages_dropped[replica]),
            control_messages_sent=int(self.control_messages()[replica]),
        )


def sample_group_targets_batch(
    n: int,
    rep_idx: np.ndarray,
    mem_idx: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``fanout`` distinct group-wide targets for every (replica, member) sender.

    The whole-group analogue of
    :meth:`~repro.simulation.membership.FullView.sample_targets_batch`,
    specialised for the round-based protocols: every sender row draws the
    same (clipped) fanout, senders never target themselves, and the result
    comes back as flat ``(R·n)``-cell identifiers ready for mask indexing.

    Returns
    -------
    (cells, target_replica):
        ``cells[i] = target_replica[i] · n + target`` for each drawn
        message; ``target_replica`` maps every message back to its replica
        for per-replica message accounting.
    """
    k = min(int(fanout), n - 1)
    if k <= 0 or mem_idx.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    ks = np.full(mem_idx.size, k, dtype=np.int64)
    # Every row draws the same k, so every slot of the matrix is valid.
    matrix, _ = sample_distinct_rows_excluding(rng, n, ks, mem_idx)
    target_replica = np.repeat(rep_idx, k)
    return target_replica * n + matrix.ravel(), target_replica


def simulate_protocol_batch(
    protocol: Protocol,
    n: int,
    q: float,
    *,
    repetitions: int = 20,
    source: int = 0,
    seed: SeedLike = None,
    failure_model: FailureModel | None = None,
    network: NetworkModel | None = None,
    churn: ChurnModel | ChurnScheduleBatch | None = None,
    round_period: float = 1.0,
) -> BatchProtocolResult:
    """Run ``repetitions`` independent executions of ``protocol`` as one array program.

    Semantically each replica is an independent
    :meth:`~repro.protocols.base.Protocol.run` (fresh failure pattern, fresh
    protocol randomness); the engine merely advances all replicas in
    lock-step so every protocol round costs a constant number of numpy
    operations instead of ``O(members)`` Python calls.

    Parameters
    ----------
    protocol:
        Any :class:`~repro.protocols.base.Protocol`; its batched hook runs
        all replicas as one array program.
    n, q, source:
        As for :meth:`~repro.protocols.base.Protocol.run`.
    repetitions:
        Number of replicas ``R`` propagated simultaneously.
    seed:
        Seed or generator for all randomness of the whole batch.
    failure_model:
        Failure-pattern generator; defaults to the paper's
        :class:`~repro.simulation.failures.UniformCrashModel` at ratio ``q``.
        Pass a :class:`~repro.simulation.failures.TargetedCrashModel` (or any
        custom model) to run the whole batch under engineered failures.
    network:
        Optional lossy :class:`~repro.simulation.network.NetworkModel`: every
        point-to-point message of every replica is independently dropped with
        ``network.loss_probability`` (the same loss law the event-driven
        reference engine applies per :meth:`~repro.simulation.network.NetworkModel.transmit`
        call).  The model is reset first so its counters describe this batch
        only.  With ``loss_probability == 0`` the batch is bit-for-bit
        identical to the ``network=None`` path.
    churn:
        Optional dynamic-membership plane: either a
        :class:`~repro.simulation.churn.ChurnModel` (a fresh
        :class:`~repro.simulation.churn.ChurnScheduleBatch` is drawn for this
        batch, after the failure draw) or a pre-drawn schedule batch.
        Members follow their join/leave schedules during dissemination;
        sends to absent peers are wasted, and the result's ``present`` masks
        record who was still in the group when each replica finished.  A
        zero-rate model draws no randomness and a trivial schedule is
        skipped, so churn rate 0 is bit-for-bit identical to the
        ``churn=None`` path.
    round_period:
        Round duration ``T`` of the latency plane's discretised clock.
        When a network is present every message additionally draws a
        delivery latency from ``network.latency`` and the result carries
        ``delivery_times``; with the default constant unit latency the
        plane consumes no randomness and the batch stays bit-for-bit
        identical to the latency-free path.
    """
    n = check_integer("n", n, minimum=2)
    q = check_probability("q", q)
    repetitions = check_integer("repetitions", repetitions, minimum=1)
    source = check_integer("source", source, minimum=0, maximum=n - 1)
    rng = as_generator(seed)
    model = failure_model if failure_model is not None else UniformCrashModel(q)
    failure = model.draw_batch(n, repetitions, rng, source=source)
    alive = failure.alive.copy()
    alive[:, source] = True

    if isinstance(churn, ChurnModel):
        # Drawn after the failure plane so adding churn never perturbs the
        # failure draw of an otherwise-identical seeded run.
        churn = churn.draw_batch(n, repetitions, rng, source=source)
    if network is not None:
        network.reset()
    transport = Transport(
        n, repetitions, source, rng, network=network, churn=churn, round_period=round_period
    )
    delivered = protocol._disseminate_batch(n, alive, source, rng, transport)
    delivered &= alive  # failed members never count as delivered
    delivered[:, source] = True
    schedule = transport.churn
    return BatchProtocolResult(
        protocol=protocol.name,
        n=n,
        source=source,
        alive=alive,
        delivered=delivered,
        messages_sent=transport.sent,
        messages_dropped=transport.dropped,
        rounds=transport.rounds,
        failure=failure,
        present=schedule.present_at_rounds(transport.rounds) if schedule is not None else None,
        control_messages_sent=transport.control,
        delivery_times=transport.finalize(delivered),
    )
