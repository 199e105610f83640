"""Simulators of the general gossip algorithm (the paper's Figure 1).

Two implementations of the same protocol are provided:

* :func:`simulate_gossip_batch` — the production Monte-Carlo engine.  It
  propagates **all replicas of an experiment simultaneously** as ``(R, n)``
  boolean masks: per gossip round there is one vectorised fanout draw for
  every (replica, frontier-member) pair, one batched distinct-target draw
  through :meth:`FullView.sample_targets_batch`, and one sort-based
  dedup (:func:`~repro.utils.sampling.unique_unseen`) that books deliveries
  exactly; per-replica counts are segment lengths of the replica-major
  round (:meth:`~repro.simulation.transport.Transport.replica_counts`).  This
  removes the Python-interpreter round trips that dominated per-replica
  simulation and is 10-50× faster on the paper's Figs. 4-5 sweeps.  Time is
  abstracted into gossip "hops": within a hop every newly infected nonfailed
  member draws its fanout, samples its targets, and the messages land at the
  next hop.  Because every member forwards at most once and duplicates are
  discarded, this is an exact simulation of the algorithm's reachability —
  the only abstraction is the delivery order, which reliability does not
  depend on.
* :func:`simulate_gossip_event_driven` — the behavioural reference built on
  the discrete-event engine.  It models per-message latencies, optional
  message loss, and the two crash timings explicitly.  With the default
  network (no loss) it must agree with the batched engine in distribution;
  the integration tests check exactly that.

The event-driven reference returns one :class:`GossipExecution`; the batched
engine returns :class:`BatchGossipResult`, which carries the per-replica
arrays and converts to per-execution records on demand.  The scalar frontier
simulation the batched engine replaced is kept as a test oracle in
``tests/reference/scalar_protocols.py``, and
``tests/simulation/test_gossip_batch.py`` pins the two together in
distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.distributions import FanoutDistribution
from repro.simulation.churn import ChurnScheduleBatch
from repro.simulation.engine import EventScheduler
from repro.simulation.failures import FailurePattern, UniformCrashModel
from repro.simulation.latency import delivery_percentiles
from repro.simulation.membership import FullView
from repro.simulation.metrics import ExecutionMetrics
from repro.simulation.network import NetworkModel
from repro.simulation.node import Member
from repro.simulation.transport import Transport
from repro.utils.rng import SeedLike, as_generator
from repro.utils.sampling import unique_unseen
from repro.utils.validation import check_integer, check_probability

__all__ = [
    "GossipExecution",
    "BatchGossipResult",
    "simulate_gossip_batch",
    "simulate_gossip_event_driven",
]


@dataclass(frozen=True)
class GossipExecution:
    """Outcome of one execution of the gossip algorithm.

    Attributes
    ----------
    n:
        Group size.
    source:
        Source member identifier.
    alive:
        Boolean mask of nonfailed members.
    delivered:
        Boolean mask of members that count as having received the message
        (always a subset of ``alive``; the source is always delivered).
    rounds:
        Number of gossip hops until dissemination died out.
    messages_sent:
        Total messages sent by forwarding members.
    duplicates:
        Messages that arrived at members which already had the message.
    messages_dropped:
        Messages lost in transit by the network model (0 without one).
    delivery_times:
        Optional ``(n,)`` float array of first-receipt times (``inf`` for
        members that never received the message).  Populated by the
        event-driven reference and by batched rows carrying a latency
        plane; ``None`` on a round-abstracted row, where time does not
        exist.
    """

    n: int
    source: int
    alive: np.ndarray
    delivered: np.ndarray
    rounds: int
    messages_sent: int
    duplicates: int
    messages_dropped: int = 0
    delivery_times: np.ndarray | None = None

    def n_alive(self) -> int:
        """Return the number of nonfailed members."""
        return int(self.alive.sum())

    def n_delivered(self) -> int:
        """Return the number of nonfailed members that received the message."""
        return int(self.delivered.sum())

    def reliability(self) -> float:
        """Return the realised reliability ``n_delivered / n_alive``."""
        alive = self.n_alive()
        return self.n_delivered() / alive if alive else 0.0

    def is_success(self, threshold: float = 1.0) -> bool:
        """Return True iff at least ``threshold`` of nonfailed members were reached."""
        threshold = check_probability("threshold", threshold)
        return self.reliability() >= threshold - 1e-12

    def spread_occurred(self, min_delivered: int | None = None) -> bool:
        """Return True iff the gossip "took off" instead of dying out immediately.

        Individual executions are bimodal: with probability roughly equal to
        the giant-component size the dissemination reaches ~S of the group,
        otherwise it dies out after a handful of hops.  The standard
        percolation-simulation convention is to call a run an *epidemic* when
        it delivers more than ``max(10, sqrt(n))`` members (sub-giant
        components have size ``O(log n)`` off criticality and ``O(n^{2/3})``
        at it).  The paper's analytical reliability corresponds to the
        *conditional* average over such runs; see
        :func:`repro.simulation.runner.estimate_reliability`.
        """
        if min_delivered is None:
            min_delivered = max(10, int(np.sqrt(self.n)))
        return self.n_delivered() > min_delivered

    def delivery_percentiles(
        self, percentiles: tuple[float, ...] = (50.0, 99.0, 99.9)
    ) -> dict[str, float]:
        """Delivery-time percentiles (delivered members only), e.g. p50/p99/p999."""
        if self.delivery_times is None:
            raise ValueError(
                "no delivery times recorded: this execution ran without a latency plane"
            )
        return delivery_percentiles(self.delivery_times, percentiles)

    def metrics(self) -> ExecutionMetrics:
        """Return the flat metrics record for aggregation."""
        return ExecutionMetrics(
            n=self.n,
            n_alive=self.n_alive(),
            n_reached_alive=self.n_delivered(),
            reliability=self.reliability(),
            rounds=self.rounds,
            messages_sent=self.messages_sent,
            duplicates=self.duplicates,
            success=self.is_success(1.0),
            spread=self.spread_occurred(),
        )


@dataclass(frozen=True)
class BatchGossipResult:
    """Outcome of ``R`` replica executions propagated by the batched engine.

    Every attribute is the batched analogue of the corresponding
    :class:`GossipExecution` field, with a leading replica axis.

    Attributes
    ----------
    n:
        Group size.
    source:
        Source member identifier (shared by all replicas).
    alive:
        ``(R, n)`` boolean masks of nonfailed members.
    delivered:
        ``(R, n)`` boolean masks of members that received the message.
    rounds:
        ``(R,)`` gossip hops until each replica's dissemination died out.
    messages_sent:
        ``(R,)`` total messages sent per replica.
    duplicates:
        ``(R,)`` messages that hit already-infected members, per replica.
    messages_dropped:
        ``(R,)`` messages lost in transit per replica (all zero without a
        lossy network).
    delivery_times:
        Optional ``(R, n)`` float array of first-receipt times on the round
        clock (``round * round_period + latency``; ``inf`` where
        undelivered).  Present exactly when the batch ran with a network —
        the latency plane is part of the network model's contract — and
        ``None`` otherwise.
    """

    n: int
    source: int
    alive: np.ndarray
    delivered: np.ndarray
    rounds: np.ndarray
    messages_sent: np.ndarray
    duplicates: np.ndarray
    messages_dropped: np.ndarray | None = None
    delivery_times: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.messages_dropped is None:
            object.__setattr__(
                self, "messages_dropped", np.zeros_like(np.asarray(self.messages_sent))
            )

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
        """Return the per-replica realised reliability, shape ``(R,)``."""
        return self.n_delivered() / self.n_alive()

    def success(self, threshold: float = 1.0) -> np.ndarray:
        """Return per-replica success flags (reliability >= ``threshold``)."""
        threshold = check_probability("threshold", threshold)
        return self.reliability() >= threshold - 1e-12

    def spread_occurred(self, min_delivered: int | None = None) -> np.ndarray:
        """Return per-replica epidemic-took-off flags (see ``GossipExecution``)."""
        if min_delivered is None:
            min_delivered = max(10, int(np.sqrt(self.n)))
        return self.n_delivered() > min_delivered

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

    def metrics(self) -> list[ExecutionMetrics]:
        """Return per-replica flat metric records (vectorised, no per-row sims)."""
        n_alive = self.n_alive()
        n_delivered = self.n_delivered()
        reliability = self.reliability()
        success = self.success()
        spread = self.spread_occurred()
        return [
            ExecutionMetrics(
                n=self.n,
                n_alive=int(n_alive[r]),
                n_reached_alive=int(n_delivered[r]),
                reliability=float(reliability[r]),
                rounds=int(self.rounds[r]),
                messages_sent=int(self.messages_sent[r]),
                duplicates=int(self.duplicates[r]),
                success=bool(success[r]),
                spread=bool(spread[r]),
            )
            for r in range(self.repetitions)
        ]


def simulate_gossip_batch(
    n: int,
    distribution: FanoutDistribution,
    q: float,
    *,
    repetitions: int = 20,
    source: int = 0,
    seed: SeedLike = None,
    alive: np.ndarray | None = None,
    network: NetworkModel | None = None,
    churn: ChurnScheduleBatch | None = None,
    transport: Transport | None = None,
    round_period: float = 1.0,
) -> BatchGossipResult:
    """Run ``repetitions`` independent gossip executions as one array program.

    Semantically each replica is an independent execution of the Fig. 1
    algorithm (fresh failure pattern, fresh fanout and target draws); the
    engine merely advances all replica frontiers in lock-step so every round
    costs a constant number of numpy operations instead of ``O(frontier)``
    Python calls.  Duplicates are targets that already had the message or
    appeared twice within the round's batch (per replica).

    Every round's sends go through one
    :class:`~repro.simulation.transport.Transport` leg, which applies the
    loss, churn and latency planes under the leg law stated there.

    Parameters
    ----------
    n:
        Group size.
    distribution:
        Fanout distribution ``P``.
    q:
        Nonfailed-member ratio (ignored when explicit ``alive`` masks are
        supplied).
    source:
        The member that multicasts the message (never fails).
    repetitions:
        Number of replicas ``R`` propagated simultaneously.
    seed:
        Seed or generator for all randomness of the whole batch.
    alive:
        Optional pre-drawn ``(R, n)`` alive masks (replaces the uniform-``q``
        failure draw; the source column is forced alive either way).
    network:
        Optional lossy transport shared by all replicas: every round's flat
        send list is thinned with one independent Bernoulli draw and the
        per-replica drop counts surface as ``messages_dropped``.  A network
        also turns on the latency plane: messages sent in round ``t``
        (1-based) at time ``(t-1) * round_period`` arrive a latency draw
        later, infect their target once the round clock passes the arrival
        instant, and the result carries ``delivery_times``.  With zero loss
        and the default constant unit latency the batch is bit-for-bit
        identical to the ``network=None`` path.
    churn:
        Optional pre-drawn :class:`~repro.simulation.churn.ChurnScheduleBatch`
        of join/leave events.  Per round ``t`` (1-based), frontier members no
        longer present stop forwarding, and sends to absent targets are
        wasted: they count as sent but never arrive (they are *not* network
        drops — the peer simply is not there).  A trivial schedule is
        skipped entirely, so zero churn is bit-for-bit identical to the
        ``churn=None`` path.
    transport:
        Optional transport owned by a caller (the protocol hooks that
        delegate here).  It replaces ``network``, ``churn`` and
        ``round_period``, keeps the message counters, and the caller reads
        the delivery times off it; the result then carries none.
    round_period:
        Round duration ``T`` of the latency plane's clock.
    """
    n = check_integer("n", n, minimum=1)
    q = check_probability("q", q)
    repetitions = check_integer("repetitions", repetitions, minimum=1)
    source = check_integer("source", source, minimum=0, maximum=n - 1)
    rng = as_generator(seed)
    view = FullView(n)
    owned = transport is None
    if transport is None:
        transport = Transport(
            n, repetitions, source, rng, network=network, churn=churn, round_period=round_period
        )

    if alive is None:
        alive_masks = rng.random((repetitions, n)) < q
    else:
        alive_masks = np.array(alive, dtype=bool, copy=True)
        if alive_masks.shape != (repetitions, n):
            raise ValueError(
                f"alive must have shape {(repetitions, n)}, got {alive_masks.shape}"
            )
    alive_masks[:, source] = True

    received = np.zeros((repetitions, n), dtype=bool)
    delivered = np.zeros((repetitions, n), dtype=bool)
    received[:, source] = True
    delivered[:, source] = True
    arrivals = np.zeros(repetitions, dtype=np.int64)

    # The frontier is the sorted flat (replica * n + member) ids of the members
    # forwarding this round: the row-major order a dense mask's nonzero gives.
    # Each sender's targets are contiguous, so every round's leg is
    # replica-major and its per-replica counts are segment lengths.
    frontier = np.arange(repetitions, dtype=np.int64) * n + source
    received_flat = received.ravel()
    delivered_flat = delivered.ravel()
    alive_flat = alive_masks.ravel()

    while True:
        present = transport.next_round()
        if present is not None:
            # Members that left (or have not yet joined) neither forward nor
            # receive during this round.
            frontier = frontier[present.ravel()[frontier]]
        # In-flight messages keep a replica's clock running even when no
        # member is forwarding this round.
        active = transport.replica_counts(frontier) > 0
        active |= transport.pending_mask()
        if not active.any():
            break
        transport.rounds += active

        cells = frontier[:0]
        if frontier.size:
            member_idx = frontier % n
            # A member drawing fanout zero owns no cells of the target draw.
            fanouts = distribution.sample(member_idx.size, seed=rng)
            targets, sender_idx = view.sample_targets_batch(member_idx, fanouts, rng)
            if targets.size:
                cells, _ = transport.send((frontier - member_idx)[sender_idx] + targets)
        cells, times, _ = transport.arrive(cells)
        frontier = frontier[:0]
        if not cells.size:
            continue

        # Deliveries are booked per (replica, target) cell: duplicates are
        # arrivals at targets already infected or repeated within this
        # round's batch (dropped and wasted sends never arrive).
        fresh = unique_unseen(cells, received_flat)
        if transport.in_order:
            # The leg lands as it was sent, at one time per round: the fresh
            # cells carry every first arrival.
            arrivals += transport.replica_counts(cells)
            if times is not None:
                transport.record(fresh, times[: fresh.size])
        else:
            # Matured messages come first, so the arrivals are not
            # replica-major and their times differ.
            assert times is not None  # only a latency plane reorders arrivals
            arrivals += np.bincount(cells // n, minlength=repetitions)
            unseen = ~received_flat[cells]
            transport.record(cells[unseen], times[unseen])
        received_flat[fresh] = True
        frontier = fresh[alive_flat[fresh]]
        delivered_flat[frontier] = True

    return BatchGossipResult(
        n=n,
        source=source,
        alive=alive_masks,
        delivered=delivered,
        rounds=transport.rounds,
        messages_sent=transport.sent,
        # Every arrival is fresh (received for the first time; the source
        # holds the message from the start) or a duplicate.
        duplicates=arrivals - (received.sum(axis=1) - 1),
        messages_dropped=transport.dropped,
        delivery_times=transport.finalize(delivered) if owned else None,
    )


def simulate_gossip_event_driven(
    n: int,
    distribution: FanoutDistribution,
    q: float,
    *,
    source: int = 0,
    seed: SeedLike = None,
    network: NetworkModel | None = None,
    failure_pattern: FailurePattern | None = None,
    max_events: int | None = None,
) -> GossipExecution:
    """Run one execution on the discrete-event engine (behavioural reference).

    Semantics match one replica of :func:`simulate_gossip_batch`;
    additionally each message experiences a latency drawn from
    ``network.latency`` and may be lost with ``network.loss_probability``.
    With the default loss-free network the reachability distribution is
    identical to the batched engine's.
    """
    n = check_integer("n", n, minimum=1)
    q = check_probability("q", q)
    source = check_integer("source", source, minimum=0, maximum=n - 1)
    rng = as_generator(seed)
    view = FullView(n)
    net = network if network is not None else NetworkModel()
    dropped_before = net.messages_dropped

    if failure_pattern is None:
        failure_pattern = UniformCrashModel(q).draw(n, rng, source=source)
    alive = failure_pattern.alive.copy()
    alive[source] = True
    members = Member.build_group(n, alive, failure_pattern.timing)
    members[source].alive = True

    scheduler = EventScheduler()
    state = {"messages_sent": 0, "max_depth": 0}

    def handle_receive(sched: EventScheduler, data: tuple[int, int]) -> None:
        member_id, depth = data
        member = members[member_id]
        should_forward = member.on_receive(sched.now)
        if not should_forward:
            return
        state["max_depth"] = max(state["max_depth"], depth)
        fanout = int(distribution.sample(1, seed=rng)[0])
        if fanout <= 0:
            return
        targets = view.sample_targets(member_id, fanout, rng)
        member.record_forward(len(targets))
        for target in targets:
            state["messages_sent"] += 1
            net.transmit(
                rng,
                lambda latency, t=int(target), d=depth + 1: scheduler.schedule(
                    latency, handle_receive, (t, d)
                ),
            )

    # The source "receives" its own message at time 0 and gossips it.
    scheduler.schedule(0.0, handle_receive, (source, 0))
    scheduler.run(max_events=max_events)

    delivered = np.array([m.delivered for m in members], dtype=bool)
    duplicates = int(sum(m.duplicates for m in members))
    delivery_times = np.array([m.first_receipt_time for m in members], dtype=float)
    delivery_times[~delivered] = np.inf
    return GossipExecution(
        n=n,
        source=source,
        alive=alive,
        delivered=delivered,
        rounds=int(state["max_depth"]) + 1 if delivered.sum() > 0 else 0,
        messages_sent=int(state["messages_sent"]),
        duplicates=duplicates,
        messages_dropped=int(net.messages_dropped - dropped_before),
        delivery_times=delivery_times,
    )
