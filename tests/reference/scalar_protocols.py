"""The scalar dissemination engines, kept as test oracles.

Every protocol of :mod:`repro.protocols` once carried two implementations of
its dissemination: the batched ``_disseminate_batch`` hook the engines run,
and a scalar ``_disseminate`` body that walked one execution member by
member.  The scalar bodies live on here, unchanged, as functions of the
protocol instance dispatched by its class:

* :func:`run` is ``Protocol.run`` as it ran on those bodies: one failure
  draw (or an explicit ``failure_pattern``), then the protocol's scalar body,
  which reads the generator exactly as before;
* :func:`simulate_gossip_once` is the scalar frontier (BFS) simulation of
  the paper's Fig. 1 algorithm, which the random-fanout body calls.

The tests pin the batched engines to these oracles in distribution.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.distributions import FanoutDistribution
from repro.protocols import (
    AntiEntropyProtocol,
    FixedFanoutGossip,
    FloodingProtocol,
    HyParViewProtocol,
    LazyPushProtocol,
    LpbcastProtocol,
    PbcastProtocol,
    RandomFanoutGossip,
    RouteDrivenGossip,
)
from repro.protocols.base import Protocol, ProtocolResult
from repro.simulation.failures import FailureModel, FailurePattern, UniformCrashModel
from repro.simulation.gossip import GossipExecution
from repro.simulation.membership import (
    FullView,
    MembershipView,
    UniformPartialView,
    sample_distinct,
)
from repro.simulation.network import NetworkModel
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_integer, check_probability

__all__ = ["run", "simulate_gossip_once"]

#: What a scalar body returns: ``(delivered, messages, rounds,
#: control_messages)``; protocols that only push payload report 0 control
#: messages.  ``network`` (when not ``None``) supplies the independent
#: message-loss law via :meth:`~repro.simulation.network.NetworkModel.draw_loss`.
DisseminateResult = tuple[np.ndarray, int, int, int]


def run(
    protocol: Protocol,
    n: int,
    q: float,
    *,
    source: int = 0,
    seed: SeedLike = None,
    failure_pattern: FailurePattern | None = None,
    failure_model: FailureModel | None = None,
    network: NetworkModel | None = None,
) -> ProtocolResult:
    """Disseminate one message through a group with fail-stop failures.

    Failures come from ``failure_pattern`` when supplied, else from one
    draw of ``failure_model`` (default: the paper's uniform-``q`` crash
    model) — the same pluggable layer the batched engine uses.  An
    optional ``network`` drops each point-to-point message independently
    with ``network.loss_probability``; the model is reset on entry so its
    counters (``messages_sent``, ``messages_dropped``, ``total_latency``)
    describe exactly this execution and never leak across runs.
    """
    n = check_integer("n", n, minimum=2)
    q = check_probability("q", q)
    source = check_integer("source", source, minimum=0, maximum=n - 1)
    rng = as_generator(seed)
    if failure_pattern is None:
        model = failure_model if failure_model is not None else UniformCrashModel(q)
        failure_pattern = model.draw(n, rng, source=source)
    alive = failure_pattern.alive.copy()
    alive[source] = True
    if network is not None:
        network.reset()
    delivered, messages, rounds, control = _BODIES[type(protocol)](
        protocol, n, alive, source, rng, network
    )
    dropped = network.messages_dropped if network is not None else 0
    delivered = np.asarray(delivered, dtype=bool)
    delivered &= alive  # failed members never count as delivered
    delivered[source] = True
    return ProtocolResult(
        protocol=protocol.name,
        n=n,
        alive=alive,
        delivered=delivered,
        messages_sent=int(messages),
        rounds=int(rounds),
        messages_dropped=int(dropped),
        control_messages_sent=int(control),
    )


def simulate_gossip_once(
    n: int,
    distribution: FanoutDistribution,
    q: float,
    *,
    source: int = 0,
    seed: SeedLike = None,
    membership: MembershipView | None = None,
    failure_pattern: FailurePattern | None = None,
    network: NetworkModel | None = None,
) -> GossipExecution:
    """Run one execution of the general gossip algorithm (fast frontier simulation).

    Parameters
    ----------
    n:
        Group size.
    distribution:
        Fanout distribution ``P``.
    q:
        Nonfailed-member ratio (ignored when an explicit ``failure_pattern``
        is supplied).
    source:
        The member that multicasts the message (never fails).
    seed:
        Seed or generator for all randomness of this execution.
    membership:
        Membership view provider; defaults to a full view of the group.
    failure_pattern:
        Pre-drawn failure pattern (used by repeated-execution experiments
        that want to hold failures fixed across executions).
    network:
        Optional lossy transport: every sent message is independently dropped
        with ``network.loss_probability`` (latency is irrelevant to the
        round-abstracted simulation).  Dropped messages count as sent but
        never arrive, so they are neither deliveries nor duplicates.  With
        ``loss_probability == 0`` the execution is bit-for-bit identical to
        the ``network=None`` path.
    """
    n = check_integer("n", n, minimum=1)
    q = check_probability("q", q)
    source = check_integer("source", source, minimum=0, maximum=n - 1)
    rng = as_generator(seed)
    view = membership if membership is not None else FullView(n)
    if view.n != n:
        raise ValueError(f"membership view is for n={view.n}, expected n={n}")

    if failure_pattern is None:
        failure_pattern = UniformCrashModel(q).draw(n, rng, source=source)
    alive = failure_pattern.alive.copy()
    alive[source] = True

    received = np.zeros(n, dtype=bool)
    delivered = np.zeros(n, dtype=bool)
    received[source] = True
    delivered[source] = True

    messages_sent = 0
    duplicates = 0
    messages_dropped = 0
    rounds = 0

    frontier = np.array([source], dtype=np.int64)
    while frontier.size:
        rounds += 1
        fanouts = distribution.sample(frontier.size, seed=rng)
        target_batches = [
            view.sample_targets(int(member), int(fanout), rng)
            for member, fanout in zip(frontier, fanouts, strict=True)
            if fanout > 0
        ]
        if not target_batches:
            break
        all_targets = np.concatenate(target_batches)
        messages_sent += int(all_targets.size)
        if network is not None:
            keep = network.draw_loss(rng, all_targets.size)
            messages_dropped += int(all_targets.size - keep.sum())
            all_targets = all_targets[keep]
        # Deliveries are processed as a batch: members that already had the
        # message (or appear twice in the batch) count as duplicates; failed
        # targets "receive" but never forward (crash-after-receive) or the
        # message is wasted (crash-before-receive) — either way they do not
        # join the frontier.
        unique_targets = np.unique(all_targets)
        fresh = unique_targets[~received[unique_targets]]
        duplicates += int(all_targets.size - fresh.size)
        received[fresh] = True
        newly_alive = fresh[alive[fresh]]
        delivered[newly_alive] = True
        frontier = newly_alive

    return GossipExecution(
        n=n,
        source=source,
        alive=alive,
        delivered=delivered,
        rounds=rounds,
        messages_sent=messages_sent,
        duplicates=duplicates,
        messages_dropped=messages_dropped,
    )


def _fixed_fanout(
    protocol: FixedFanoutGossip,
    n: int,
    alive: np.ndarray,
    source: int,
    rng: np.random.Generator,
    network: NetworkModel | None = None,
) -> DisseminateResult:
    received = np.zeros(n, dtype=bool)
    delivered = np.zeros(n, dtype=bool)
    received[source] = True
    delivered[source] = True
    messages = 0
    rounds = 0
    frontier = np.array([source], dtype=np.int64)
    while frontier.size:
        rounds += 1
        batches = [
            sample_distinct(rng, n, protocol.fanout, exclude=int(member))
            for member in frontier
        ]
        batches = [b for b in batches if b.size]
        if not batches:
            break
        targets = np.concatenate(batches)
        messages += int(targets.size)
        if network is not None:
            targets = targets[network.draw_loss(rng, targets.size)]
        unique_targets = np.unique(targets)
        fresh = unique_targets[~received[unique_targets]]
        received[fresh] = True
        newly_alive = fresh[alive[fresh]]
        delivered[newly_alive] = True
        frontier = newly_alive
    return delivered, messages, rounds, 0


def _random_fanout(
    protocol: RandomFanoutGossip,
    n: int,
    alive: np.ndarray,
    source: int,
    rng: np.random.Generator,
    network: NetworkModel | None = None,
) -> DisseminateResult:
    pattern = FailurePattern(alive=alive, timing=np.full(n, None, dtype=object))
    execution = simulate_gossip_once(
        n,
        protocol.distribution,
        q=1.0,  # failures are supplied through the explicit pattern
        source=source,
        seed=rng,
        failure_pattern=pattern,
        network=network,
    )
    return execution.delivered, execution.messages_sent, execution.rounds, 0


def _pbcast(
    protocol: PbcastProtocol,
    n: int,
    alive: np.ndarray,
    source: int,
    rng: np.random.Generator,
    network: NetworkModel | None = None,
) -> DisseminateResult:
    has_message = np.zeros(n, dtype=bool)
    has_message[source] = True
    messages = 0
    control = 0

    # Phase 1: unreliable best-effort broadcast from the source.
    reached = rng.random(n) < protocol.broadcast_reach
    reached[source] = True
    messages += n - 1  # the broadcast costs one transmission per member
    if network is not None:
        # Each broadcast leg is additionally dropped by the transport
        # (the source never broadcasts to itself).
        keep = np.ones(n, dtype=bool)
        others = np.flatnonzero(np.arange(n) != source)
        keep[others] = network.draw_loss(rng, n - 1)
        reached &= keep
    # Only members that are up can buffer the message.
    has_message |= reached & alive

    # Phase 2: anti-entropy gossip of digests with pull-based recovery.
    rounds_executed = 0
    for _ in range(protocol.rounds):
        rounds_executed += 1
        holders = np.flatnonzero(has_message & alive)
        if holders.size == 0:
            break
        newly = []
        for member in holders:
            targets = sample_distinct(rng, n, protocol.fanout, exclude=int(member))
            messages += int(targets.size)  # digest messages
            control += int(targets.size)  # digests carry no payload
            if network is not None:
                targets = targets[network.draw_loss(rng, targets.size)]
            for target in targets:
                target = int(target)
                if alive[target] and not has_message[target]:
                    # The peer notices the gap and pulls the payload
                    # (round trip modelled as one lossy message).
                    messages += 1
                    if network is None or network.draw_loss(rng, 1)[0]:
                        newly.append(target)
        if not newly:
            # Converged: every digest found an up-to-date peer.
            break
        has_message[np.array(newly, dtype=np.int64)] = True
    return has_message, messages, rounds_executed, control


def _lpbcast(
    protocol: LpbcastProtocol,
    n: int,
    alive: np.ndarray,
    source: int,
    rng: np.random.Generator,
    network: NetworkModel | None = None,
) -> DisseminateResult:
    view = UniformPartialView(n, min(protocol.view_size, n - 1), seed=rng)
    has_message = np.zeros(n, dtype=bool)
    has_message[source] = True
    messages = 0
    rounds_executed = 0
    for _ in range(protocol.rounds):
        rounds_executed += 1
        holders = np.flatnonzero(has_message & alive)
        if holders.size == 0:
            break
        newly: list[int] = []
        for member in holders:
            member_view = view.view_of(int(member))
            if member_view.size == 0:
                continue
            k = min(protocol.fanout, member_view.size)
            idx = sample_distinct(rng, member_view.size, k)
            targets = member_view[idx]
            messages += int(targets.size)
            if network is not None:
                targets = targets[network.draw_loss(rng, targets.size)]
            for target in targets:
                target = int(target)
                if alive[target] and not has_message[target]:
                    newly.append(target)
        if newly:
            has_message[np.array(newly, dtype=np.int64)] = True
    return has_message, messages, rounds_executed, 0


def _rdg(
    protocol: RouteDrivenGossip,
    n: int,
    alive: np.ndarray,
    source: int,
    rng: np.random.Generator,
    network: NetworkModel | None = None,
) -> DisseminateResult:
    has_message = np.zeros(n, dtype=bool)
    has_message[source] = True
    messages = 0
    control = 0
    rounds_executed = 0
    for _ in range(protocol.rounds):
        rounds_executed += 1
        # -------------------------------------------------------- push
        holders = np.flatnonzero(has_message & alive)
        if holders.size == 0:
            break
        newly: list[int] = []
        for member in holders:
            targets = sample_distinct(rng, n, protocol.fanout, exclude=int(member))
            messages += int(targets.size)
            if network is not None:
                targets = targets[network.draw_loss(rng, targets.size)]
            for target in targets:
                target = int(target)
                if alive[target] and not has_message[target]:
                    newly.append(target)
        if newly:
            has_message[np.array(newly, dtype=np.int64)] = True
        # -------------------------------------------------------- pull
        if protocol.pull_fanout > 0:
            missing = np.flatnonzero(alive & ~has_message)
            recovered: list[int] = []
            for member in missing:
                peers = sample_distinct(rng, n, protocol.pull_fanout, exclude=int(member))
                messages += int(peers.size)  # pull requests
                control += int(peers.size)  # requests carry no payload
                if network is not None:
                    # A lost request never reaches its peer.
                    peers = peers[network.draw_loss(rng, peers.size)]
                hit = peers[has_message[peers] & alive[peers]]
                if hit.size:
                    messages += 1  # one response carrying the payload
                    if network is None or network.draw_loss(rng, 1)[0]:
                        recovered.append(int(member))
            if recovered:
                has_message[np.array(recovered, dtype=np.int64)] = True
        if bool(np.all(has_message[alive])):
            break
    return has_message, messages, rounds_executed, control


def _flooding(
    protocol: FloodingProtocol,
    n: int,
    alive: np.ndarray,
    source: int,
    rng: np.random.Generator,
    network: NetworkModel | None = None,
) -> DisseminateResult:
    # Build the overlay: each member picks `degree` neighbours; links are
    # symmetric, so the adjacency is the union of both directions.
    neighbours: list[set[int]] = [set() for _ in range(n)]
    for member in range(n):
        picks = sample_distinct(rng, n, min(protocol.degree, n - 1), exclude=member)
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


def _hyparview(
    protocol: HyParViewProtocol,
    n: int,
    alive: np.ndarray,
    source: int,
    rng: np.random.Generator,
    network: NetworkModel | None = None,
) -> DisseminateResult:
    active_size = min(protocol.active_size, n - 1)
    passive_size = min(protocol.passive_size, n - 1)
    fanout = min(protocol.fanout, active_size)
    active_view = np.empty((n, active_size), dtype=np.int64)
    passive_view = np.empty((n, passive_size), dtype=np.int64)
    for member in range(n):
        active_view[member] = sample_distinct(rng, n, active_size, exclude=member)
        passive_view[member] = sample_distinct(rng, n, passive_size, exclude=member)

    has_message = np.zeros(n, dtype=bool)
    has_message[source] = True
    messages = 0
    rounds_executed = 0
    for round_index in range(1, protocol.rounds + 1):
        rounds_executed += 1
        holders = np.flatnonzero(has_message & alive)
        if holders.size == 0:
            break
        newly: list[int] = []
        for member in holders:
            slots = sample_distinct(rng, active_size, fanout)
            targets = active_view[member, slots]
            messages += int(targets.size)
            if network is not None:
                targets = targets[network.draw_loss(rng, targets.size)]
            for target in targets:
                target = int(target)
                if alive[target] and not has_message[target]:
                    newly.append(target)
        if newly:
            has_message[np.array(newly, dtype=np.int64)] = True
        # Periodic shuffle: every nonfailed member swaps one random
        # active entry for one random passive entry (one control message
        # each) — the membership service runs group-wide, holders or not.
        if round_index % protocol.shuffle_interval == 0:
            for member in np.flatnonzero(alive):
                slot = int(rng.integers(active_size))
                pick = int(rng.integers(passive_size))
                active_view[member, slot], passive_view[member, pick] = (
                    passive_view[member, pick],
                    active_view[member, slot],
                )
                messages += 1
    return has_message, messages, rounds_executed, 0


def _lazy_push(
    protocol: LazyPushProtocol,
    n: int,
    alive: np.ndarray,
    source: int,
    rng: np.random.Generator,
    network: NetworkModel | None = None,
) -> DisseminateResult:
    has_message = np.zeros(n, dtype=bool)
    has_message[source] = True
    budget = np.full(n, protocol.retry_budget, dtype=np.int64)
    advertiser = np.full(n, -1, dtype=np.int64)
    messages = 0
    control = 0
    rounds_executed = 0
    for _ in range(protocol.rounds):
        if bool(np.all(has_message[alive])):
            break
        rounds_executed += 1
        # ---------------------------------------------- recovery leg
        # Members armed by last round's digests fire one IWANT each at
        # their chosen advertiser; the advertisement then times out
        # (re-arming requires a fresh digest).
        armed = np.flatnonzero(advertiser >= 0)
        for member in armed:
            member = int(member)
            adv = int(advertiser[member])
            advertiser[member] = -1
            if not alive[member] or has_message[member] or budget[member] <= 0:
                continue
            budget[member] -= 1
            messages += 1  # IWANT
            control += 1
            if network is not None and not bool(network.draw_loss(rng, 1)[0]):
                continue
            if not (alive[adv] and has_message[adv]):
                continue
            messages += 1  # payload answer
            if network is None or bool(network.draw_loss(rng, 1)[0]):
                has_message[member] = True
        # ----------------------------------------- dissemination leg
        holders = np.flatnonzero(has_message & alive)
        if float(has_message.sum()) / n < protocol.eager_threshold:
            # Eager phase: ordinary payload push from every holder.
            newly: list[int] = []
            for member in holders:
                targets = sample_distinct(rng, n, protocol.fanout, exclude=int(member))
                messages += int(targets.size)
                if network is not None:
                    targets = targets[network.draw_loss(rng, targets.size)]
                for target in targets:
                    target = int(target)
                    if alive[target] and not has_message[target]:
                        newly.append(target)
            if newly:
                has_message[np.array(newly, dtype=np.int64)] = True
        else:
            # Lazy phase: IHAVE digests only; a missing member with
            # budget left arms one advertiser uniformly at random among
            # the digests that reached it this round.
            received: dict[int, list[int]] = {}
            for member in holders:
                targets = sample_distinct(rng, n, protocol.ihave_fanout, exclude=int(member))
                messages += int(targets.size)  # IHAVE digests
                control += int(targets.size)
                if network is not None:
                    targets = targets[network.draw_loss(rng, targets.size)]
                for target in targets:
                    target = int(target)
                    if alive[target] and not has_message[target] and budget[target] > 0:
                        received.setdefault(target, []).append(int(member))
            for target, senders in received.items():
                advertiser[target] = senders[int(rng.integers(len(senders)))]
    return has_message, messages, rounds_executed, control


def _anti_entropy(
    protocol: AntiEntropyProtocol,
    n: int,
    alive: np.ndarray,
    source: int,
    rng: np.random.Generator,
    network: NetworkModel | None = None,
) -> DisseminateResult:
    has_message = np.zeros(n, dtype=bool)
    has_message[source] = True
    messages = 0
    control = 0
    rounds_executed = 0
    for _ in range(protocol.rounds):
        if bool(np.all(has_message[alive])):
            break
        rounds_executed += 1
        # Reconciliation decisions use the round-start state, so the
        # scalar member loop and the batched array program share one law
        # (duplicate transfers to the same recipient are all counted).
        snapshot = has_message.copy()
        newly: list[int] = []
        for member in np.flatnonzero(alive):
            member = int(member)
            peers = sample_distinct(rng, n, protocol.fanout, exclude=member)
            messages += int(peers.size)  # digests
            control += int(peers.size)
            if network is not None:
                peers = peers[network.draw_loss(rng, peers.size)]
            for peer in peers:
                peer = int(peer)
                if not alive[peer]:
                    continue
                if snapshot[member] == snapshot[peer]:
                    continue  # nothing to reconcile
                recipient = peer if snapshot[member] else member
                messages += 1  # payload transfer (push or pull)
                if network is None or bool(network.draw_loss(rng, 1)[0]):
                    newly.append(recipient)
        if newly:
            has_message[np.array(newly, dtype=np.int64)] = True
    return has_message, messages, rounds_executed, control


#: Each protocol class's scalar body.
_BODIES: dict[type, Callable[..., DisseminateResult]] = {
    FixedFanoutGossip: _fixed_fanout,
    RandomFanoutGossip: _random_fanout,
    PbcastProtocol: _pbcast,
    LpbcastProtocol: _lpbcast,
    RouteDrivenGossip: _rdg,
    FloodingProtocol: _flooding,
    HyParViewProtocol: _hyparview,
    LazyPushProtocol: _lazy_push,
    AntiEntropyProtocol: _anti_entropy,
}
