"""Lazy-push (IHAVE/IWANT) two-phase recovery protocol.

Pure push gossip has a hard failure mode under message loss: a dropped
payload is gone forever, so the only remedy the paper's dimensioning can
offer is "push harder" (bigger fanout).  The lazy-push design — the
Plumtree idea, also the stage-8 IHAVE/IWANT scheme in the related repos —
replaces late-phase payload pushes with cheap digests and lets the
*receivers* repair their own gaps:

1. **Eager phase** — while the infected fraction of a run is below
   ``eager_threshold``, every member holding the payload pushes it to
   ``fanout`` random peers per round (ordinary push gossip; this is what
   builds the bulk of the coverage quickly).
2. **Lazy phase** — once the threshold is crossed, holders stop pushing
   payload and instead advertise it with IHAVE digests to ``ihave_fanout``
   random peers per round.  A nonfailed member that is still missing the
   payload and receives at least one digest picks one advertiser uniformly
   at random and answers with an IWANT in the **next** round; the
   advertiser then returns the payload.  Each of the three legs (digest,
   IWANT, payload answer) is an independently lossy message.

Recovery degrades gracefully instead of hanging: every member has a
``retry_budget`` of IWANTs (an unanswered IWANT costs one budget unit and
the member simply re-arms from the next digest that arrives), and an armed
advertisement times out after one round.  Under churn the repair leg is
honest — a departed holder stops answering IWANTs and digests to absent
members are wasted sends — which is exactly the adversity the
``recovery_resilience`` experiment measures.

Digests and IWANTs are **control messages**: they are counted in
``messages_sent`` but also reported via the ``control_messages_sent``
split, so the payload cost of recovery can be compared honestly against
pure push.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import Protocol
from repro.simulation.membership import sample_distinct
from repro.simulation.network import NetworkModel
from repro.simulation.protocol_batch import sample_group_targets_batch
from repro.simulation.transport import Transport
from repro.utils.validation import check_integer, check_probability

__all__ = ["LazyPushProtocol"]


class LazyPushProtocol(Protocol):
    """Eager push below an infection threshold, IHAVE/IWANT recovery above it."""

    name = "lazy-push"

    def __init__(
        self,
        fanout: int = 2,
        rounds: int = 8,
        eager_threshold: float = 0.5,
        ihave_fanout: int | None = None,
        retry_budget: int = 5,
    ) -> None:
        self.fanout = check_integer("fanout", fanout, minimum=1)
        self.rounds = check_integer("rounds", rounds, minimum=0)
        self.eager_threshold = check_probability("eager_threshold", eager_threshold)
        self.ihave_fanout = check_integer(
            "ihave_fanout", self.fanout if ihave_fanout is None else ihave_fanout, minimum=1
        )
        self.retry_budget = check_integer("retry_budget", retry_budget, minimum=0)
        #: populated by ``_disseminate_batch``: recovery-plane bookkeeping of
        #: the last batched run ({"iwants_sent", "recoveries",
        #: "budget_exhausted"}), for tests and experiment harvesting.
        self.last_batch_stats: dict | None = None

    def _disseminate(
        self,
        n: int,
        alive: np.ndarray,
        source: int,
        rng: np.random.Generator,
        network: NetworkModel | None = None,
    ) -> tuple[np.ndarray, int, int, int]:
        has_message = np.zeros(n, dtype=bool)
        has_message[source] = True
        budget = np.full(n, self.retry_budget, dtype=np.int64)
        advertiser = np.full(n, -1, dtype=np.int64)
        messages = 0
        control = 0
        rounds_executed = 0
        for _ in range(self.rounds):
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
            if float(has_message.sum()) / n < self.eager_threshold:
                # Eager phase: ordinary payload push from every holder.
                newly: list[int] = []
                for member in holders:
                    targets = sample_distinct(rng, n, self.fanout, exclude=int(member))
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
                    targets = sample_distinct(rng, n, self.ihave_fanout, exclude=int(member))
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

    def _disseminate_batch(
        self,
        n: int,
        alive: np.ndarray,
        source: int,
        rng: np.random.Generator,
        transport: Transport,
    ) -> np.ndarray:
        repetitions = int(alive.shape[0])
        has_message = np.zeros((repetitions, n), dtype=bool)
        has_message[:, source] = True
        has_flat = has_message.ravel()
        alive_flat = alive.ravel()
        budget = np.full((repetitions, n), self.retry_budget, dtype=np.int64)
        budget_flat = budget.ravel()
        advertiser = np.full((repetitions, n), -1, dtype=np.int64)
        adv_flat = advertiser.ravel()
        iwants_sent = 0
        recoveries = 0

        eager_fanout = min(self.fanout, n - 1)
        ihave_fanout = min(self.ihave_fanout, n - 1)
        active = np.ones(repetitions, dtype=bool)
        for _ in range(self.rounds):
            active &= np.any(alive & ~has_message, axis=1)
            if not active.any():
                break
            present = transport.next_round()
            transport.rounds += active
            # ---------------------------------------------- recovery leg
            pending = (advertiser >= 0) & alive & ~has_message & (budget > 0)
            pending &= active[:, None]
            if present is not None:
                # Absent members cannot send IWANTs this round.
                pending &= present
            rep_w, mem_w = np.nonzero(pending)
            adv_cells = rep_w * n + advertiser[rep_w, mem_w]
            # Every armed advertisement times out after one round, fired or
            # not; re-arming requires a fresh digest (matches the scalar
            # reference, where churn never suspends a requester).
            adv_flat[adv_flat >= 0] = -1
            if rep_w.size:
                budget[rep_w, mem_w] -= 1
                iwants_sent += int(rep_w.size)
                # A departed (or failed) holder stops answering IWANTs; an
                # answer is one more lossy message back to the requester.
                adv_cells, want_cells = transport.send(
                    adv_cells, rep_w, control=True, aux=rep_w * n + mem_w
                )
                answer = alive_flat[adv_cells] & has_flat[adv_cells]
                if answer.any():
                    got_cells, _ = transport.send(want_cells[answer], want_cells[answer] // n)
                    has_flat[got_cells] = True
                    recoveries += int(got_cells.size)
                    # IWANT + payload answer is an intra-round round trip.
                    transport.round_trip(got_cells)
            # ----------------------------------------- dissemination leg
            fractions = has_message.sum(axis=1) / n
            eager = active & (fractions < self.eager_threshold)
            holders = has_message & alive & active[:, None]
            if present is not None:
                holders &= present
            rep_e, mem_e = np.nonzero(holders & eager[:, None])
            cells = rep_e[:0]
            if rep_e.size:
                cells, target_replica = sample_group_targets_batch(
                    n, rep_e, mem_e, eager_fanout, rng
                )
                cells, _ = transport.send(cells, target_replica)
            cells, times, _ = transport.arrive(cells)
            transport.deliver(cells, times, has_flat, alive_flat)
            rep_l, mem_l = np.nonzero(holders & ~eager[:, None])
            cells = senders = rep_l[:0]
            if rep_l.size:
                cells, target_replica = sample_group_targets_batch(
                    n, rep_l, mem_l, ihave_fanout, rng
                )
                cells, senders = transport.send(
                    cells, target_replica, control=True, aux=np.repeat(mem_l, ihave_fanout)
                )
            # IHAVE digests ride the latency plane, each carrying its
            # advertising sender; a slow digest arms its target in the round
            # it lands (so the IWANT fires the round after that).
            cells, _, senders = transport.arrive(cells, channel="digest", aux=senders)
            receptive = alive_flat[cells] & ~has_flat[cells] & (budget_flat[cells] > 0)
            cells = cells[receptive]
            senders = senders[receptive]
            if cells.size:
                # One advertiser per receiving member, uniform among the
                # digests that arrived: random sort keys within each cell,
                # then take the first digest per cell.
                keys = rng.random(cells.size)
                order = np.lexsort((keys, cells))
                cells_sorted = cells[order]
                senders_sorted = senders[order]
                first = np.ones(cells_sorted.size, dtype=bool)
                first[1:] = cells_sorted[1:] != cells_sorted[:-1]
                adv_flat[cells_sorted[first]] = senders_sorted[first]
        # Eager pushes still in flight at the horizon arrive anyway; in-flight
        # IHAVE digests die with the protocol (the IWANT they would provoke is
        # never sent).
        transport.drain(has_flat, alive_flat)
        self.last_batch_stats = {
            "iwants_sent": int(iwants_sent),
            "recoveries": int(recoveries),
            "budget_exhausted": int(np.count_nonzero(alive & ~has_message & (budget <= 0))),
        }
        return has_message
