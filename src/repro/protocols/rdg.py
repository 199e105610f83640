"""Route Driven Gossip (RDG) style protocol.

Luo, Eugster and Hubaux's RDG targets mobile ad-hoc networks: data packets,
negative acknowledgments and membership information are all gossiped
uniformly, and missing packets are recovered with a pull ("gossiper-pull")
step driven by packet identifiers seen in gossip headers.  Stripped of the
routing specifics, the dissemination core alternates:

* **push**: every nonfailed member holding the message forwards it to
  ``fanout`` random peers,
* **pull**: every nonfailed member *without* the message asks ``pull_fanout``
  random peers; any queried peer that has it responds (one request plus one
  response message each).

The pull phase is what distinguishes RDG-style protocols from pure push and
lets them patch the last few percent of members at modest extra cost.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import Protocol
from repro.simulation.churn import ChurnScheduleBatch
from repro.simulation.latency import DeliveryTimePlane
from repro.simulation.membership import sample_distinct
from repro.simulation.network import NetworkModel
from repro.simulation.protocol_batch import sample_group_targets_batch
from repro.utils.validation import check_integer

__all__ = ["RouteDrivenGossip"]


class RouteDrivenGossip(Protocol):
    """Push/pull gossip with NACK-style recovery rounds."""

    name = "rdg"

    def __init__(self, fanout: int = 2, rounds: int = 6, pull_fanout: int = 1) -> None:
        self.fanout = check_integer("fanout", fanout, minimum=1)
        self.rounds = check_integer("rounds", rounds, minimum=1)
        self.pull_fanout = check_integer("pull_fanout", pull_fanout, minimum=0)

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
        messages = 0
        control = 0
        rounds_executed = 0
        for _ in range(self.rounds):
            rounds_executed += 1
            # -------------------------------------------------------- push
            holders = np.flatnonzero(has_message & alive)
            if holders.size == 0:
                break
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
            # -------------------------------------------------------- pull
            if self.pull_fanout > 0:
                missing = np.flatnonzero(alive & ~has_message)
                recovered: list[int] = []
                for member in missing:
                    peers = sample_distinct(rng, n, self.pull_fanout, exclude=int(member))
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

    def _disseminate_batch(
        self,
        n: int,
        alive: np.ndarray,
        source: int,
        rng: np.random.Generator,
        network: NetworkModel | None = None,
        churn: ChurnScheduleBatch | None = None,
        latency: DeliveryTimePlane | None = None,
    ) -> tuple[np.ndarray, ...]:
        repetitions = int(alive.shape[0])
        has_message = np.zeros((repetitions, n), dtype=bool)
        has_message[:, source] = True
        has_flat = has_message.ravel()
        alive_flat = alive.ravel()
        messages = np.zeros(repetitions, dtype=np.int64)
        dropped = np.zeros(repetitions, dtype=np.int64)
        rounds = np.zeros(repetitions, dtype=np.int64)
        control = np.zeros(repetitions, dtype=np.int64)

        active = np.ones(repetitions, dtype=bool)
        pull_fanout = min(self.pull_fanout, n - 1)
        round_index = 0
        for _ in range(self.rounds):
            if latency is not None:
                active = active | latency.pending_mask()
            if not active.any():
                break
            round_index += 1
            present = present_flat = None
            if churn is not None:
                # Absent members neither push, pull, nor answer pulls.
                present = churn.present_at(round_index)
                present_flat = present.ravel()
            rounds += active
            # ---------------------------------------------------------- push
            holders = has_message & alive & active[:, None]
            if present is not None:
                holders &= present
            active &= holders.any(axis=1)
            rep_idx, mem_idx = np.nonzero(holders & active[:, None])
            cells = np.empty(0, dtype=np.int64)
            if rep_idx.size:
                cells, target_replica = sample_group_targets_batch(
                    n, rep_idx, mem_idx, self.fanout, rng
                )
                messages += np.bincount(target_replica, minlength=repetitions)
                if network is not None:
                    keep, dropped_round = network.draw_loss_batch(
                        rng, target_replica, repetitions
                    )
                    dropped += dropped_round
                    cells = cells[keep]
                if present_flat is not None:
                    cells = cells[present_flat[cells]]
            if latency is not None or cells.size:
                if latency is not None:
                    # Per-push latency draws; slow pushes land in the round
                    # they mature (re-checked against that round's churn).
                    cells, push_times, _ = latency.schedule(round_index - 1, cells, rng)
                    if present_flat is not None and cells.size:
                        keep = present_flat[cells]
                        cells = cells[keep]
                        push_times = push_times[keep]
                    fresh_mask = alive_flat[cells] & ~has_flat[cells]
                    latency.record(cells[fresh_mask], push_times[fresh_mask])
                fresh = cells[alive_flat[cells] & ~has_flat[cells]]
                has_flat[fresh] = True
                if latency is not None:
                    # A matured push can revive a replica whose holders had
                    # all departed.
                    active = active | (np.bincount(fresh // n, minlength=repetitions) > 0)
            # ---------------------------------------------------------- pull
            if pull_fanout > 0:
                missing = alive & ~has_message & active[:, None]
                if present is not None:
                    missing &= present
                miss_rep, miss_mem = np.nonzero(missing)
                if miss_rep.size:
                    peer_cells, peer_replica = sample_group_targets_batch(
                        n, miss_rep, miss_mem, pull_fanout, rng
                    )
                    request_counts = np.bincount(peer_replica, minlength=repetitions)
                    messages += request_counts  # requests
                    control += request_counts  # requests carry no payload
                    # One response per missing member whose *surviving*
                    # requests include at least one nonfailed holder; the
                    # response itself is one more lossy message.
                    hit = has_flat[peer_cells] & alive_flat[peer_cells]
                    if present_flat is not None:
                        hit &= present_flat[peer_cells]
                    if network is not None:
                        keep, dropped_round = network.draw_loss_batch(
                            rng, peer_replica, repetitions
                        )
                        dropped += dropped_round
                        hit &= keep
                    puller = np.repeat(np.arange(miss_rep.size), pull_fanout)
                    responding = np.bincount(puller[hit], minlength=miss_rep.size) > 0
                    messages += np.bincount(miss_rep[responding], minlength=repetitions)
                    recovered = responding
                    if network is not None:
                        keep, dropped_round = network.draw_loss_batch(
                            rng, miss_rep[responding], repetitions
                        )
                        dropped += dropped_round
                        recovered = responding.copy()
                        recovered[np.flatnonzero(responding)[~keep]] = False
                    recovered_cells = miss_rep[recovered] * n + miss_mem[recovered]
                    has_flat[recovered_cells] = True
                    if latency is not None:
                        # The pull is an intra-round round trip: the payload
                        # lands a request leg plus a response leg after the
                        # round's send instant.
                        latency.record(
                            recovered_cells,
                            latency.send_time(round_index - 1)
                            + latency.draw(rng, recovered_cells.size)
                            + latency.draw(rng, recovered_cells.size),
                        )
            active &= np.any(alive & ~has_message, axis=1)
        if latency is not None:
            # Pushes still in flight at the horizon arrive anyway.
            cells, times, _ = latency.drain()
            fresh_mask = alive_flat[cells] & ~has_flat[cells]
            latency.record(cells[fresh_mask], times[fresh_mask])
            has_flat[cells[fresh_mask]] = True
        return has_message, messages, dropped, rounds, control
