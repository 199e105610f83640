"""Lightweight probabilistic broadcast (lpbcast) style protocol.

Eugster et al.'s lpbcast piggybacks event notifications and membership
information on periodic gossip messages sent to a small random subset of a
*partial* view.  The dissemination core modelled here captures the parts that
matter for reliability under crash failures:

* members keep the message in a bounded event buffer once they learn it,
* every round, each nonfailed member holding the message gossips it to
  ``fanout`` members of its partial view (size ``view_size``),
* gossiping stops after ``rounds`` rounds (lpbcast is periodic, not
  quiescent, so the horizon is a parameter).

Compared with the paper's algorithm the key differences are the bounded view
and the fixed number of rounds, which is exactly what the membership ablation
benchmark explores.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import Protocol
from repro.simulation.membership import UniformPartialView, sample_distinct
from repro.simulation.network import NetworkModel
from repro.simulation.transport import Transport
from repro.utils.sampling import sample_distinct_rows, sample_distinct_rows_excluding
from repro.utils.validation import check_integer

__all__ = ["LpbcastProtocol"]


class LpbcastProtocol(Protocol):
    """Round-based push gossip over bounded partial views."""

    name = "lpbcast"

    def __init__(self, fanout: int = 3, rounds: int = 8, view_size: int = 30) -> None:
        self.fanout = check_integer("fanout", fanout, minimum=1)
        self.rounds = check_integer("rounds", rounds, minimum=1)
        self.view_size = check_integer("view_size", view_size, minimum=1)

    def _disseminate(
        self,
        n: int,
        alive: np.ndarray,
        source: int,
        rng: np.random.Generator,
        network: NetworkModel | None = None,
    ) -> tuple[np.ndarray, int, int, int]:
        view = UniformPartialView(n, min(self.view_size, n - 1), seed=rng)
        has_message = np.zeros(n, dtype=bool)
        has_message[source] = True
        messages = 0
        rounds_executed = 0
        for _ in range(self.rounds):
            rounds_executed += 1
            holders = np.flatnonzero(has_message & alive)
            if holders.size == 0:
                break
            newly: list[int] = []
            for member in holders:
                member_view = view.view_of(int(member))
                if member_view.size == 0:
                    continue
                k = min(self.fanout, member_view.size)
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

    def _disseminate_batch(
        self,
        n: int,
        alive: np.ndarray,
        source: int,
        rng: np.random.Generator,
        transport: Transport,
    ) -> np.ndarray:
        repetitions = int(alive.shape[0])
        size = min(self.view_size, n - 1)
        # Every replica gets its own fresh partial-view assignment, drawn for
        # all R·n members in one batched pass (the batched analogue of one
        # UniformPartialView per execution).
        cells_total = repetitions * n
        members = np.tile(np.arange(n, dtype=np.int64), repetitions)
        picks, _ = sample_distinct_rows_excluding(
            rng, n, np.full(cells_total, size, dtype=np.int64), members
        )
        views = picks.reshape(repetitions, n, size)

        fanout = min(self.fanout, size)
        has_message = np.zeros((repetitions, n), dtype=bool)
        has_message[:, source] = True
        has_flat = has_message.ravel()
        alive_flat = alive.ravel()

        # lpbcast is periodic: every replica gossips for the full round
        # budget (digest traffic continues even after everyone has the
        # message), so no convergence exit — only the holders-empty guard.
        active = np.ones(repetitions, dtype=bool)
        for _ in range(self.rounds):
            active = active | transport.pending_mask()
            if not active.any():
                break
            present = transport.next_round()
            transport.rounds += active
            holders = has_message & alive & active[:, None]
            if present is not None:
                # Departed holders stop gossiping; the static views go stale,
                # so sends into absent peers are wasted — exactly the
                # degradation the peer-sampling protocol repairs.
                holders &= present
            active &= holders.any(axis=1)
            rep_idx, mem_idx = np.nonzero(holders & active[:, None])
            cells = rep_idx[:0]
            if rep_idx.size:
                # Batched view sampling: per holder, `fanout` distinct slots
                # of its own view row, gathered in one fancy-indexed pass.
                slot_idx, _ = sample_distinct_rows(
                    rng, size, np.full(rep_idx.size, fanout, dtype=np.int64)
                )
                targets = np.take_along_axis(
                    views[rep_idx, mem_idx], slot_idx.astype(np.int64, copy=False), axis=1
                ).ravel()
                target_replica = np.repeat(rep_idx, fanout)
                cells, _ = transport.send(
                    target_replica * n + targets.astype(np.int64, copy=False), target_replica
                )
            cells, times, _ = transport.arrive(cells)
            fresh = transport.deliver(cells, times, has_flat, alive_flat)
            # A matured push can hand the message to a replica whose holders
            # had all departed; the new holder re-activates it.
            active = active | (np.bincount(fresh // n, minlength=repetitions) > 0)
        # Pushes still in flight at the horizon arrive anyway.
        transport.drain(has_flat, alive_flat)
        return has_message
