"""Common interface and result record for baseline multicast protocols.

Every protocol disseminates a single message from a source member through a
group of ``n`` members, a fraction ``1 - q`` of which crash (fail-stop, source
excluded), and reports which nonfailed members ended up with the message and
how many point-to-point messages the protocol spent doing so.  Keeping the
interface this narrow is what makes the cross-protocol reliability/cost
comparison (``repro run protocol_comparison`` and
``benchmarks/bench_baseline_protocols.py``) meaningful.

A protocol implements one hook, :meth:`Protocol._disseminate_batch`, which
propagates ``R`` independent executions as ``(R, n)`` array programs and
sends every message over the batch's
:class:`~repro.simulation.transport.Transport`.  Both entry points run it
through :func:`repro.simulation.protocol_batch.simulate_protocol_batch`:

* :meth:`Protocol.run_batch` — ``R`` executions as one batch;
* :meth:`Protocol.run` — one execution, the one-replica view of
  :meth:`Protocol.run_batch`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.simulation.failures import FailureModel
from repro.simulation.network import NetworkModel
from repro.utils.rng import SeedLike

if TYPE_CHECKING:
    from repro.simulation.churn import ChurnModel, ChurnScheduleBatch
    from repro.simulation.protocol_batch import BatchProtocolResult
    from repro.simulation.transport import Transport

__all__ = ["Protocol", "ProtocolResult"]


@dataclass(frozen=True)
class ProtocolResult:
    """Outcome of one protocol run.

    Attributes
    ----------
    protocol:
        Protocol name.
    n:
        Group size.
    alive:
        Boolean mask of nonfailed members.
    delivered:
        Boolean mask of nonfailed members holding the message at the end.
    messages_sent:
        Total point-to-point messages (data + control) sent by the protocol.
    rounds:
        Number of protocol rounds / gossip hops executed.
    messages_dropped:
        Messages lost in transit (0 unless the run used a lossy
        :class:`~repro.simulation.network.NetworkModel`).
    control_messages_sent:
        The subset of ``messages_sent`` that carried no payload — digests,
        IHAVE advertisements, IWANT/pull requests.  Protocols that only ever
        push payload report 0, so ``messages_sent - control_messages_sent``
        is always the number of payload-carrying transmissions and cost
        comparisons across push and recovery protocols stay honest.
    """

    protocol: str
    n: int
    alive: np.ndarray
    delivered: np.ndarray
    messages_sent: int
    rounds: int
    messages_dropped: int = 0
    control_messages_sent: int = 0

    def n_alive(self) -> int:
        """Return the number of nonfailed members."""
        return int(self.alive.sum())

    def reliability(self) -> float:
        """Return delivered nonfailed members / nonfailed members."""
        alive = self.n_alive()
        return float((self.delivered & self.alive).sum()) / alive if alive else 0.0

    def is_atomic(self) -> bool:
        """Return True iff every nonfailed member received the message."""
        return bool(np.all(self.delivered[self.alive]))

    def messages_per_member(self) -> float:
        """Return the message cost normalised by group size."""
        return self.messages_sent / self.n if self.n else 0.0

    def payload_messages_sent(self) -> int:
        """Return the number of payload-carrying messages (total minus control)."""
        return self.messages_sent - self.control_messages_sent

    def payload_messages_per_member(self) -> float:
        """Return the payload-only message cost normalised by group size."""
        return self.payload_messages_sent() / self.n if self.n else 0.0


class Protocol(ABC):
    """Abstract baseline protocol.

    Subclasses implement :meth:`_disseminate_batch`, which receives the
    ``(R, n)`` alive masks, an RNG and the batch's transport and returns the
    ``(R, n)`` delivered masks.  The shared :meth:`run` and
    :meth:`run_batch` methods handle failure drawing and bookkeeping so
    every protocol is evaluated under exactly the same fault model as the
    paper's algorithm.
    """

    #: human-readable protocol name (overridden by subclasses)
    name: str = "protocol"

    def run(
        self,
        n: int,
        q: float,
        *,
        source: int = 0,
        seed: SeedLike = None,
        failure_model: FailureModel | None = None,
        network: NetworkModel | None = None,
    ) -> ProtocolResult:
        """Disseminate one message through a group with fail-stop failures.

        The one-replica view of :meth:`run_batch`: it returns
        ``self.run_batch(n, q, repetitions=1, ...).result(0)``, so a run
        reads the generator exactly as a one-replica batch does.  Failures
        come from one draw of ``failure_model`` (default: the paper's
        uniform-``q`` crash model).  An optional ``network`` applies its loss
        law to every point-to-point message and, as in :meth:`run_batch`,
        its latency plane on the unit round clock; the model is reset on
        entry so its counters (``messages_sent``, ``messages_dropped``,
        ``total_latency``) describe exactly this execution.
        """
        return self.run_batch(
            n,
            q,
            repetitions=1,
            source=source,
            seed=seed,
            failure_model=failure_model,
            network=network,
        ).result(0)

    def run_batch(
        self,
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
        """Run ``repetitions`` independent executions as one ``(R, n)`` array program.

        Convenience wrapper around
        :func:`repro.simulation.protocol_batch.simulate_protocol_batch`;
        returns a :class:`~repro.simulation.protocol_batch.BatchProtocolResult`.
        ``churn`` optionally supplies the dynamic-membership plane (a
        :class:`~repro.simulation.churn.ChurnModel` or a pre-drawn
        :class:`~repro.simulation.churn.ChurnScheduleBatch`); ``round_period``
        sets the round duration of the delivery-time plane a ``network``
        enables.
        """
        from repro.simulation.protocol_batch import simulate_protocol_batch

        return simulate_protocol_batch(
            self,
            n,
            q,
            repetitions=repetitions,
            source=source,
            seed=seed,
            failure_model=failure_model,
            network=network,
            churn=churn,
            round_period=round_period,
        )

    @abstractmethod
    def _disseminate_batch(
        self,
        n: int,
        alive: np.ndarray,
        source: int,
        rng: np.random.Generator,
        transport: Transport,
    ) -> np.ndarray:
        """Batched dissemination: ``(R, n)`` alive masks in, ``(R, n)`` delivered masks out.

        Every message goes through ``transport``, which applies the batch's
        loss, churn and latency planes and keeps the per-replica message,
        drop, control and round counters the result reports.
        """
