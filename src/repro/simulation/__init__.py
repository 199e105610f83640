"""Simulation substrate for the general gossip algorithm.

Two simulators are provided:

* a **batched Monte-Carlo simulator** (:mod:`repro.simulation.gossip`) that
  executes the gossip algorithm for ``R`` replicas at once as a frontier/BFS
  process over ``(R, n)`` masks — this is the engine behind the paper's
  Figs. 4-7 reproductions, and
* a **discrete-event simulator** (:mod:`repro.simulation.engine`,
  :mod:`repro.simulation.node`, :mod:`repro.simulation.network`) that models
  per-message latencies, message loss, and crash timing explicitly — the
  independent behavioural reference the tests pin the batched engine to.

Supporting modules supply the full membership view (:mod:`repro.simulation.membership`),
fail-stop failure injection (:mod:`repro.simulation.failures`), repeated-execution
experiments (:mod:`repro.simulation.rounds`), result records
(:mod:`repro.simulation.metrics`), and the Monte-Carlo runner / parameter sweep
driver (:mod:`repro.simulation.runner`).  The batched treatment extends to the
whole baseline-protocol zoo through
:mod:`repro.simulation.protocol_batch` (``simulate_protocol_batch`` — ``(R, n)``
array programs for flooding, pbcast, lpbcast, RDG, and the fanout gossips,
with vectorised pluggable failure drawing) and to the network plane: pass a
:class:`~repro.simulation.network.NetworkModel` to any engine and every
round's send list is thinned with one vectorised Bernoulli loss draw
(``NetworkModel.draw_loss_batch``), with per-replica
``messages_sent``/``messages_dropped`` accounting.  The dynamic-membership
plane (:mod:`repro.simulation.churn`) adds time-varying join/leave schedules
drawn as compact ``(R, n)`` event planes: pass a ``ChurnModel`` or
``ChurnScheduleBatch`` to either batched engine and members enter and leave
mid-dissemination, with survivor-aware reliability accounting on
``BatchProtocolResult``.  The latency plane (:mod:`repro.simulation.latency`)
closes the loop with the event-driven reference: the same ``NetworkModel``
latency samplers drive a :class:`~repro.simulation.latency.DeliveryTimePlane`
that discretises per-message delays onto the round clock, so both batched
engines report per-member ``delivery_times`` and tail percentiles
(``delivery_percentiles``) at batched speed — bit-identical to the
latency-free engines whenever the sampler is a constant within one round
period.  In both batched engines the three planes meet in one place: every
send leg goes through the batch's :class:`~repro.simulation.transport.Transport`,
which applies loss, membership and latency under one leg law and keeps the
per-replica message counters.  The batched engines are the only
dissemination path: a single execution
(:meth:`~repro.protocols.base.Protocol.run`) is a one-replica batch.
"""

from repro.simulation.engine import EventScheduler, Event
from repro.simulation.membership import FullView, MembershipView
from repro.simulation.churn import (
    ChurnModel,
    ChurnSchedule,
    ChurnScheduleBatch,
    DeterministicChurnModel,
    PoissonChurnModel,
)
from repro.simulation.failures import (
    FailureModel,
    FailurePattern,
    FailurePatternBatch,
    TargetedCrashModel,
    UniformCrashModel,
    CrashTiming,
)
from repro.simulation.network import (
    ConstantLatency,
    ExponentialLatency,
    GilbertElliottNetworkModel,
    NetworkModel,
    UniformLatency,
    latency_constant,
    latency_exponential,
    latency_uniform,
)
from repro.simulation.latency import (
    DeliveryTimePlane,
    delivery_percentiles,
    percentile_label,
)
from repro.simulation.gossip import (
    BatchGossipResult,
    GossipExecution,
    simulate_gossip_batch,
    simulate_gossip_event_driven,
)
from repro.simulation.protocol_batch import (
    BatchProtocolResult,
    simulate_protocol_batch,
)
from repro.simulation.metrics import (
    ReliabilityEstimate,
    SuccessCountResult,
    summarize_executions,
)
from repro.simulation.rounds import simulate_success_counts
from repro.simulation.runner import estimate_reliability, reliability_sweep, SweepResult

__all__ = [
    "EventScheduler",
    "Event",
    "MembershipView",
    "FullView",
    "ChurnModel",
    "ChurnSchedule",
    "ChurnScheduleBatch",
    "PoissonChurnModel",
    "DeterministicChurnModel",
    "FailureModel",
    "FailurePattern",
    "FailurePatternBatch",
    "UniformCrashModel",
    "TargetedCrashModel",
    "CrashTiming",
    "NetworkModel",
    "GilbertElliottNetworkModel",
    "ConstantLatency",
    "UniformLatency",
    "ExponentialLatency",
    "latency_constant",
    "latency_exponential",
    "latency_uniform",
    "DeliveryTimePlane",
    "delivery_percentiles",
    "percentile_label",
    "GossipExecution",
    "BatchGossipResult",
    "simulate_gossip_batch",
    "simulate_gossip_event_driven",
    "BatchProtocolResult",
    "simulate_protocol_batch",
    "ReliabilityEstimate",
    "SuccessCountResult",
    "summarize_executions",
    "simulate_success_counts",
    "estimate_reliability",
    "reliability_sweep",
    "SweepResult",
]
