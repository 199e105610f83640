"""Outside-in span tracer for the benchmark's per-layer metrics.

The tracer times calls into the layers of :mod:`repro` from outside: it
replaces each traced public callable with a timing wrapper at **every** module
that binds it by name (``from x import f`` copies the binding, so patching the
defining module alone would miss the hot call sites), and replaces overridden
methods on **every** subclass that defines its own body.  Nothing under
``src/`` changes; :meth:`Tracer.uninstall` puts every original back.

A span's *self time* is its duration minus the time covered by the spans it
directly encloses.  Durations read the process CPU clock, like every other
timing of the benchmark.  Counters are read off a call's arguments and result
after the span has closed; the counting work is hidden from the enclosing
span's self time (it is tracing overhead, visible only in
``trace.overhead``).  When a traced callable re-enters a span of the same
name (``super()`` chains, mixture distributions), only the outermost call
counts, so counts are never booked twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from math import prod
from time import process_time
from types import ModuleType
from typing import Any, Callable, Iterator

__all__ = [
    "FunctionSite",
    "MethodSite",
    "Snapshot",
    "Tracer",
    "SITES",
    "PROTOCOL_IDS",
    "repro_modules",
    "subclasses",
]

#: ``count(tracer, args, kwargs, result)`` books counters for one call.
CountFn = Callable[["Tracer", tuple, dict, Any], None]


@dataclass(frozen=True)
class FunctionSite:
    """A module-level function, wrapped wherever a ``repro`` module binds it."""

    span: str
    module: str
    name: str
    count: CountFn | None = None


@dataclass(frozen=True)
class MethodSite:
    """A method, wrapped on the base class and on every subclass overriding it.

    ``span`` may contain ``{name}``, filled with the class's ``name``
    attribute (the protocol id for :class:`repro.protocols.base.Protocol`).
    """

    span: str
    module: str
    cls: str
    method: str
    count: CountFn | None = None


@dataclass(frozen=True)
class Snapshot:
    """Aggregated spans and counters of one traced interval."""

    self_s: dict[str, float]
    total_s: dict[str, float]
    calls: dict[str, int]
    edge_s: dict[tuple[str | None, str], float]
    edge_calls: dict[tuple[str | None, str], int]
    counts: dict[str, int]

    def exact(self) -> dict[str, int]:
        """Return the values that must repeat exactly at a fixed seed."""
        out = {f"calls:{name}": n for name, n in self.calls.items()}
        out.update({f"count:{name}": n for name, n in self.counts.items()})
        return dict(sorted(out.items()))


class Tracer:
    """Span recorder; install it over a list of sites, then read snapshots."""

    def __init__(self, clock: Callable[[], float] = process_time) -> None:
        self._clock = clock
        self._stack: list[list[Any]] = []  # open spans: [name, child seconds]
        self._patches: list[tuple[Any, str, Any]] = []
        #: id(wrapper) -> (wrapper, original); holding the wrapper keeps its id unique
        self._wrappers: dict[int, tuple[Callable[..., Any], Callable[..., Any]]] = {}
        self.reset()

    # ----------------------------------------------------------- recording

    def reset(self) -> None:
        """Forget every span and counter recorded so far."""
        self._self_s: defaultdict[str, float] = defaultdict(float)
        self._total_s: defaultdict[str, float] = defaultdict(float)
        self._calls: Counter[str] = Counter()
        self._edge_s: defaultdict[tuple[str | None, str], float] = defaultdict(float)
        self._edge_calls: Counter[tuple[str | None, str]] = Counter()
        self._counts: Counter[str] = Counter()

    def add(self, name: str, value: int) -> None:
        """Add ``value`` to the counter ``name``."""
        self._counts[name] += int(value)

    def snapshot(self) -> Snapshot:
        """Return a copy of everything recorded since the last :meth:`reset`."""
        return Snapshot(
            self_s=dict(self._self_s),
            total_s=dict(self._total_s),
            calls=dict(self._calls),
            edge_s=dict(self._edge_s),
            edge_calls=dict(self._edge_calls),
            counts=dict(self._counts),
        )

    def _close(self, frame: list[Any], parent: list[Any] | None, elapsed: float) -> None:
        name = frame[0]
        parent_name = parent[0] if parent is not None else None
        self._self_s[name] += elapsed - frame[1]
        self._total_s[name] += elapsed
        self._calls[name] += 1
        self._edge_s[(parent_name, name)] += elapsed
        self._edge_calls[(parent_name, name)] += 1
        if parent is not None:
            parent[1] += elapsed

    def call(self, span: str, fn: Callable[..., Any], count: CountFn | None,
             args: tuple, kwargs: dict) -> Any:
        """Run ``fn(*args, **kwargs)`` inside the span ``span``."""
        parent = self._stack[-1] if self._stack else None
        frame: list[Any] = [span, 0.0]
        self._stack.append(frame)
        start = self._clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = self._clock() - start
            self._stack.pop()
            self._close(frame, parent, elapsed)
        if count is not None and (parent is None or parent[0] != span):
            counted = self._clock()
            count(self, args, kwargs, result)
            if parent is not None:
                parent[1] += self._clock() - counted
        return result

    # ------------------------------------------------------------ patching

    def wrap(self, span: str, fn: Callable[..., Any], count: CountFn | None = None
             ) -> Callable[..., Any]:
        """Return a timing wrapper of ``fn`` (signature-preserving)."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self.call(span, fn, count, args, kwargs)

        self._wrappers[id(wrapper)] = (wrapper, fn)
        return wrapper

    def is_wrapper(self, value: Any) -> bool:
        """Return True when ``value`` is a wrapper made by this tracer."""
        entry = self._wrappers.get(id(value))
        return entry is not None and entry[0] is value

    def install(self, sites: tuple[FunctionSite | MethodSite, ...]) -> None:
        """Wrap every site; see the module docstring for the binding rules."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = repro_modules()
        for site in sites:
            if isinstance(site, FunctionSite):
                original = getattr(importlib.import_module(site.module), site.name)
                wrapper = self.wrap(site.span, original, site.count)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
            else:
                base = getattr(importlib.import_module(site.module), site.cls)
                for cls in (base, *subclasses(base)):
                    original = cls.__dict__.get(site.method)
                    if not inspect.isfunction(original):
                        continue
                    span = site.span.format(name=getattr(cls, "name", cls.__name__))
                    self._patch(cls, site.method, self.wrap(span, original, site.count))

    def _patch(self, owner: ModuleType | type, attr: str, wrapper: Callable[..., Any]) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original, including copies bound while installed."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for module in repro_modules():
            for attr, value in list(vars(module).items()):
                if self.is_wrapper(value):
                    setattr(module, attr, self._wrappers[id(value)][1])

    @contextmanager
    def installed(self, sites: tuple[FunctionSite | MethodSite, ...]) -> Iterator[Tracer]:
        """Context manager form of :meth:`install` / :meth:`uninstall`."""
        self.install(sites)
        try:
            yield self
        finally:
            self.uninstall()


def repro_modules() -> list[ModuleType]:
    """Return every loaded ``repro`` module."""
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def subclasses(cls: type) -> list[type]:
    """Return every loaded subclass of ``cls``, transitively, without repeats."""
    seen: list[type] = []
    todo = list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        if sub not in seen:
            seen.append(sub)
            todo.extend(sub.__subclasses__())
    return seen


# ---------------------------------------------------------------- counters


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    """Return a call argument given by position ``index`` or keyword ``name``."""
    return args[index] if len(args) > index else kwargs[name]


def _count_gossip(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    sent = int(result.messages_sent.sum())
    tracer.add("gossip.replicas", result.repetitions)
    tracer.add("gossip.messages", sent)
    tracer.add(
        "gossip.fresh",
        sent - int(result.messages_dropped.sum()) - int(result.duplicates.sum()),
    )


def _count_draws(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    size = _arg(args, kwargs, 1, "size")
    tracer.add("distributions.draws", prod(size) if isinstance(size, tuple) else int(size))


def _count_slots(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    _, valid = result
    tracer.add("sampling.slots", int(valid.sum()))
    tracer.add("sampling.cells", int(valid.size))


def _count_protocol_batch(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.add("protocols.messages", int(result.messages_sent.sum()))
    tracer.add("protocols.control", int(result.control_messages().sum()))
    tracer.add("protocols.delivered", int(result.delivered.sum()))


def _count_loss(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    target_replica = _arg(args, kwargs, 2, "target_replica")
    tracer.add("network.sends", len(target_replica))
    tracer.add("network.dropped", int(result[1].sum()))


def _count_latency_draws(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.add("network.latency_draws", int(_arg(args, kwargs, 2, "count")))


def _count_scheduled(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.add("latency.scheduled", len(_arg(args, kwargs, 2, "cells")))


def _count_solve(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.add("dimensioning.replicas_used", result.replicas_used)
    tracer.add("dimensioning.evaluations", result.evaluations)


def _count_surface(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.add("surface.cells", int(result.mean.size))


#: The nine protocol ids of ``protocol_zoo(..., include_peer_sampling=True,
#: include_recovery=True)``; each gets a ``protocols.<id>`` span.
PROTOCOL_IDS = (
    "flooding",
    "pbcast",
    "lpbcast",
    "rdg",
    "fixed-fanout",
    "random-fanout",
    "hyparview",
    "lazy-push",
    "anti-entropy",
)

_SIM = "repro.simulation"

#: Every traced callable, grouped by the layer (span name) it is booked to.
SITES: tuple[FunctionSite | MethodSite, ...] = (
    FunctionSite("runner", f"{_SIM}.runner", "estimate_reliability"),
    FunctionSite("runner", f"{_SIM}.runner", "reliability_sweep"),
    FunctionSite("core.reliability", "repro.core.reliability", "reliability"),
    FunctionSite("gossip", f"{_SIM}.gossip", "simulate_gossip_batch", _count_gossip),
    MethodSite("distributions", "repro.core.distributions", "FanoutDistribution", "sample",
               _count_draws),
    MethodSite("membership", f"{_SIM}.membership", "MembershipView", "sample_targets_batch"),
    FunctionSite("sampling", "repro.utils.sampling", "sample_distinct_rows_excluding",
                 _count_slots),
    FunctionSite("sampling", "repro.utils.sampling", "sample_distinct_rows", _count_slots),
    FunctionSite("group_targets", f"{_SIM}.protocol_batch", "sample_group_targets_batch"),
    FunctionSite("protocol_batch", f"{_SIM}.protocol_batch", "simulate_protocol_batch",
                 _count_protocol_batch),
    MethodSite("failures", f"{_SIM}.failures", "FailureModel", "draw_batch"),
    MethodSite("protocols.{name}", "repro.protocols.base", "Protocol", "_disseminate_batch"),
    MethodSite("network.loss", f"{_SIM}.network", "NetworkModel", "draw_loss_batch",
               _count_loss),
    MethodSite("network.latency_draw", f"{_SIM}.network", "NetworkModel",
               "draw_latency_batch", _count_latency_draws),
    MethodSite("churn.draw", f"{_SIM}.churn", "ChurnModel", "draw_batch"),
    MethodSite("churn.mask", f"{_SIM}.churn", "ChurnScheduleBatch", "present_at"),
    MethodSite("churn.mask", f"{_SIM}.churn", "ChurnScheduleBatch", "present_at_rounds"),
    MethodSite("latency.schedule", f"{_SIM}.latency", "DeliveryTimePlane", "schedule",
               _count_scheduled),
    MethodSite("latency.schedule", f"{_SIM}.latency", "DeliveryTimePlane", "drain"),
    MethodSite("latency.record", f"{_SIM}.latency", "DeliveryTimePlane", "record"),
    MethodSite("latency.finalize", f"{_SIM}.latency", "DeliveryTimePlane", "finalize"),
    FunctionSite("dimensioning", "repro.analysis.dimensioning", "dimension_fanout",
                 _count_solve),
    FunctionSite("surface.build", "repro.serving.surface", "build_surface", _count_surface),
    FunctionSite("surface.load", "repro.serving.surface", "load_surface"),
    MethodSite("query", "repro.serving.query", "SurfaceQueryEngine", "query"),
    FunctionSite("serve", "repro.serving.serve", "serve_loop"),
    FunctionSite("serve", "repro.serving.serve", "handle_request"),
    FunctionSite("serve.dimension", "repro.serving.query", "dimension_from_surface"),
    FunctionSite("serve.pareto", "repro.serving.query", "pareto_from_surface"),
)
