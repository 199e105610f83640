"""Tests of the benchmark tracer: import-site completeness and self-time arithmetic.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

import repro  # noqa: E402
from tracer import SITES, FunctionSite, MethodSite, Tracer, repro_modules, subclasses  # noqa: E402

#: Modules that bind each hot callable by name (``from ... import``) at the
#: time of writing; the generic scan must cover at least these.
NAMED_BINDINGS = {
    "sample_distinct_rows_excluding": (
        "repro.simulation.membership", "repro.simulation.protocol_batch",
        "repro.protocols.flooding", "repro.protocols.lpbcast", "repro.protocols.hyparview",
        "repro.graphs.ensemble",
    ),
    "simulate_gossip_batch": (
        "repro.simulation.runner", "repro.protocols.fixed_fanout",
        "repro.protocols.random_fanout", "repro.analysis.dimensioning",
        "repro.serving.surface",
    ),
    "sample_group_targets_batch": (
        "repro.protocols.pbcast", "repro.protocols.rdg", "repro.protocols.lazy_push",
        "repro.protocols.anti_entropy",
    ),
}

#: Overriding subclasses whose own method bodies must be wrapped too.
OVERRIDES = (
    ("repro.simulation.membership", "FullView", "sample_targets_batch"),
    ("repro.simulation.network", "GilbertElliottNetworkModel", "draw_loss_batch"),
    ("repro.core.distributions", "PoissonFanout", "sample"),
    ("repro.core.distributions", "MixtureFanout", "sample"),
)


def _import_all() -> None:
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _method_bindings() -> list[tuple[type, str, Any]]:
    """``(class, method, original)`` for every repro class a method site covers."""
    out = []
    for site in SITES:
        if isinstance(site, MethodSite):
            base = getattr(importlib.import_module(site.module), site.cls)
            for cls in (base, *subclasses(base)):
                if cls.__module__.startswith("repro.") and site.method in vars(cls):
                    out.append((cls, site.method, vars(cls)[site.method]))
    return out


def test_install_wraps_every_binding_and_uninstall_restores_it() -> None:
    _import_all()
    functions = [
        getattr(importlib.import_module(site.module), site.name)
        for site in SITES
        if isinstance(site, FunctionSite)
    ]
    methods = _method_bindings()
    tracer = Tracer()
    with tracer.installed(SITES):
        unwrapped = [
            f"{module.__name__}.{attr}"
            for module in repro_modules()
            for attr, value in vars(module).items()
            if any(value is original for original in functions)
        ]
        assert unwrapped == []
        assert [(c.__name__, m) for c, m, _ in methods if not tracer.is_wrapper(vars(c)[m])] == []
        for name, modules in NAMED_BINDINGS.items():
            for module in modules:
                assert tracer.is_wrapper(getattr(sys.modules[module], name)), (module, name)
        for module, cls, method in OVERRIDES:
            owner = getattr(sys.modules[module], cls)
            assert tracer.is_wrapper(vars(owner)[method]), (cls, method)
    leftovers = [
        f"{module.__name__}.{attr}"
        for module in repro_modules()
        for attr, value in vars(module).items()
        if tracer.is_wrapper(value)
    ]
    assert leftovers == []
    assert all(vars(cls)[method] is original for cls, method, original in methods)


def test_self_time_subtracts_direct_children_and_hides_counting() -> None:
    now = [0.0]

    def advance(dt: float) -> None:
        now[0] += dt

    tracer = Tracer(clock=lambda: now[0])

    def count(t: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        t.add("leaf.calls", 1)
        advance(10.0)  # counting cost: must not land in any self time

    leaf = tracer.wrap("leaf", advance, count)

    def middle_body() -> None:
        advance(1.0)
        leaf(2.0)
        advance(0.5)
        leaf(0.25)

    middle = tracer.wrap("middle", middle_body)

    def outer_body() -> None:
        advance(3.0)
        middle()
        advance(1.0)

    tracer.wrap("outer", outer_body)()
    snap = tracer.snapshot()
    assert snap.self_s == {"leaf": 2.25, "middle": 1.5, "outer": 4.0}
    assert snap.total_s == {"leaf": 2.25, "middle": 23.75, "outer": 27.75}
    assert snap.calls == {"leaf": 2, "middle": 1, "outer": 1}
    assert snap.edge_calls == {("middle", "leaf"): 2, (None, "outer"): 1, ("outer", "middle"): 1}
    assert snap.edge_s[("outer", "middle")] == 23.75
    assert snap.counts == {"leaf.calls": 2}


def test_nested_same_span_counts_once_and_closes_on_error() -> None:
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def body(depth: int) -> int:
        now[0] += 1.0
        return recurse(depth - 1) if depth else 0

    recurse = tracer.wrap("rec", body, lambda t, a, k, r: t.add("rec.outer", 1))
    recurse(2)

    def boom() -> None:
        now[0] += 4.0
        raise ValueError("boom")

    failing = tracer.wrap("boom", boom)
    try:
        failing()
    except ValueError:
        pass
    snap = tracer.snapshot()
    assert snap.calls == {"rec": 3, "boom": 1}
    assert snap.counts == {"rec.outer": 1}
    assert snap.self_s == {"rec": 3.0, "boom": 4.0}
    tracer.reset()
    assert tracer.snapshot().calls == {}
