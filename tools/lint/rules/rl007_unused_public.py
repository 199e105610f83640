"""RL007 — no public name in ``src/repro`` that only tests call.

Runtime contract protected: every public function, class and method of the
library has a caller that is not a test.  Code that only a test reaches
still has to be read, typed and kept working by every refactor, yet no
figure, experiment, example or tool depends on it; a test that needs an
independent oracle keeps it under ``tests/reference/`` instead.

Checks, over the whole linted file set at once:

* a *definition* is a public (no leading ``_``) top-level function or class,
  or a public method of a top-level class, in a module under ``src/repro``
  other than a package ``__init__.py``;
* a *use* is an identifier in any linted file outside ``tests/``: a bare
  name, an attribute name, or a name imported with ``from ... import``.
  Imports in a package ``__init__.py`` and ``__all__`` entries (strings) are
  re-exports, not uses;
* a definition whose identifier has no use is a finding, unless
  :data:`ALLOWED` names it with its caller or reason;
* an :data:`ALLOWED` entry whose module is linted but whose name is no
  longer defined, or now has a use, is a finding too, so the list cannot go
  stale.

Run it over every caller: ``python -m tools.lint src perfbench
tests/reference examples tools``.  Over fewer paths a name whose only
callers were left out is reported.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from typing import Iterator, Mapping, Sequence

from tools.lint.engine import FileContext, Rule, Violation

__all__ = ["ALLOWED", "UnusedPublicNameRule"]

#: Public names kept without a use the rule can see, each with its caller or
#: reason.  Keys are dotted paths: ``repro.<module>.<name>`` or
#: ``repro.<module>.<Class>.<method>``.
ALLOWED: Mapping[str, str] = {
    "repro.core.distributions.MixtureFanout": (
        "perfbench/test_perfbench_tracer.py names MixtureFanout.sample in a string "
        "(OVERRIDES) to check that the tracer wraps overriding methods"
    ),
    "repro.core.success.success_count_cdf": (
        "documented library API: docs/ARCHITECTURE.md names it with success_count_pmf"
    ),
    "repro.graphs.gossip_graph.GossipGraph.giant_component_fraction": (
        "tests/graphs/test_ensemble.py reads the scalar graph's giant component "
        "through it; gossip_graph.py goes when Sec. 4 moves onto the gossip engine "
        "(ROADMAP.md)"
    ),
    "repro.graphs.gossip_graph.build_gossip_graph": (
        "the scalar gossip-graph oracle of tests/graphs and tests/integration; "
        "goes with gossip_graph.py (ROADMAP.md)"
    ),
    "repro.graphs.metrics.empirical_giant_component": (
        "the configuration-model giant-component oracle of tests/graphs and "
        "tests/integration; goes with graphs/metrics.py (ROADMAP.md)"
    ),
    "repro.simulation.churn.DeterministicChurnModel": (
        "documented library API: docs/ARCHITECTURE.md lists it in the churn plane row"
    ),
    "repro.simulation.engine.EventScheduler.cancel": (
        "part of the event scheduler's lazy-cancel queue, which step() and "
        "peek_time() still honour; engine.py goes with the event-driven reference"
    ),
    "repro.simulation.metrics.ReliabilityEstimate.confidence_interval": (
        "documented library API: README's programmatic example prints it"
    ),
    "repro.simulation.gossip.simulate_gossip_event_driven": (
        "the event-driven reference that README and docs/ARCHITECTURE.md name; the "
        "equivalence tests pin the batched engine to it"
    ),
}


def _module_name(path: PurePath) -> str | None:
    """Return ``repro.x.y`` for ``.../src/repro/x/y.py``, else ``None``."""
    parts = path.parts
    for index in range(len(parts) - 1):
        if parts[index] == "src" and parts[index + 1] == "repro":
            return ".".join((*parts[index + 1 : -1], path.stem))
    return None


def _definitions(context: FileContext, module: str) -> Iterator[tuple[str, str, int]]:
    """Yield ``(dotted path, identifier, line)`` for each public definition."""
    for node in context.tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    child.name.startswith("_")
                ):
                    yield f"{module}.{node.name}.{child.name}", child.name, child.lineno


def _uses(context: FileContext) -> set[str]:
    """Return every identifier that ``context`` uses (see the module docstring)."""
    reexports = PurePath(context.path).name == "__init__.py"
    used: set[str] = set()
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not reexports:
            used.update(alias.name for alias in node.names)
    return used


class UnusedPublicNameRule(Rule):
    code = "RL007"
    summary = "every public name in src/repro has a caller outside tests/"

    def __init__(self, allowed: Mapping[str, str] = ALLOWED) -> None:
        self.allowed = allowed

    def finalize(self, contexts: Sequence[FileContext]) -> Iterator[Violation]:
        used: set[str] = set()
        definitions: list[tuple[str, str, int, FileContext]] = []
        linted_modules: dict[str, FileContext] = {}
        for context in contexts:
            path = PurePath(context.path)
            if "tests" not in path.parts:
                used |= _uses(context)
            module = _module_name(path)
            if module is None or path.name == "__init__.py":
                continue
            linted_modules[module] = context
            for dotted, name, line in _definitions(context, module):
                definitions.append((dotted, name, line, context))

        defined: set[str] = set()
        for dotted, name, line, context in definitions:
            defined.add(dotted)
            if name in used:
                if dotted in self.allowed:
                    yield self._stale(context, line, dotted, "now has a caller")
            elif dotted not in self.allowed:
                yield Violation(
                    code=self.code,
                    path=str(context.path),
                    line=line,
                    message=(
                        f"public name `{dotted}` has no caller outside tests/ — delete "
                        "it, move it to tests/reference/, or allow-list it with its caller"
                    ),
                )
        for dotted in sorted(self.allowed):
            module = next(
                (m for m in linted_modules if dotted.startswith(f"{m}.")), None
            )
            if module is not None and dotted not in defined:
                yield self._stale(linted_modules[module], 1, dotted, "is no longer defined")

    def _stale(self, context: FileContext, line: int, dotted: str, why: str) -> Violation:
        return Violation(
            code=self.code,
            path=str(context.path),
            line=line,
            message=f"allow-listed name `{dotted}` {why}: drop its ALLOWED entry",
        )
