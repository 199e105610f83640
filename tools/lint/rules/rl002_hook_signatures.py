"""RL002 — the protocol hook keeps the engine's one calling contract.

Runtime contract protected: ``simulate_protocol_batch`` calls every
protocol's ``_disseminate_batch(n, alive, source, rng, transport)`` and sends
every message through that one
:class:`~repro.simulation.transport.Transport`, which carries the loss, churn
and latency planes.  A hook that declares per-plane keywords (``network``,
``churn``, ``latency``) or a catch-all would look plane-aware while receiving
none of them, so signature drift is caught at lint time.

Checked, for every class that defines the hook (the protocol zoo):
``_disseminate_batch`` must take exactly ``(self, n, alive, source, rng,
transport)`` — no defaults, no extra or keyword-only parameters, no
``*args``/``**kwargs``.

A hook that deliberately departs from the contract documents that with an
inline ``# repro-lint: disable=RL002`` on its ``def`` line.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lint.engine import FileContext, Rule, Violation

__all__ = ["HookSignatureRule"]

#: the one signature the batched engine calls every hook with
_BATCH_SIGNATURE = ("self", "n", "alive", "source", "rng", "transport")


class HookSignatureRule(Rule):
    code = "RL002"
    summary = "the dissemination hook keeps the engine's calling contract (transport)"

    def check_file(self, context: FileContext) -> Iterator[Violation]:
        path = str(context.path)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "_disseminate_batch":
                    yield from self._check_batch_hook(node, item, path)

    def _check_batch_hook(
        self, cls: ast.ClassDef, hook: ast.FunctionDef, path: str
    ) -> Iterator[Violation]:
        args = hook.args
        names = tuple(a.arg for a in args.posonlyargs + args.args)
        if (
            names != _BATCH_SIGNATURE
            or args.defaults
            or args.kwonlyargs
            or args.vararg is not None
            or args.kwarg is not None
        ):
            yield Violation(
                code=self.code,
                path=path,
                line=hook.lineno,
                message=(
                    f"{cls.name}._disseminate_batch must take exactly "
                    f"({', '.join(_BATCH_SIGNATURE)}): the engine calls every hook "
                    "that way and the transport carries the loss, churn and latency "
                    "planes (or opt out with `# repro-lint: disable=RL002`)"
                ),
            )
