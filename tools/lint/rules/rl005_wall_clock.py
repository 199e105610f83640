"""RL005 — no wall-clock reads in simulation or benchmark code.

Runtime contract protected: results are a pure function of (configuration,
seed).  A wall-clock read anywhere in ``src/``, ``perfbench/`` or the parity
oracles is either a hidden seed (breaking replayability) or a hidden
measurement bias (``time.time`` is not monotonic; NTP steps it mid-benchmark,
which is why perfbench times work with ``time.process_time`` and bounds a
run's length with ``time.perf_counter``).

Flagged calls: ``time.time``, ``time.time_ns``, ``datetime.now``,
``datetime.utcnow``, ``datetime.today``, ``date.today`` (through the module
or the imported class).  Monotonic clocks (``perf_counter``,
``process_time``, ``monotonic``) are explicitly allowed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lint.asthelpers import dotted_name
from tools.lint.engine import FileContext, Rule, Violation

__all__ = ["WallClockRule"]

#: dotted suffixes that read the wall clock
_FORBIDDEN = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class WallClockRule(Rule):
    code = "RL005"
    summary = "no wall-clock reads; results are a function of (configuration, seed)"

    def check_file(self, context: FileContext) -> Iterator[Violation]:
        path = str(context.path)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if name in _FORBIDDEN or any(
                name.endswith("." + suffix) for suffix in ("time.time", "time.time_ns")
            ):
                yield Violation(
                    code=self.code,
                    path=path,
                    line=node.lineno,
                    message=(
                        f"wall-clock read `{name}()` — simulation and benchmark code "
                        "must be a pure function of (configuration, seed); use "
                        "time.perf_counter for interval timing"
                    ),
                )
