"""JSON-lines serving loop — ``repro serve`` and ``repro query``.

A deliberately tiny wire protocol so the dimensioning service can sit
behind anything that speaks pipes (a socket wrapper, a container health
check, an interactive shell): **one JSON object per line in, one JSON
object per line out**, no framing beyond the newline.

Requests (the ``op`` field selects the operation)::

    {"op": "reliability", "q": 0.9, "loss": 0.1, "fanout": 4}
    {"op": "dimension", "q": 0.9, "loss": 0.1, "target": 0.99}
    {"op": "pareto", "q": 0.9, "target": 0.99}
    {"op": "info"}
    {"op": "shutdown"}

``q``, ``loss``, ``fanout`` and ``target`` are JSON numbers; a bool or a
string is refused.  Optional request fields: ``n`` and ``rounds``,
integers (default to the surface's only / largest grid value; a JSON
number with a fractional part, a bool or a string is refused),
``objective`` (``min_fanout`` | ``min_cost``) and ``live_fallback`` (a
JSON boolean, default false — a *serving* process answers from the
surface only, so its latency stays bounded) for ``dimension``, and an
``id`` (a string, a finite number, a bool or null) echoed back verbatim
for request/response correlation.  An
``id`` of NaN or an infinity has no JSON spelling, and a list or object
``id`` could nest the response past what a JSON decoder reads back, so
both are refused, not echoed.

A live fallback is itself capped: it refuses an ``n`` above the surface's
largest group size and a target above
:data:`~repro.serving.query.LIVE_FALLBACK_MAX_TARGET` (0.999) before
anything is simulated.

Every response carries ``"ok": true`` plus the answer fields, or
``"ok": false`` plus ``"error"``; malformed lines (invalid or too deeply
nested JSON, wrong-typed or out-of-range fields) never kill the loop.

Example
-------
>>> import io, json
>>> from repro.serving.surface import SurfaceGrid, build_surface
>>> surface = build_surface(
...     SurfaceGrid(ns=(64,), qs=(0.8, 1.0), losses=(0.0,), fanouts=(2.0, 8.0)),
...     repetitions=16, seed=7)
>>> out = io.StringIO()
>>> served = serve_loop(surface,
...     io.StringIO('{"op": "reliability", "q": 0.9, "loss": 0.0, "fanout": 5}\\n'),
...     out)
>>> served
1
>>> json.loads(out.getvalue())["ok"]
True
"""

from __future__ import annotations

import json
import math
from typing import Any, TextIO

from repro.serving.query import (
    SurfaceQueryEngine,
    dimension_from_surface,
    pareto_from_surface,
)
from repro.serving.surface import ReliabilitySurface

__all__ = ["handle_request", "serve_loop"]


def _clean(value: Any) -> Any:
    """Make one value JSON-safe (NaN/inf have no JSON spelling -> None)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _served_fields(answer: Any) -> dict:
    """Flatten a served dataclass into JSON-safe response fields."""
    return {key: _clean(value) for key, value in vars(answer).items()}


def _integer(name: str, value: Any) -> int:
    """Read an integer field: a finite JSON number without a fractional part."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _number(name: str, value: Any) -> float:
    """Read a real field: a JSON number, never a bool or a string."""
    # The exact-type test passes a JSON float, the common case on every served
    # request, at a fraction of the cost of the isinstance test.
    if type(value) is not float and isinstance(value, (bool, str)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _default_n(engine: SurfaceQueryEngine, request: dict) -> int:
    """Resolve the group size: explicit, or the grid's only ``n`` value."""
    if "n" in request:
        return _integer("n", request["n"])
    ns = engine.surface.grid.ns
    if len(ns) == 1:
        return ns[0]
    raise ValueError(f"request must name n (the surface spans several: {list(ns)})")


def handle_request(engine: SurfaceQueryEngine, request: dict) -> dict:
    """Serve one decoded request object; never raises on bad input.

    Returns the JSON-serialisable response dict (see the module docstring
    for the wire protocol).  A ``shutdown`` response carries
    ``"shutdown": true`` so :func:`serve_loop` knows to stop reading.
    """
    if not isinstance(request, dict):
        return {"ok": False, "error": "request must be a JSON object"}
    response: dict = {"ok": True}
    if "id" in request:
        ident = request["id"]
        # The echo must keep the response strict JSON, and no more deeply
        # nested than the request: NaN, the infinities and containers are refused.
        if isinstance(ident, (list, dict)) or (
            isinstance(ident, float) and not math.isfinite(ident)
        ):
            return {"ok": False, "error": "id must be a string, a finite number, a bool or null"}
        response["id"] = ident
    op = request.get("op")
    try:
        if op == "reliability":
            rounds = request.get("rounds")
            answer = engine.query(
                n=_default_n(engine, request),
                q=_number("q", request["q"]),
                loss=_number("loss", request.get("loss", 0.0)),
                fanout=_number("fanout", request["fanout"]),
                rounds=None if rounds is None else _integer("rounds", rounds),
            )
            response.update(_served_fields(answer))
        elif op == "dimension":
            live_fallback = request.get("live_fallback", False)
            if not isinstance(live_fallback, bool):
                raise ValueError(f"live_fallback must be a JSON boolean, got {live_fallback!r}")
            answer = dimension_from_surface(
                engine,
                n=_default_n(engine, request),
                q=_number("q", request["q"]),
                target_reliability=_number("target", request["target"]),
                loss=_number("loss", request.get("loss", 0.0)),
                objective=request.get("objective", "min_fanout"),
                allow_live_fallback=live_fallback,
            )
            response.update(_served_fields(answer))
        elif op == "pareto":
            frontier = pareto_from_surface(
                engine,
                n=_default_n(engine, request),
                q=_number("q", request["q"]),
                target_reliability=_number("target", request["target"]),
                loss=_number("loss", request.get("loss", 0.0)),
            )
            response["frontier"] = [_served_fields(c) for c in frontier]
        elif op == "info":
            response["manifest"] = engine.surface.manifest()
            response["cache"] = engine.cache_info()
        elif op == "shutdown":
            response["shutdown"] = True
        else:
            response = {"ok": False, "error": f"unknown op {op!r}"}
            if "id" in request:
                response["id"] = request["id"]
    # OverflowError: a JSON integer too large for a float.
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        if isinstance(request, dict) and "id" in request:
            response["id"] = request["id"]
    return response


def serve_loop(
    surface: ReliabilitySurface, stdin: TextIO, stdout: TextIO, *, cache_size: int = 4096
) -> int:
    """Run the JSON-lines loop until EOF or a ``shutdown`` request.

    Parameters
    ----------
    surface:
        The surface to serve (already validated by
        :func:`~repro.serving.surface.load_surface` when it came from disk).
    stdin, stdout:
        Text streams: one JSON request per input line, one JSON response
        per output line (flushed after every response, so a pipe peer sees
        answers immediately).
    cache_size:
        LRU query-cache capacity of the underlying engine.

    Returns
    -------
    int
        The number of requests answered (blank lines are skipped).
    """
    engine = SurfaceQueryEngine(surface, cache_size=cache_size)
    served = 0
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
        # ValueError: bad JSON or an integer past the digit limit;
        # RecursionError: nesting deeper than the stack allows.
        except (ValueError, RecursionError) as exc:
            response = {"ok": False, "error": f"invalid JSON: {exc}"}
        else:
            response = handle_request(engine, request)
        stdout.write(json.dumps(response) + "\n")
        stdout.flush()
        served += 1
        if response.get("shutdown"):
            break
    return served
