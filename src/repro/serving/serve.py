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

Each response line is exactly ``json.dumps`` of the response object:
``"ok"`` first, then the echoed ``id``, then the answer fields in their
dataclass order, with ``", "`` and ``": "`` separators, ASCII escapes and
``null`` for a non-finite float.  A reliability answer, and each candidate
of a Pareto frontier, is a cached
:class:`~repro.serving.query.ServedReliability` that keeps the JSON text of
its fields, so a repeated query costs a cache lookup and a string
concatenation, not an encoding.

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
    encode_fields,
    pareto_from_surface,
)
from repro.serving.surface import ReliabilitySurface

__all__ = ["handle_request", "serve_loop"]


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


def _respond(engine: SurfaceQueryEngine, request: Any) -> tuple[str, bool]:
    """Serve one decoded request; never raises on bad input.

    Returns the response line (without its newline) and whether the request
    was a served ``shutdown``.  An answer is spliced in as the text
    :func:`~repro.serving.query.encode_fields` writes for it, which a cached
    reliability answer keeps as its ``json_fields``, so it is encoded once.
    """
    if not isinstance(request, dict):
        return json.dumps({"ok": False, "error": "request must be a JSON object"}), False
    head = '{"ok": true, '
    if "id" in request:
        ident = request["id"]
        # The echo must keep the response strict JSON, and no more deeply
        # nested than the request: NaN, the infinities and containers are refused.
        if isinstance(ident, (list, dict)) or (
            isinstance(ident, float) and not math.isfinite(ident)
        ):
            error = "id must be a string, a finite number, a bool or null"
            return json.dumps({"ok": False, "error": error}), False
        head += '"id": ' + json.dumps(ident) + ", "
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
            return head + answer.json_fields + "}", False
        if op == "dimension":
            live_fallback = request.get("live_fallback", False)
            if not isinstance(live_fallback, bool):
                raise ValueError(f"live_fallback must be a JSON boolean, got {live_fallback!r}")
            dimensioned = dimension_from_surface(
                engine,
                n=_default_n(engine, request),
                q=_number("q", request["q"]),
                target_reliability=_number("target", request["target"]),
                loss=_number("loss", request.get("loss", 0.0)),
                objective=request.get("objective", "min_fanout"),
                allow_live_fallback=live_fallback,
            )
            return head + encode_fields(dimensioned) + "}", False
        if op == "pareto":
            frontier = pareto_from_surface(
                engine,
                n=_default_n(engine, request),
                q=_number("q", request["q"]),
                target_reliability=_number("target", request["target"]),
                loss=_number("loss", request.get("loss", 0.0)),
            )
            candidates = ", ".join(["{" + c.json_fields + "}" for c in frontier])
            return head + '"frontier": [' + candidates + "]}", False
        if op == "info":
            info = {"manifest": engine.surface.manifest(), "cache": engine.cache_info()}
            return head + json.dumps(info)[1:], False  # its members, opening brace dropped
        if op == "shutdown":
            return head + '"shutdown": true}', True
        error = f"unknown op {op!r}"
    # OverflowError: a JSON integer too large for a float.
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    response = {"ok": False, "error": error}
    if "id" in request:
        response["id"] = request["id"]
    return json.dumps(response), False


def handle_request(engine: SurfaceQueryEngine, request: dict) -> dict:
    """Serve one decoded request object; never raises on bad input.

    Returns the response object: the line :func:`serve_loop` writes for the
    request, decoded (see the module docstring for the wire protocol), so
    the dict API and the wire share one path.  A ``shutdown`` response
    carries ``"shutdown": true``.
    """
    return json.loads(_respond(engine, request)[0])


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
            response, shutdown = json.dumps({"ok": False, "error": f"invalid JSON: {exc}"}), False
        else:
            response, shutdown = _respond(engine, request)
        stdout.write(response + "\n")
        stdout.flush()
        served += 1
        if shutdown:
            break
    return served
