"""Microsecond serving of precomputed reliability surfaces.

:class:`SurfaceQueryEngine` answers reliability queries by **multilinear
interpolation** over a :class:`~repro.serving.surface.ReliabilitySurface`,
with deliberately conservative certificate handling: the interpolated mean
is the usual convex combination of the enclosing cell corners, but the
served ``ci_low`` is the **minimum** over those corners (and ``ci_high``
the maximum), so every served answer remains certifiable — it can only
under-promise relative to the cells it was derived from.  A deterministic
LRU cache makes repeated queries (the hot path of a dimensioning service)
allocation-free, and a served answer keeps the JSON text of its fields
(:attr:`ServedReliability.json_fields`), so a repeated query is encoded once.

:func:`dimension_from_surface` is the serving fast path for the inverse
question ("what fanout do I need?"): it scans the surface's fanout/rounds
axes for the cheapest certified candidate in microseconds and falls back to
a live :func:`~repro.analysis.dimensioning.dimension_fanout` solve only when
the query leaves the grid (or nothing on the grid certifies).

Units match :mod:`repro.serving.surface`: probabilities in ``[0, 1]``,
fanouts in messages per member per activation, rounds as dimensionless
horizons, costs in payload messages per member.

Example
-------
>>> from repro.serving.surface import SurfaceGrid, build_surface
>>> surface = build_surface(
...     SurfaceGrid(ns=(64,), qs=(0.8, 1.0), losses=(0.0,), fanouts=(2.0, 8.0)),
...     repetitions=16, seed=7)
>>> engine = SurfaceQueryEngine(surface)
>>> answer = engine.query(n=64, q=0.9, loss=0.0, fanout=5.0)
>>> bool(answer.ci_low <= answer.reliability <= answer.ci_high)
True
>>> engine.cache_info()["misses"]
1
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass, fields
from functools import cache, cached_property, partial
from itertools import product
from operator import attrgetter
from typing import Any, Callable, Hashable

from repro.serving.surface import (
    GOSSIP_PROTOCOLS,
    ReliabilitySurface,
    cell_distribution,
)
from repro.utils.validation import check_probability

__all__ = [
    "LIVE_FALLBACK_MAX_TARGET",
    "SurfaceCoverageError",
    "LiveFallbackRefused",
    "ServedReliability",
    "ServedDimensioning",
    "encode_fields",
    "LRUCache",
    "SurfaceQueryEngine",
    "dimension_from_surface",
    "pareto_from_surface",
]

#: Relative tolerance for treating a query coordinate as an exact axis hit.
_AXIS_RTOL = 1e-9

#: Largest reliability target the live fallback solves for.  The solver
#: raises its per-decision replica cap to the Wilson floor z²ρ/(1−ρ): at 95%
#: confidence that is 3,838 replicas at ρ = 0.999, and about 3.8 M at
#: ρ = 0.999999.
LIVE_FALLBACK_MAX_TARGET = 0.999


class SurfaceCoverageError(ValueError):
    """The query lies outside the surface grid (the caller should fall back live)."""


class LiveFallbackRefused(ValueError):
    """A live fallback solve lies beyond the serving caps; nothing was simulated."""


def _clean(value: Any) -> Any:
    """Make one value JSON-safe (NaN/inf have no JSON spelling -> None)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


@cache
def _field_reader(cls: type) -> tuple[tuple[str, ...], Callable[[Any], tuple]]:
    """A served dataclass's field names, in order, and a getter of all their values.

    ``dataclasses.fields`` rebuilds its tuple on every call, and one
    ``attrgetter`` call reads every field.
    """
    names = tuple(f.name for f in fields(cls))
    return names, attrgetter(*names)


#: ``json.dumps``'s layout, but a non-finite float raises instead of
#: writing ``NaN`` or ``Infinity``, which are not JSON.
_STRICT_JSON = json.JSONEncoder(allow_nan=False)


def encode_fields(answer: Any) -> str:
    """Return the JSON text of a served answer's dataclass fields, braces stripped.

    The text is what ``json.dumps`` writes for the fields inside a response
    object: field order, ``", "`` and ``": "`` separators, ASCII escapes, and
    ``null`` for a non-finite float.  Only an answer that holds a non-finite
    float is cleaned and encoded a second time.
    """
    names, read = _field_reader(type(answer))
    values = dict(zip(names, read(answer)))
    try:
        text = _STRICT_JSON.encode(values)
    except ValueError:  # a NaN or an infinity
        text = _STRICT_JSON.encode({name: _clean(value) for name, value in values.items()})
    return text[1:-1]


class _unlocked_cached_property(cached_property):
    """``functools.cached_property`` without the lock that Python 3.11 takes.

    On 3.11 the first access of each instance takes one lock shared by the
    whole class, and the first access of a served answer comes on every
    cache miss; Python 3.12 dropped that lock from the standard one.  The
    value is stored with ``object.__setattr__``, as a frozen dataclass's
    ``__init__`` stores its fields; later reads find it on the instance and
    never reach this descriptor.
    """

    def __get__(self, instance: Any, owner: type | None = None) -> Any:
        if instance is None:
            return self
        value = self.func(instance)
        object.__setattr__(instance, self.attrname, value)
        return value


@dataclass(frozen=True)
class ServedReliability:
    """One interpolated reliability answer with its conservative certificate.

    Attributes
    ----------
    n, q, loss, fanout, rounds:
        The query as posed (``rounds`` is 0 on horizon-free gossip surfaces).
    reliability:
        Multilinearly interpolated mean replica reliability, in ``[0, 1]``.
    ci_low, ci_high:
        Conservative Wilson envelope: ``ci_low`` is the *minimum* lower
        bound over the enclosing cell corners and ``ci_high`` the maximum
        upper bound, so the pair brackets every surface the true curve
        could be within the corners' certificates.
    cost:
        Interpolated mean payload messages per member.
    exact:
        True when the query hit a grid point on every axis (no
        interpolation; the certificate is the cell's own interval).
    """

    n: int
    q: float
    loss: float
    fanout: float
    rounds: int
    reliability: float
    ci_low: float
    ci_high: float
    cost: float
    exact: bool

    @_unlocked_cached_property
    def json_fields(self) -> str:
        """The JSON text of the fields, as a response object holds them.

        Encoded by :func:`encode_fields` the first time the answer is served
        and kept on it, so a cached answer carries its text, and evicting the
        answer from the LRU cache frees both.  It is no dataclass field:
        ``==``, ``hash`` and ``dataclasses.fields`` never see it.
        """
        return encode_fields(self)


@dataclass(frozen=True)
class ServedDimensioning:
    """Answer of the served inverse query ("what fanout do I need?").

    Attributes
    ----------
    n, q, target_reliability, loss, confidence:
        The problem as posed (confidence is the surface's per-cell Wilson
        coverage for surface answers, the live solver's for fallbacks).
    fanout, rounds:
        The selected candidate (``rounds`` is ``None`` on horizon-free
        surfaces and for live distribution-mode fallbacks).
    achieved_reliability, ci_low, ci_high:
        Estimate and certificate at the selected candidate; for surface
        answers these are the conservative served values, so
        ``ci_low >= target_reliability`` still certifies the answer.
    cost:
        Served payload messages per member (NaN for live fallbacks, whose
        solver does not report costs).
    source:
        ``"surface"`` when served from the precomputed grid, ``"live"``
        when the query fell back to a fresh Monte-Carlo solve.
    feasible:
        False when neither the surface nor the fallback could certify any
        candidate (then ``fanout`` is the largest candidate examined).
    """

    n: int
    q: float
    target_reliability: float
    loss: float
    confidence: float
    fanout: float
    rounds: int | None
    achieved_reliability: float
    ci_low: float
    ci_high: float
    cost: float
    source: str
    feasible: bool


class LRUCache:
    """A deterministic least-recently-used cache with observable state.

    ``functools.lru_cache`` hides its eviction order; serving wants the
    cache *testable* (eviction determinism is part of the repository's test
    surface) and instrumented, so this is a thin ordered-dict LRU whose
    :meth:`keys` exposes the exact recency order (oldest first).

    Examples
    --------
    >>> cache = LRUCache(2)
    >>> cache.put("a", 1); cache.put("b", 2)
    >>> cache.get("a")
    1
    >>> cache.put("c", 3)   # evicts "b", the least recently used
    >>> cache.keys()
    ('a', 'c')
    >>> cache.get("b") is None
    True
    >>> cache.info()["evictions"]
    1
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._data: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable) -> Any:
        """Return the cached value (refreshing its recency) or ``None``."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert a value, evicting the least recently used entry when full."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.evictions += 1

    def keys(self) -> tuple:
        """Return cached keys in recency order, least recently used first."""
        return tuple(self._data)

    def info(self) -> dict:
        """Return cache statistics: capacity, size, hits, misses, evictions."""
        return {
            "capacity": self.capacity,
            "size": len(self._data),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


def _close(value: float, knot: float) -> bool:
    """Return whether ``value`` hits ``knot`` within the axis tolerance."""
    return math.isclose(value, knot, rel_tol=_AXIS_RTOL, abs_tol=1e-12)


def _bracket(axis: tuple, value: float) -> tuple:
    """Locate ``value`` on a strictly increasing axis.

    Returns ``(lo_index, hi_index, weight)`` with
    ``value = (1 - weight) * axis[lo] + weight * axis[hi]``; an exact hit
    (within tolerance) collapses to ``(i, i, 0.0)``, ``i`` the lowest knot
    hit.  The knots a value hits are a run around its bisection point, so
    only the knots either side of that point are tested, and the run below
    is walked down only on a grid whose knots lie closer than the tolerance.
    Raises :class:`SurfaceCoverageError` outside ``[axis[0], axis[-1]]``,
    NaN included (it compares False with every knot).
    """
    hi = bisect_left(axis, value)
    if hi and _close(value, axis[hi - 1]):
        hi -= 1
        while hi and _close(value, axis[hi - 1]):
            hi -= 1
        return hi, hi, 0.0
    if hi < len(axis) and _close(value, axis[hi]):
        return hi, hi, 0.0
    if not axis[0] <= value <= axis[-1]:
        raise SurfaceCoverageError(
            f"value {value} outside the grid axis [{axis[0]}, {axis[-1]}]"
        )
    weight = (value - axis[hi - 1]) / (axis[hi] - axis[hi - 1])
    return hi - 1, hi, weight


class SurfaceQueryEngine:
    """Interpolated, cached serving of one :class:`ReliabilitySurface`.

    Parameters
    ----------
    surface:
        The precomputed surface to serve from (built or loaded).
    cache_size:
        Capacity of the LRU query cache (>= 1).
    """

    def __init__(self, surface: ReliabilitySurface, *, cache_size: int = 4096) -> None:
        self.surface = surface
        self._cache = LRUCache(cache_size)
        # A cache miss reads plain floats, not numpy scalars: the cells are
        # copied once into flat C-order lists (the surface is frozen and
        # nothing writes its arrays), indexed by the per-axis strides.
        shape = surface.grid.shape
        self._axes = surface.grid.axes
        self._strides = tuple(math.prod(shape[axis + 1:]) for axis in range(len(shape)))
        self._mean = surface.mean.ravel().tolist()
        self._cost = surface.cost.ravel().tolist()
        self._ci_low = surface.ci_low.ravel().tolist()
        self._ci_high = surface.ci_high.ravel().tolist()

    @property
    def protocol(self) -> str:
        """The surface's engine id (``gossip-<family>`` or a zoo protocol)."""
        return self.surface.protocol

    @property
    def horizon_free(self) -> bool:
        """True for gossip surfaces, whose rounds axis is the ``(0,)`` sentinel."""
        return self.surface.grid.rounds == (0,)

    def _default_rounds(self, rounds: int | None) -> int:
        """Resolve a missing rounds coordinate: horizon-free surfaces pin it
        to the sentinel, protocol surfaces default to their largest horizon."""
        if rounds is None:
            return 0 if self.horizon_free else self.surface.grid.rounds[-1]
        return int(rounds)

    def _locate(
        self, n: int, q: float, loss: float, fanout: float, rounds: int | None
    ) -> tuple:
        rounds = self._default_rounds(rounds)
        return tuple(map(_bracket, self._axes, map(float, (n, q, loss, fanout, rounds))))

    def query(self, *, n: int, q: float, loss: float, fanout: float,
              rounds: int | None = None) -> ServedReliability:
        """Serve one reliability query from the surface.

        Parameters
        ----------
        n, q, loss, fanout:
            The configuration to evaluate; each must lie inside the grid's
            span on its axis (:class:`SurfaceCoverageError` otherwise —
            extrapolation would void the certificate).
        rounds:
            Round horizon for protocol surfaces (defaults to the largest
            horizon on the grid); ignored on horizon-free gossip surfaces.

        Returns
        -------
        ServedReliability
            Interpolated mean/cost with the conservative certificate
            envelope (see the class docstring).
        """
        rounds = self._default_rounds(rounds)
        key = (float(n), float(q), float(loss), float(fanout), int(rounds))
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        brackets = self._locate(n, q, loss, fanout, rounds)
        # An exact axis adds a fixed offset and a factor of 1.0, so only the
        # bracketing axes span corners, in the order ``product`` gives them.
        offset = 0
        spans: list[tuple] = []
        for (lo, hi, weight), stride in zip(brackets, self._strides, strict=True):
            if lo == hi:
                offset += lo * stride
            else:
                spans.append(((lo * stride, 1.0 - weight), (hi * stride, weight)))
        means, costs, lows, highs = self._mean, self._cost, self._ci_low, self._ci_high
        mean = 0.0
        cost = 0.0
        ci_low = 1.0
        ci_high = 0.0
        for corner in product(*spans):
            index = offset
            weight = 1.0
            for step, w in corner:
                index += step
                weight *= w
            if weight <= 0.0:
                continue
            mean += weight * means[index]
            cost += weight * costs[index]
            # min(ci_low, low) and max(ci_high, high), without the calls: the
            # running bound changes only when the corner's is strictly beyond it.
            if lows[index] < ci_low:
                ci_low = lows[index]
            if highs[index] > ci_high:
                ci_high = highs[index]
        answer = ServedReliability(
            n=int(n),
            q=float(q),
            loss=float(loss),
            fanout=float(fanout),
            rounds=int(rounds),
            reliability=mean,
            ci_low=ci_low,
            ci_high=ci_high,
            cost=cost,
            exact=not spans,
        )
        self._cache.put(key, answer)
        return answer

    def cache_info(self) -> dict:
        """Return the LRU query cache statistics."""
        return self._cache.info()

    def certified_candidates(self, *, n: int, q: float, target_reliability: float,
                             loss: float) -> list:
        """Return every grid ``(fanout, rounds)`` whose served answer certifies.

        Serves one query per grid candidate at the caller's ``(n, q, loss)``
        and keeps those with ``ci_low >= target_reliability``.  Raises
        :class:`SurfaceCoverageError` when ``(n, q, loss)`` is off-grid.
        """
        grid = self.surface.grid
        # Fail fast (and atomically) when the fixed coordinates are off-grid.
        self._locate(n, q, loss, grid.fanouts[0], grid.rounds[0])
        candidates = []
        for fanout in grid.fanouts:
            for rounds in grid.rounds:
                served = self.query(n=n, q=q, loss=loss, fanout=fanout, rounds=rounds)
                if served.ci_low >= target_reliability:
                    candidates.append(served)
        return candidates


def pareto_from_surface(engine: SurfaceQueryEngine, *, n: int, q: float,
                        target_reliability: float, loss: float = 0.0) -> tuple:
    """Serve the joint ``(fanout, rounds)`` Pareto frontier from a surface.

    The served analogue of
    :func:`repro.analysis.dimensioning.dimension_pareto`: among all grid
    candidates whose conservative served certificate clears the target, the
    non-dominated subset in ``(fanout, rounds)`` is returned (sorted by
    rising fanout).  Empty when nothing on the grid certifies.
    """
    from repro.analysis.dimensioning import pareto_frontier

    target_reliability = check_probability(
        "target_reliability", target_reliability, allow_zero=False, allow_one=False
    )
    certified = engine.certified_candidates(
        n=n, q=q, target_reliability=target_reliability, loss=loss
    )
    return tuple(pareto_frontier(certified, keys=lambda c: (c.fanout, c.rounds)))


def dimension_from_surface(
    engine: SurfaceQueryEngine,
    *,
    n: int,
    q: float,
    target_reliability: float,
    loss: float = 0.0,
    objective: str = "min_fanout",
    allow_live_fallback: bool = True,
    live_solver: Callable[..., Any] | None = None,
    **live_kwargs: Any,
) -> ServedDimensioning:
    """Serve the inverse query: the cheapest certified ``(fanout, rounds)``.

    The fast path scans the surface's fanout (and rounds) axes for served
    candidates with ``ci_low >= target_reliability`` — microseconds, since
    each scan point is one cached interpolation.  Only when the query falls
    outside the grid, or no grid candidate certifies, does the solve fall
    back to a live :func:`~repro.analysis.dimensioning.dimension_fanout`
    bisection (seconds); the returned ``source`` field says which path
    answered.

    Parameters
    ----------
    engine:
        The surface query engine to serve from.
    n, q, target_reliability, loss:
        The dimensioning problem, with loss under
        :ref:`the loss contract <loss-semantics>`.
    objective:
        ``"min_fanout"`` picks the smallest certified fanout (then the
        smallest rounds — the classic lexicographic answer);
        ``"min_cost"`` picks the certified candidate with the smallest
        served payload messages per member (the cost-aware objective).
        The live fallback only minimises the fanout, so a ``"min_cost"``
        query that needs it raises :class:`ValueError`.
    allow_live_fallback:
        When False, an off-grid or uncertifiable query returns a
        ``feasible=False`` answer instead of simulating.  A live solve with
        ``n`` above the grid's largest group size, or a target above
        :data:`LIVE_FALLBACK_MAX_TARGET`, raises
        :class:`LiveFallbackRefused` before anything is simulated.
    live_solver:
        Override for the fallback solver (testing hook); defaults to
        :func:`~repro.analysis.dimensioning.dimension_fanout`.
    live_kwargs:
        Extra keyword arguments forwarded to the live solver (``seed``,
        replica budgets, ...).  By default the live solve is the surface's
        own problem: a ``gossip-<family>`` surface passes its fanout family
        and spread conditioning, a protocol surface its protocol, with the
        horizon solved up to the grid's largest.  ``seed`` defaults to the
        surface's build seed, so a repeated query gets the same answer.
    """
    if objective not in ("min_fanout", "min_cost"):
        raise ValueError(f"objective must be 'min_fanout' or 'min_cost', got {objective!r}")
    target_reliability = check_probability(
        "target_reliability", target_reliability, allow_zero=False, allow_one=False
    )
    surface = engine.surface
    try:
        certified = engine.certified_candidates(
            n=n, q=q, target_reliability=target_reliability, loss=loss
        )
    except SurfaceCoverageError:
        certified = None  # off-grid: the surface cannot answer at all

    if certified:
        if objective == "min_cost":
            best = min(certified, key=lambda c: (c.cost, c.fanout, c.rounds))
        else:
            best = min(certified, key=lambda c: (c.fanout, c.rounds))
        return ServedDimensioning(
            n=int(n),
            q=float(q),
            target_reliability=float(target_reliability),
            loss=float(loss),
            confidence=surface.confidence,
            fanout=best.fanout,
            rounds=None if engine.horizon_free else best.rounds,
            achieved_reliability=best.reliability,
            ci_low=best.ci_low,
            ci_high=best.ci_high,
            cost=best.cost,
            source="surface",
            feasible=True,
        )

    if not allow_live_fallback:
        grid = surface.grid
        return ServedDimensioning(
            n=int(n),
            q=float(q),
            target_reliability=float(target_reliability),
            loss=float(loss),
            confidence=surface.confidence,
            fanout=float(grid.fanouts[-1]),
            rounds=None if engine.horizon_free else int(grid.rounds[-1]),
            achieved_reliability=math.nan,
            ci_low=0.0,
            ci_high=1.0,
            cost=math.nan,
            source="surface",
            feasible=False,
        )

    if objective == "min_cost":
        # The live solver certifies the smallest fanout; it has no cost objective.
        raise ValueError(
            "objective 'min_cost' can only be answered from the surface grid, "
            "not by the live fallback"
        )
    # Cap the live solve: no group larger than the surface was built for,
    # and a bounded replica budget per decision.
    largest_n = surface.grid.ns[-1]
    if n > largest_n:
        raise LiveFallbackRefused(
            f"live fallback refused: n={n} exceeds the surface's largest group size {largest_n}"
        )
    if target_reliability > LIVE_FALLBACK_MAX_TARGET:
        raise LiveFallbackRefused(
            f"live fallback refused: target {target_reliability} exceeds "
            f"{LIVE_FALLBACK_MAX_TARGET}"
        )
    if live_solver is None:
        from repro.analysis.dimensioning import dimension_fanout

        live_solver = dimension_fanout
    # Solve the surface's own problem: its fanout family, or its protocol
    # with the horizon solved up to the grid's largest one.
    if surface.protocol in GOSSIP_PROTOCOLS:
        live_kwargs.setdefault("conditional_on_spread", surface.conditional_on_spread)
        live_kwargs.setdefault("distribution_factory", partial(cell_distribution, surface.protocol))
    else:
        from repro.experiments.protocol_comparison import zoo_protocol

        live_kwargs.setdefault("protocol_factory", partial(zoo_protocol, surface.protocol))
        live_kwargs.setdefault("rounds", max(surface.grid.rounds))
        live_kwargs.setdefault("solve_rounds", True)
    live_kwargs.setdefault("seed", surface.seed)
    live = live_solver(
        int(n),
        float(q),
        float(target_reliability),
        loss=float(loss),
        confidence=surface.confidence,
        **live_kwargs,
    )
    return ServedDimensioning(
        n=int(n),
        q=float(q),
        target_reliability=float(target_reliability),
        loss=float(loss),
        confidence=surface.confidence,
        fanout=live.fanout,
        rounds=live.rounds,
        achieved_reliability=live.achieved_reliability,
        ci_low=live.ci_low,
        ci_high=live.ci_high,
        cost=math.nan,
        source="live",
        feasible=live.feasible,
    )
