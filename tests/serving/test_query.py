"""Tests of interpolated serving: conservatism, caching, inverse queries."""

from __future__ import annotations

import dataclasses
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.query import (
    LIVE_FALLBACK_MAX_TARGET,
    LiveFallbackRefused,
    LRUCache,
    SurfaceCoverageError,
    SurfaceQueryEngine,
    dimension_from_surface,
    pareto_from_surface,
)
from repro.serving.surface import ReliabilitySurface, SurfaceGrid, build_surface
from tests.reference import surface_interpolation

SEED = 20080149


@pytest.fixture(scope="module")
def surface():
    return build_surface(
        SurfaceGrid(
            ns=(128,),
            qs=(0.7, 0.85, 1.0),
            losses=(0.0, 0.2),
            fanouts=(1.5, 3.0, 6.0, 10.0),
        ),
        repetitions=32,
        seed=SEED,
    )


@pytest.fixture(scope="module")
def protocol_surface():
    return build_surface(
        SurfaceGrid(ns=(96,), qs=(0.8, 1.0), losses=(0.0,), fanouts=(2.0, 4.0, 7.0),
                    rounds=(2, 4, 6)),
        protocol="pbcast",
        repetitions=32,
        seed=SEED,
    )


def fresh_engine(surface, **kwargs) -> SurfaceQueryEngine:
    return SurfaceQueryEngine(surface, **kwargs)


class TestLRUCache:
    def test_eviction_is_deterministic(self):
        cache = LRUCache(3)
        for key in "abc":
            cache.put(key, key.upper())
        assert cache.keys() == ("a", "b", "c")
        cache.get("a")  # refresh: "b" is now the oldest
        cache.put("d", "D")
        assert cache.keys() == ("c", "a", "d")
        assert cache.get("b") is None
        assert cache.info() == {
            "capacity": 3, "size": 3, "hits": 1, "misses": 1, "evictions": 1,
        }

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, not insert: no eviction
        cache.put("c", 3)  # evicts "b"
        assert cache.keys() == ("a", "c")
        assert cache.get("a") == 10

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestInterpolation:
    def test_exact_hit_returns_cell(self, surface):
        engine = fresh_engine(surface)
        answer = engine.query(n=128, q=0.85, loss=0.2, fanout=3.0)
        assert answer.exact
        index = (0, 1, 1, 1, 0)
        assert answer.reliability == pytest.approx(float(surface.mean[index]))
        assert answer.ci_low == pytest.approx(float(surface.ci_low[index]))
        assert answer.cost == pytest.approx(float(surface.cost[index]))

    def test_certificate_is_conservative(self, surface):
        """Served ci_low <= every enclosing corner's ci_low (and dually ci_high)."""
        engine = fresh_engine(surface)
        answer = engine.query(n=128, q=0.9, loss=0.1, fanout=4.5)
        assert not answer.exact
        # q=0.9 in (0.85, 1.0), loss=0.1 in (0.0, 0.2), fanout=4.5 in (3.0, 6.0)
        corners = list(product([1, 2], [0, 1], [1, 2]))
        corner_lows = [float(surface.ci_low[0, qi, li, fi, 0]) for qi, li, fi in corners]
        corner_highs = [float(surface.ci_high[0, qi, li, fi, 0]) for qi, li, fi in corners]
        corner_means = [float(surface.mean[0, qi, li, fi, 0]) for qi, li, fi in corners]
        assert answer.ci_low == pytest.approx(min(corner_lows))
        assert answer.ci_high == pytest.approx(max(corner_highs))
        assert min(corner_means) - 1e-12 <= answer.reliability <= max(corner_means) + 1e-12
        assert answer.ci_low <= answer.reliability <= answer.ci_high

    def test_interpolation_matches_hand_weights(self, surface):
        engine = fresh_engine(surface)
        answer = engine.query(n=128, q=0.85, loss=0.0, fanout=4.5)  # only fanout off-knot
        w = (4.5 - 3.0) / (6.0 - 3.0)
        expected = (1 - w) * float(surface.mean[0, 1, 0, 1, 0]) + w * float(
            surface.mean[0, 1, 0, 2, 0]
        )
        assert answer.reliability == pytest.approx(expected)

    def test_off_grid_raises(self, surface):
        engine = fresh_engine(surface)
        with pytest.raises(SurfaceCoverageError):
            engine.query(n=128, q=0.5, loss=0.0, fanout=3.0)
        with pytest.raises(SurfaceCoverageError):
            engine.query(n=128, q=0.9, loss=0.0, fanout=12.0)

    def test_query_caching(self, surface):
        engine = fresh_engine(surface, cache_size=8)
        first = engine.query(n=128, q=0.9, loss=0.1, fanout=4.0)
        second = engine.query(n=128, q=0.9, loss=0.1, fanout=4.0)
        assert first is second
        info = engine.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_protocol_surface_rounds_default(self, protocol_surface):
        engine = fresh_engine(protocol_surface)
        assert not engine.horizon_free
        answer = engine.query(n=96, q=0.9, loss=0.0, fanout=4.0)
        assert answer.rounds == 6  # defaults to the largest horizon
        shorter = engine.query(n=96, q=0.9, loss=0.0, fanout=4.0, rounds=2)
        assert shorter.rounds == 2


#: Gaps from a knot to a neighbour closer than the engine's exact-hit
#: tolerance (``rel_tol=1e-9``, ``abs_tol=1e-12``), and one just wider.
TIGHT_GAPS = (3e-13, 4e-10, 9e-10, 3e-9)


@st.composite
def float_axes(draw, low: float, high: float) -> list:
    """1–4 strictly increasing knots in ``[low, high]``, some closer than the tolerance."""
    knots = sorted(set(draw(st.lists(st.floats(low, high), min_size=1, max_size=3))))
    if draw(st.booleans()):
        knot = draw(st.sampled_from(knots))
        gap = draw(st.sampled_from(TIGHT_GAPS))
        knots = sorted({*knots, knot * (1.0 - gap) if knot > 0.0 else gap})
    return knots


@st.composite
def surfaces(draw) -> ReliabilitySurface:
    """A surface built straight from random arrays: no simulation."""
    grid = SurfaceGrid(
        # Group sizes near 1e10 lie within the relative tolerance of each other.
        ns=sorted(draw(st.lists(
            st.integers(2, 5000) | st.integers(10**10, 10**10 + 40),
            min_size=1, max_size=4, unique=True,
        ))),
        qs=draw(float_axes(0.01, 1.0)),
        losses=draw(float_axes(0.0, 0.95)),
        fanouts=draw(float_axes(0.1, 50.0)),
        rounds=draw(st.just([0]) | st.lists(
            st.integers(1, 40), min_size=1, max_size=4, unique=True).map(sorted)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = grid.shape
    ci_low, mean, ci_high = np.sort(rng.random((3, *shape)), axis=0)
    # Cells at the validation limits: certificates 0 and 1 + 1e-12, means on them.
    at_zero = rng.random(shape) < 0.2
    at_one = rng.random(shape) < 0.2
    ci_low[at_zero] = 0.0
    mean[at_zero & (rng.random(shape) < 0.5)] = 0.0
    ci_high[at_one] = 1.0 + 1e-12
    mean[at_one & (rng.random(shape) < 0.5)] = 1.0 + 1e-12
    cost = np.where(rng.random(shape) < 0.2, 0.0, 50.0 * rng.random(shape))
    return ReliabilitySurface(
        grid=grid, protocol="gossip-poisson", mean=mean, ci_low=ci_low, ci_high=ci_high,
        cost=cost, repetitions=32, confidence=0.95, seed=0,
    )


def coordinates(axis: tuple) -> st.SearchStrategy:
    """Query coordinates around one axis: knots, near-knots, cells, ends, non-finite."""
    knots = [float(k) for k in axis]
    knot = st.sampled_from(knots)
    relative = st.sampled_from((-3e-9, -9e-10, -4e-10, 4e-10, 9e-10, 3e-9))
    absolute = st.sampled_from((-3e-12, -5e-13, 5e-13, 3e-12))
    options = [
        knot,
        st.builds(lambda k, r: k * (1.0 + r), knot, relative),
        st.builds(lambda k, a: k + a, knot, absolute),
        st.sampled_from((
            math.nextafter(knots[0], -math.inf), math.nextafter(knots[-1], math.inf),
            knots[0] - 1.0, knots[-1] + 1.0, math.nan, math.inf, -math.inf,
        )),
    ]
    if len(knots) > 1:
        options.append(st.builds(
            lambda i, w: knots[i] + w * (knots[i + 1] - knots[i]),
            st.integers(0, len(knots) - 2), st.floats(0.0, 1.0),
        ))
    return st.one_of(options)


def outcome(serve, **point) -> tuple:
    """A served answer field by field (floats bit for bit), or the error it raised."""
    try:
        answer = serve(**point)
    except Exception as exc:  # the oracle raises whatever the engine raised
        return ("raised", type(exc), str(exc))
    # Fields by name: a cached encoding in the instance dict is no part of the answer.
    return tuple(
        (f.name, type(value), value.hex() if isinstance(value, float) else value)
        for f in dataclasses.fields(answer)
        for value in [getattr(answer, f.name)]
    )


class TestKernelParity:
    """The flat kernel serves exactly what the linear-scan reference serves."""

    @settings(max_examples=150, deadline=None)
    @given(surface=surfaces(), data=st.data())
    def test_query_equals_reference_bit_for_bit(self, surface, data):
        grid = surface.grid
        points = data.draw(st.lists(st.fixed_dictionaries({
            "n": coordinates(grid.ns),
            "q": coordinates(grid.qs),
            "loss": coordinates(grid.losses),
            "fanout": coordinates(grid.fanouts),
            "rounds": st.none() | coordinates(grid.rounds),
        }), min_size=12, max_size=12))
        for point in points:
            engine = SurfaceQueryEngine(surface)  # fresh: no answer comes from the cache
            assert outcome(engine.query, **point) == outcome(
                lambda **p: surface_interpolation.interpolate(surface, **p), **point
            ), point

    def test_close_knots_hit_the_lowest(self):
        # 0.5 lies within the tolerance of the three knots below 1.0.
        qs = (0.5 - 4e-10, 0.5 - 2e-10, 0.5, 1.0)
        grid = SurfaceGrid(ns=(64,), qs=qs, losses=(0.0,), fanouts=(2.0,))
        shape = grid.shape
        surface = ReliabilitySurface(
            grid=grid, protocol="gossip-poisson", mean=np.full(shape, 0.5),
            ci_low=np.full(shape, 0.25), ci_high=np.full(shape, 0.75),
            cost=np.arange(4.0).reshape(shape), repetitions=32, confidence=0.95, seed=0,
        )
        answer = SurfaceQueryEngine(surface).query(n=64, q=0.5, loss=0.0, fanout=2.0)
        assert answer.exact and answer.cost == 0.0


class TestDimensionFromSurface:
    def test_min_fanout_objective(self, surface):
        engine = fresh_engine(surface)
        answer = dimension_from_surface(
            engine, n=128, q=0.9, target_reliability=0.6, loss=0.0,
            allow_live_fallback=False,
        )
        assert answer.source == "surface"
        assert answer.feasible
        assert answer.ci_low >= 0.6
        assert answer.fanout in surface.grid.fanouts
        # Minimality: no smaller grid fanout certifies.
        for fanout in surface.grid.fanouts:
            if fanout < answer.fanout:
                served = engine.query(n=128, q=0.9, loss=0.0, fanout=fanout)
                assert served.ci_low < 0.6

    def test_min_cost_objective_never_costlier(self, surface):
        engine = fresh_engine(surface)
        by_fanout = dimension_from_surface(
            engine, n=128, q=0.9, target_reliability=0.6, loss=0.0,
            objective="min_fanout", allow_live_fallback=False,
        )
        by_cost = dimension_from_surface(
            engine, n=128, q=0.9, target_reliability=0.6, loss=0.0,
            objective="min_cost", allow_live_fallback=False,
        )
        assert by_cost.feasible
        assert by_cost.ci_low >= 0.6
        assert by_cost.cost <= by_fanout.cost + 1e-12

    def test_invalid_objective_rejected(self, surface):
        with pytest.raises(ValueError):
            dimension_from_surface(
                fresh_engine(surface), n=128, q=0.9, target_reliability=0.6,
                objective="min_regret",
            )

    def test_no_fallback_returns_infeasible(self, surface):
        engine = fresh_engine(surface)
        answer = dimension_from_surface(
            engine, n=128, q=0.9, target_reliability=0.999, loss=0.2,
            allow_live_fallback=False,
        )
        assert not answer.feasible
        assert answer.source == "surface"
        assert math.isnan(answer.achieved_reliability)
        assert answer.fanout == surface.grid.fanouts[-1]

    def test_live_fallback_invoked_off_grid(self, surface):
        calls = {}

        def stub_solver(n, q, target, **kwargs):
            calls.update(n=n, q=q, target=target, **kwargs)

            class Live:
                fanout = 7.5
                rounds = None
                achieved_reliability = 0.97
                ci_low = 0.95
                ci_high = 0.99
                feasible = True

            return Live()

        engine = fresh_engine(surface)
        answer = dimension_from_surface(
            engine, n=128, q=0.5, target_reliability=0.9,  # q off-grid
            live_solver=stub_solver, seed=7,
        )
        assert answer.source == "live"
        assert answer.fanout == 7.5
        assert answer.feasible
        assert math.isnan(answer.cost)
        assert calls["q"] == 0.5 and calls["seed"] == 7
        # Gossip surfaces forward their spread-conditioning to the live solve.
        assert calls["conditional_on_spread"] is True

    @pytest.mark.parametrize(
        ("n", "q", "target"),
        [
            (129, 0.9, 0.6),  # n above the grid's largest group size
            (128, 0.5, math.nextafter(LIVE_FALLBACK_MAX_TARGET, 1.0)),  # target above the cap
            (128, 0.9, 0.999999),  # on-grid, but no grid candidate certifies
        ],
    )
    def test_live_fallback_caps_refuse_before_solving(self, surface, n, q, target):
        calls = []

        def spy_solver(*args, **kwargs):
            calls.append((args, kwargs))

        with pytest.raises(LiveFallbackRefused, match="live fallback refused"):
            dimension_from_surface(
                fresh_engine(surface), n=n, q=q, target_reliability=target,
                live_solver=spy_solver,
            )
        assert calls == []

    def test_live_fallback_at_the_caps_still_solves(self, surface):
        calls = []

        def spy_solver(n, q, target, **kwargs):
            calls.append(n)

            class Live:
                fanout = 7.5
                rounds = None
                achieved_reliability = 0.9995
                ci_low = 0.9992
                ci_high = 0.9998
                feasible = True

            return Live()

        answer = dimension_from_surface(
            fresh_engine(surface), n=128, q=0.5, target_reliability=LIVE_FALLBACK_MAX_TARGET,
            live_solver=spy_solver,
        )
        assert answer.source == "live" and calls == [128]

    def test_surface_path_never_simulates(self, surface):
        def exploding_solver(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("live solver must not be called on-grid")

        answer = dimension_from_surface(
            fresh_engine(surface), n=128, q=0.85, target_reliability=0.6,
            live_solver=exploding_solver,
        )
        assert answer.source == "surface"


class TestParetoFromSurface:
    def test_frontier_certified_and_non_dominated(self, protocol_surface):
        engine = fresh_engine(protocol_surface)
        frontier = pareto_from_surface(engine, n=96, q=0.9, target_reliability=0.6)
        assert frontier
        for candidate in frontier:
            assert candidate.ci_low >= 0.6
            for other in frontier:
                if other is candidate:
                    continue
                dominates = (
                    other.fanout <= candidate.fanout
                    and other.rounds <= candidate.rounds
                    and (other.fanout, other.rounds) != (candidate.fanout, candidate.rounds)
                )
                assert not dominates

    def test_empty_when_nothing_certifies(self, protocol_surface):
        engine = fresh_engine(protocol_surface)
        assert pareto_from_surface(engine, n=96, q=0.9, target_reliability=0.9999) == ()
