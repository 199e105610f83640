"""Tests of the JSON-lines serving loop and of the serving doctests."""

from __future__ import annotations

import doctest
import io
import json
import math

import pytest

import repro.serving.query
import repro.serving.serve
import repro.serving.surface
from repro.analysis.dimensioning import dimension_fanout
from repro.analysis.sweep import default_distribution_families
from repro.protocols import PbcastProtocol
from repro.serving.query import SurfaceQueryEngine
from repro.serving.serve import handle_request, serve_loop
from repro.serving.surface import SurfaceGrid, build_surface

SEED = 20080149


@pytest.fixture(scope="module")
def surface():
    return build_surface(
        SurfaceGrid(ns=(64,), qs=(0.8, 1.0), losses=(0.0, 0.2), fanouts=(2.0, 5.0, 9.0)),
        repetitions=24,
        seed=SEED,
    )


@pytest.fixture
def engine(surface) -> SurfaceQueryEngine:
    return SurfaceQueryEngine(surface)


class TestHandleRequest:
    def test_reliability(self, engine):
        response = handle_request(
            engine, {"op": "reliability", "q": 0.9, "loss": 0.1, "fanout": 4.0}
        )
        assert response["ok"]
        assert 0.0 <= response["ci_low"] <= response["reliability"] <= response["ci_high"] <= 1.0
        assert response["n"] == 64  # single-n surface: n may be omitted

    def test_dimension(self, engine):
        response = handle_request(engine, {"op": "dimension", "q": 0.9, "target": 0.6})
        assert response["ok"]
        assert response["source"] == "surface"
        assert response["ci_low"] >= 0.6

    def test_pareto(self, engine):
        response = handle_request(engine, {"op": "pareto", "q": 0.9, "target": 0.6})
        assert response["ok"]
        assert isinstance(response["frontier"], list)

    def test_info(self, engine):
        response = handle_request(engine, {"op": "info"})
        assert response["ok"]
        assert response["manifest"]["protocol"] == "gossip-poisson"
        assert "hits" in response["cache"]

    def test_id_echoed(self, engine):
        ok = handle_request(engine, {"op": "info", "id": "req-1"})
        assert ok["id"] == "req-1"
        bad = handle_request(engine, {"op": "nope", "id": 2})
        assert not bad["ok"] and bad["id"] == 2

    def test_unknown_op(self, engine):
        response = handle_request(engine, {"op": "teleport"})
        assert not response["ok"]
        assert "teleport" in response["error"]

    def test_missing_field(self, engine):
        response = handle_request(engine, {"op": "reliability", "q": 0.9})
        assert not response["ok"]
        assert "fanout" in response["error"]

    def test_off_grid_is_an_error_not_a_crash(self, engine):
        response = handle_request(
            engine, {"op": "reliability", "q": 0.5, "loss": 0.0, "fanout": 4.0}
        )
        assert not response["ok"]

    @pytest.mark.parametrize("field", ["q", "loss", "fanout"])
    def test_nan_coordinate_is_an_error(self, engine, field):
        # NaN compares False with every knot, so a plain range check lets it through.
        point = {"q": 0.9, "loss": 0.1, "fanout": 4.0, field: math.nan}
        response = handle_request(engine, {"op": "reliability", **point})
        assert not response["ok"]
        assert not engine.covers(n=64, **point)

    @pytest.mark.parametrize("op", ["dimension", "pareto"])
    @pytest.mark.parametrize("target", [math.nan, 0.0, 1.5])
    def test_target_outside_open_unit_interval_is_an_error(self, engine, op, target):
        # The live solver's rule: a target lies strictly inside (0, 1).
        response = handle_request(engine, {"op": op, "q": 0.9, "target": target})
        assert not response["ok"]
        assert "target_reliability" in response["error"]

    def test_live_fallback_is_deterministic(self, engine):
        # Off-grid q forces the live solver; it runs from the surface's seed.
        request = {"op": "dimension", "q": 0.5, "target": 0.3, "live_fallback": True}
        first = handle_request(engine, dict(request))
        second = handle_request(engine, dict(request))
        assert first["ok"] and first["source"] == "live"
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_non_object_request(self, engine):
        assert not handle_request(engine, [1, 2, 3])["ok"]

    def test_responses_are_json_serialisable(self, engine):
        # NaN cost (infeasible, no fallback) must not produce invalid JSON.
        response = handle_request(
            engine, {"op": "dimension", "q": 0.8, "loss": 0.2, "target": 0.99999}
        )
        text = json.dumps(response, allow_nan=False)
        assert json.loads(text)["feasible"] is False


class TestLiveFallbackSolvesTheSurfaceProblem:
    """An off-grid live answer is the direct solve of the surface's own family or protocol."""

    REQUEST = {"op": "dimension", "n": 200, "q": 0.95, "target": 0.8, "live_fallback": True}

    @staticmethod
    def _served(surface) -> dict:
        response = handle_request(
            SurfaceQueryEngine(surface), dict(TestLiveFallbackSolvesTheSurfaceProblem.REQUEST)
        )
        assert response["ok"] and response["source"] == "live"
        return response

    @staticmethod
    def _direct(surface, **kwargs):
        return dimension_fanout(
            200, 0.95, 0.8, confidence=surface.confidence, seed=surface.seed, **kwargs
        )

    def test_gossip_family_surface(self):
        surface = build_surface(
            SurfaceGrid(ns=(200,), qs=(0.8, 0.9), losses=(0.0,), fanouts=(2.0, 4.0, 6.0)),
            protocol="gossip-fixed",
            repetitions=16,
            seed=11,
        )
        direct = self._direct(
            surface,
            distribution_factory=lambda f: default_distribution_families(f)["fixed"],
            conditional_on_spread=surface.conditional_on_spread,
        )
        served = self._served(surface)
        assert (served["fanout"], served["rounds"]) == (direct.fanout, direct.rounds)
        assert served["ci_low"] == direct.ci_low

    def test_protocol_surface(self):
        surface = build_surface(
            SurfaceGrid(
                ns=(200,), qs=(0.8, 0.9), losses=(0.0,), fanouts=(2.0, 4.0), rounds=(4, 8)
            ),
            protocol="pbcast",
            repetitions=16,
            seed=11,
        )
        direct = self._direct(
            surface,
            protocol_factory=lambda f, r: PbcastProtocol(fanout=f, rounds=r, broadcast_reach=0.8),
            rounds=8,
            solve_rounds=True,
        )
        served = self._served(surface)
        assert direct.rounds is not None
        assert (served["fanout"], served["rounds"]) == (direct.fanout, direct.rounds)
        assert served["ci_low"] == direct.ci_low

    def test_min_cost_is_refused_on_the_live_path(self, engine):
        # The live solver minimises the fanout only; it must not answer a
        # cost query as if it were a fanout query.
        request = {"op": "dimension", "q": 0.5, "target": 0.3, "live_fallback": True}
        response = handle_request(engine, {**request, "objective": "min_cost"})
        assert not response["ok"]
        assert "min_cost" in response["error"]


class TestServeLoop:
    def run_loop(self, surface, lines) -> tuple:
        out = io.StringIO()
        served = serve_loop(surface, io.StringIO(lines), out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        return served, responses

    def test_answers_each_line(self, surface):
        served, responses = self.run_loop(
            surface,
            '{"op": "reliability", "q": 0.9, "loss": 0.0, "fanout": 4}\n'
            '{"op": "dimension", "q": 0.9, "target": 0.6}\n',
        )
        assert served == 2
        assert all(r["ok"] for r in responses)

    def test_nan_literal_on_the_wire_is_an_error(self, surface):
        # json.loads accepts the NaN literal, so it reaches the query engine.
        _, responses = self.run_loop(
            surface, '{"op": "reliability", "q": NaN, "loss": 0, "fanout": 5}\n'
        )
        assert responses == [{"ok": False, "error": responses[0]["error"]}]
        assert "SurfaceCoverageError" in responses[0]["error"]

    def test_blank_lines_skipped_and_bad_json_survives(self, surface):
        served, responses = self.run_loop(
            surface,
            '\n   \n{not json}\n{"op": "info"}\n',
        )
        assert served == 2
        assert not responses[0]["ok"]
        assert "invalid JSON" in responses[0]["error"]
        assert responses[1]["ok"]

    def test_shutdown_stops_the_loop(self, surface):
        served, responses = self.run_loop(
            surface,
            '{"op": "shutdown"}\n{"op": "info"}\n',
        )
        assert served == 1
        assert responses[0]["shutdown"] is True


class TestServingDoctests:
    """Run the serving layer's docstring examples as part of tier-1.

    CI additionally runs ``pytest --doctest-modules src/repro/serving``;
    this keeps the examples honest even under the plain test command.
    """

    @pytest.mark.parametrize(
        "module",
        [repro.serving.surface, repro.serving.query, repro.serving.serve],
        ids=lambda m: m.__name__,
    )
    def test_doctests_pass(self, module):
        result = doctest.testmod(module, verbose=False)
        assert result.attempted > 0
        assert result.failed == 0
