"""Tests of the JSON-lines serving loop and of the serving doctests."""

from __future__ import annotations

import dataclasses
import doctest
import io
import json
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.dimensioning
import repro.serving.query
import repro.serving.serve
import repro.serving.surface
from repro.analysis.dimensioning import dimension_fanout
from repro.analysis.sweep import default_distribution_families
from repro.protocols import PbcastProtocol
from repro.serving.query import (
    ServedDimensioning,
    ServedReliability,
    SurfaceCoverageError,
    SurfaceQueryEngine,
    encode_fields,
    pareto_from_surface,
)
from repro.serving.serve import handle_request, serve_loop
from repro.serving.surface import SurfaceGrid, build_surface
from tests.golden.cases import SERVE_LINES

SEED = 20080149


@pytest.fixture(scope="module")
def surface():
    return build_surface(
        SurfaceGrid(ns=(64,), qs=(0.8, 1.0), losses=(0.0, 0.2), fanouts=(2.0, 5.0, 9.0)),
        repetitions=24,
        seed=SEED,
    )


@pytest.fixture(scope="module")
def protocol_surface():
    """A surface with a rounds axis, whose Pareto frontiers hold several candidates."""
    return build_surface(
        SurfaceGrid(
            ns=(64,), qs=(0.8, 1.0), losses=(0.0, 0.2), fanouts=(2.0, 5.0, 9.0), rounds=(2, 4, 8)
        ),
        protocol="pbcast",
        repetitions=16,
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
        for ident in (-2.5, True, None):  # any finite JSON scalar
            assert handle_request(engine, {"op": "info", "id": ident})["id"] == ident

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


def strict_json(text: str):
    """Parse one response line as strict JSON: NaN and the infinities are refused."""

    def refuse(constant: str):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


class LiveSolve:
    """A stub live answer: the fuzzer and the defect tests never simulate."""

    fanout = 7.5
    rounds = None
    achieved_reliability = 0.97
    ci_low = 0.95
    ci_high = 0.99
    feasible = True


class TestBoundaryDefects:
    """Requests that killed the loop or broke its wire contract are answered ``ok: false``."""

    @staticmethod
    def run_loop(surface, *lines: str) -> list:
        out = io.StringIO()
        served = serve_loop(surface, io.StringIO("\n".join([*lines, '{"op": "info"}']) + "\n"), out)
        responses = [strict_json(line) for line in out.getvalue().splitlines()]
        assert served == len(responses) == len(lines) + 1
        assert responses[-1]["ok"]  # the loop is still serving
        return responses[:-1]

    @pytest.mark.parametrize("field", ["n", "rounds"])
    def test_overflowing_integer_field(self, surface, field):
        # 1e400 decodes to inf, and int(inf) raises OverflowError.
        line = '{"op": "reliability", "q": 0.9, "fanout": 4, "%s": 1e400}' % field
        [response] = self.run_loop(surface, line)
        assert not response["ok"]
        assert f"{field} must be an integer" in response["error"]

    def test_integer_too_large_for_a_float(self, surface):
        # A 401-digit JSON integer decodes exactly, then float() overflows.
        line = '{"op": "reliability", "q": 1%s, "fanout": 4}' % ("0" * 400)
        [response] = self.run_loop(surface, line)
        assert not response["ok"]
        assert response["error"].startswith("OverflowError:")

    def test_nesting_past_the_decoder_limit(self, surface):
        # Past the decoder's limit on every supported Python: 3.10 and 3.11
        # stop near 1,000 levels, 3.12 and later at a larger C recursion limit.
        depth = 100_000
        [response] = self.run_loop(surface, "[" * depth + "]" * depth)
        assert not response["ok"]
        assert response["error"].startswith("invalid JSON:")

    @pytest.mark.parametrize("flag", ['"false"', "0", "null", "[]"])
    def test_live_fallback_must_be_a_json_boolean(self, surface, flag):
        # bool("false") is True: a string must not start a live solve.
        line = '{"op": "dimension", "q": 0.5, "target": 0.3, "live_fallback": %s}' % flag
        with mock.patch.object(repro.analysis.dimensioning, "dimension_fanout") as solver:
            [response] = self.run_loop(surface, line)
        solver.assert_not_called()
        assert not response["ok"]
        assert "live_fallback must be a JSON boolean" in response["error"]

    @pytest.mark.parametrize(
        ("field", "value"),
        [("n", "64.9"), ("n", '"64"'), ("n", "true"), ("rounds", "0.5"), ("rounds", '"0"')],
    )
    def test_integer_fields_refuse_fractions_strings_and_bools(self, surface, field, value):
        line = '{"op": "reliability", "q": 0.9, "fanout": 4, "%s": %s}' % (field, value)
        [response] = self.run_loop(surface, line)
        assert not response["ok"]
        assert f"{field} must be an integer" in response["error"]

    @pytest.mark.parametrize(
        ("field", "line"),
        [
            ("q", '{"op": "reliability", "q": true, "fanout": 4}'),
            ("loss", '{"op": "reliability", "q": 0.9, "loss": false, "fanout": 4}'),
            ("fanout", '{"op": "reliability", "q": 0.9, "fanout": " 4 "}'),
            ("target", '{"op": "dimension", "q": 0.9, "target": "0.6"}'),
            ("q", '{"op": "pareto", "q": "0.9", "target": 0.6}'),
        ],
    )
    def test_real_fields_refuse_bools_and_strings(self, surface, field, line):
        # float(True) is 1.0 and float(" 4 ") is 4.0: neither may be served.
        [response] = self.run_loop(surface, line)
        assert not response["ok"]
        assert f"{field} must be a number" in response["error"]

    def test_integral_numbers_are_still_served(self, surface):
        exact, spelled = self.run_loop(
            surface,
            '{"op": "reliability", "q": 0.9, "fanout": 4, "n": 64, "rounds": 0}',
            '{"op": "reliability", "q": 0.9, "fanout": 4, "n": 64.0, "rounds": 0.0}',
        )
        assert exact["ok"] and exact == spelled

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", '[1, {"x": NaN}]', "[1]"])
    def test_non_finite_or_structured_id_is_refused_not_echoed(self, surface, value):
        [response] = self.run_loop(surface, '{"op": "info", "id": %s}' % value)
        assert not response["ok"]
        assert "id" not in response
        assert "id must be" in response["error"]

    def test_live_fallback_caps_answer_ok_false(self, surface):
        requests = (
            '{"op": "dimension", "n": 65, "q": 0.9, "target": 0.5, "live_fallback": true}',
            '{"op": "dimension", "q": 0.9, "target": 0.9995, "live_fallback": true}',
        )
        with mock.patch.object(repro.analysis.dimensioning, "dimension_fanout") as solver:
            responses = self.run_loop(surface, *requests)
        solver.assert_not_called()
        for response in responses:
            assert not response["ok"]
            assert response["error"].startswith("LiveFallbackRefused:")


#: Any JSON value, including NaN, the infinities, huge integers and nesting.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=8)
    | st.integers() | st.sampled_from([10**400, -(10**400), 2**63]),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)

#: Spellings that a Python value cannot produce: overflowing and over-long numbers.
RAW_NUMBERS = st.sampled_from(["1e400", "-1e400", "1" * 5000, "1e-400", "-0"])

#: Plausible field values, so that well-formed requests reach every operation.
PLAUSIBLE = {
    "op": st.sampled_from(["reliability", "dimension", "pareto", "info", "shutdown"]),
    "n": st.sampled_from([64, 64.0, 65, 2, 10**6]),
    "q": st.sampled_from([0.5, 0.8, 0.9, 1.0]),
    "loss": st.sampled_from([0.0, 0.1, 0.2, 0.3]),
    "fanout": st.sampled_from([2.0, 4.0, 9.0, 12.0]),
    "rounds": st.sampled_from([0, 1, 0.0]),
    "target": st.sampled_from([0.3, 0.6, 0.99, 0.9995]),
    "objective": st.sampled_from(["min_fanout", "min_cost"]),
    "live_fallback": st.booleans(),
    "id": st.integers() | st.text(max_size=8),
}


@st.composite
def field_text(draw, name: str) -> str:
    """The JSON text of one request field: plausible, arbitrary or raw."""
    kind = draw(st.sampled_from(["plausible", "any", "raw"]))
    if kind == "raw":
        return draw(RAW_NUMBERS)
    value = draw(PLAUSIBLE[name] if kind == "plausible" else JSON_VALUES)
    return json.dumps(value)


@st.composite
def request_lines(draw) -> str:
    """One request line: a subset of the fields, each plausible or arbitrary."""
    names = draw(st.lists(st.sampled_from(sorted(PLAUSIBLE)), unique=True))
    fields = ", ".join(f'"{name}": {draw(field_text(name))}' for name in names)
    return "{" + fields + "}"


@st.composite
def nested_lines(draw) -> str:
    """A line nested up to past the decoder's depth limit, as a value or a whole line."""
    depth = draw(st.integers(1, 100_000))
    opener, closer = draw(st.sampled_from([("[", "]"), ('{"a": ', "}")]))
    nested = opener * depth + "1" + closer * depth
    return draw(st.sampled_from([nested, '{"op": "info", "id": %s}' % nested,
                                 '{"op": %s}' % nested, '{"n": %s, "op": "dimension"}' % nested]))


LINES = st.one_of(
    request_lines(),
    request_lines().flatmap(lambda line: st.integers(0, len(line)).map(lambda k: line[:k])),
    nested_lines(),
    JSON_VALUES.map(json.dumps),
    st.text(max_size=40).map(lambda text: text.replace("\n", " ")),
)


class TestServeFuzzer:
    """No request line, however malformed, kills the loop or breaks its wire contract."""

    @settings(max_examples=120, deadline=None)
    @given(lines=st.lists(LINES, max_size=8))
    def test_loop_survives_and_answers_strict_json(self, surface, lines):
        out = io.StringIO()
        with mock.patch.object(repro.analysis.dimensioning, "dimension_fanout",
                               return_value=LiveSolve()):
            served = serve_loop(surface, io.StringIO("\n".join(lines) + "\n"), out)
        responses = [strict_json(line) for line in out.getvalue().splitlines()]
        assert served == len(responses)
        for response in responses:
            assert isinstance(response, dict) and isinstance(response["ok"], bool)
        answered = [line for line in lines if line.strip()]
        if responses and responses[-1].get("shutdown"):
            assert len(responses) <= len(answered)
        else:
            assert len(responses) == len(answered)
        assert not any(response.get("shutdown") for response in responses[:-1])


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


def pre_change_fields(answer) -> dict:
    """An answer's response fields built from its dataclass fields, NaN and infinities as None."""
    return {
        f.name: None if isinstance(value, float) and not math.isfinite(value) else value
        for f in dataclasses.fields(answer)
        for value in [getattr(answer, f.name)]
    }


def expected_line(engine, request: dict) -> str:
    """``json.dumps`` of the response to a reliability or pareto request, built as a dict."""
    response: dict = {"ok": True}
    if "id" in request:
        response["id"] = request["id"]
    point = {"n": 64, "q": request["q"], "loss": request["loss"]}
    try:
        if request["op"] == "reliability":
            answer = engine.query(**point, fanout=request["fanout"], rounds=request.get("rounds"))
            response.update(pre_change_fields(answer))
        else:
            frontier = pareto_from_surface(engine, **point, target_reliability=request["target"])
            response["frontier"] = [pre_change_fields(c) for c in frontier]
    except SurfaceCoverageError as exc:
        response = {"ok": False, "error": f"SurfaceCoverageError: {exc}"}
        if "id" in request:
            response["id"] = request["id"]
    return json.dumps(response)


#: Reliability and Pareto request keys, on and off each surface's grid.
WIRE_KEYS = st.fixed_dictionaries(
    {
        "op": st.sampled_from(["reliability", "pareto"]),
        "q": st.sampled_from([0.8, 0.9, 1.0, 0.5]),
        "loss": st.sampled_from([0.0, 0.1, 0.2, 0.3]),
        "fanout": st.sampled_from([2.0, 4.0, 5.0, 9.0, 12.0]),
        "target": st.sampled_from([0.3, 0.6, 0.8, 0.99]),
    },
    optional={"rounds": st.sampled_from([2, 3, 8, 16])},
)

#: Echoed ids of every JSON scalar kind.
IDS = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
)


@st.composite
def wire_requests(draw, horizon: bool) -> list:
    """A request stream that repeats a few keys, each time with or without an id."""
    keys = draw(st.lists(WIRE_KEYS, min_size=1, max_size=4))
    stream = []
    for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=10)):
        request = dict(key)
        if not horizon:
            request.pop("rounds", None)
        ident = draw(st.lists(IDS, max_size=1))
        if ident:
            request["id"] = ident[0]
        stream.append(request)
    return stream


class WriteLog:
    """An output stream that notes how often the field encoder had run at each response."""

    def __init__(self, encoder: mock.Mock) -> None:
        self.encoder = encoder
        self.lines: list[tuple[str, int]] = []

    def write(self, text: str) -> int:
        self.lines.append((text, self.encoder.call_count))
        return len(text)

    def flush(self) -> None:
        """Nothing is buffered."""


class TestWire:
    """Each response line is the bytes ``json.dumps`` writes for the response object."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), horizon=st.booleans())
    def test_reliability_and_pareto_lines_equal_json_dumps(
        self, surface, protocol_surface, data, horizon
    ):
        served = protocol_surface if horizon else surface
        requests = data.draw(wire_requests(horizon))
        out = io.StringIO()
        serve_loop(served, io.StringIO("".join(json.dumps(r) + "\n" for r in requests)), out)
        reference = SurfaceQueryEngine(served)
        assert out.getvalue().splitlines() == [expected_line(reference, r) for r in requests]

    def test_a_served_answer_is_encoded_once(self, surface):
        key = '{"op": "reliability", "q": 0.9, "loss": 0.1, "fanout": 4%s}\n'
        cells = "".join(
            '{"op": "reliability", "q": 1.0, "loss": 0.2, "fanout": %r}\n' % fanout
            for fanout in surface.grid.fanouts
        )
        scan = '{"op": "pareto", "q": 1.0, "loss": 0.2, "target": 0.6}\n'
        stream = key % "" + key % "" + key % ', "id": 3' + cells + scan
        with mock.patch.object(
            repro.serving.query, "encode_fields", wraps=repro.serving.query.encode_fields
        ) as encoder:
            out = WriteLog(encoder)
            serve_loop(surface, io.StringIO(stream), out)
        calls = [count for _, count in out.lines]
        # One encoding for three servings of a key, one per new cell, none for the scan.
        assert calls == [1, 1, 1, 2, 3, 4, 4]
        assert json.loads(out.lines[-1][0])["frontier"]

    @pytest.mark.parametrize("odd", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_encode_as_null(self, odd):
        reliability = ServedReliability(
            n=64, q=0.9, loss=0.1, fanout=4.0, rounds=0, reliability=odd,
            ci_low=0.5, ci_high=odd, cost=odd, exact=False,
        )
        dimensioned = ServedDimensioning(
            n=64, q=0.9, target_reliability=0.95, loss=0.0, confidence=0.95,
            fanout=12.0, rounds=None, achieved_reliability=odd, ci_low=odd, ci_high=1.0,
            cost=odd, source="NaN \u00e9", feasible=False,
        )
        for answer in (reliability, dimensioned):
            assert "{" + encode_fields(answer) + "}" == json.dumps(pre_change_fields(answer))
        assert reliability.json_fields == encode_fields(reliability)
        assert "null" in reliability.json_fields

    def test_handle_request_is_the_decoded_line(self, surface):
        # Every op, each error kind and a shutdown, in the golden stream's order.
        out = io.StringIO()
        serve_loop(surface, io.StringIO("\n".join(SERVE_LINES) + "\n"), out)
        lines = out.getvalue().splitlines()
        engine = SurfaceQueryEngine(surface)
        ops = set()
        for request_line, line in zip(SERVE_LINES[: len(lines)], lines, strict=True):
            try:
                request = json.loads(request_line)
            except ValueError:
                continue  # answered by the loop itself, before any request object exists
            ops.add(request.get("op") if isinstance(request, dict) else None)
            assert handle_request(engine, request) == json.loads(line), request_line
        assert {"reliability", "dimension", "pareto", "info", "shutdown", "teleport"} <= ops

    def test_serving_leaves_the_answer_dataclass_unchanged(self, surface):
        engine = SurfaceQueryEngine(surface)
        answer = engine.query(n=64, q=0.9, loss=0.1, fanout=4.0)
        twin = dataclasses.replace(answer)  # equal, and never served
        names = [f.name for f in dataclasses.fields(answer)]
        handle_request(engine, {"op": "reliability", "q": 0.9, "loss": 0.1, "fanout": 4.0})
        assert "json_fields" in vars(answer)  # the cached answer itself was served
        assert [f.name for f in dataclasses.fields(answer)] == names
        assert answer == twin and hash(answer) == hash(twin)
        assert dataclasses.astuple(answer) == dataclasses.astuple(twin)
        assert repr(answer) == repr(twin)


class TestServingDoctests:
    """Run the serving layer's docstring examples as part of tier-1.

    CI additionally runs ``pytest --doctest-modules src/repro``;
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
