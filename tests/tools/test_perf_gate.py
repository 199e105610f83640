"""Tests of the paired perf gate's decision (``tools/perf_gate.py``) on synthetic runs."""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path

import pytest

from tools import perf_gate
from tools.perf_gate import PAIRS, Run, decide, parse_run

#: Two end-to-end metrics, one of each direction, and one workload.  The
#: bounds are exact binary fractions, so a value exactly at the bound is one.
SPEC = {
    "workloads": [{"name": "sweep"}],
    "end_to_end": [
        {"name": "solve_s", "better": "lower", "bound": 0.25},
        {"name": "replicas_per_s", "better": "higher", "bound": 0.25},
    ],
}


def run(*, solve_s: float = 1.0, replicas_per_s: float = 100.0, failed: int = 0,
        code: int = 0, digest: str | None = None) -> Run:
    """One readable run with the given metric values and output digest."""
    metrics = {"solve_s": {"value": solve_s, "unit": "s"},
               "replicas_per_s": {"value": replicas_per_s, "unit": "1/s"}}
    return Run(code, {"attempted": 10, "failed": failed, "metrics": metrics}, digest)


def runs(**values: list[float]) -> list[Run]:
    """:data:`PAIRS` runs; ``values[metric][i]`` is run ``i``'s value of that metric."""
    return [run(**{name: series[i] for name, series in values.items()}) for i in range(PAIRS)]


def gate(base: list[Run], head: list[Run], base_spec: dict = SPEC, head_spec: dict = SPEC
         ) -> perf_gate.Verdict:
    return decide(base_spec, head_spec, {"sweep": (base, head)})


def row(verdict: perf_gate.Verdict, metric: str) -> perf_gate.Row:
    (found,) = [r for r in verdict.rows if r.metric == metric]
    return found


BASE = runs(solve_s=[1.0] * PAIRS)


class TestMetrics:
    def test_identical_runs_pass(self):
        verdict = gate(BASE, runs(solve_s=[1.0] * PAIRS))
        assert verdict.code == 0 and verdict.problems == []
        assert [r.lost for r in verdict.rows] == [0, 0]

    def test_lower_is_better_lost_all_pairs_past_the_bound_fails(self):
        verdict = gate(BASE, runs(solve_s=[1.3] * PAIRS))
        assert verdict.code == 1
        assert row(verdict, "solve_s").lost == PAIRS
        assert row(verdict, "solve_s").verdict == "REGRESSED"
        assert row(verdict, "solve_s").change == pytest.approx(0.3)

    def test_lower_is_better_faster_head_passes(self):
        verdict = gate(BASE, runs(solve_s=[0.5] * PAIRS))
        assert verdict.code == 0
        assert row(verdict, "solve_s").lost == 0

    def test_higher_is_better_lost_all_pairs_past_the_bound_fails(self):
        verdict = gate(BASE, runs(replicas_per_s=[70.0] * PAIRS))
        assert verdict.code == 1
        assert row(verdict, "replicas_per_s").lost == PAIRS
        assert row(verdict, "replicas_per_s").verdict == "REGRESSED"

    def test_higher_is_better_faster_head_passes(self):
        verdict = gate(BASE, runs(replicas_per_s=[200.0] * PAIRS))
        assert verdict.code == 0
        assert row(verdict, "replicas_per_s").lost == 0

    def test_lost_all_pairs_within_the_bound_passes(self):
        verdict = gate(BASE, runs(solve_s=[1.2] * PAIRS))
        assert verdict.code == 0
        assert row(verdict, "solve_s").lost == PAIRS
        assert row(verdict, "solve_s").verdict == "ok"

    def test_exactly_at_the_bound_passes(self):
        verdict = gate(BASE, runs(solve_s=[1.25] * PAIRS))
        assert row(verdict, "solve_s").lost == PAIRS
        assert verdict.code == 0

    def test_one_pair_won_past_the_bound_passes(self):
        verdict = gate(BASE, runs(solve_s=[1.5, 1.5, 0.9, 1.5, 1.5]))
        assert verdict.code == 0
        assert row(verdict, "solve_s").lost == PAIRS - 1
        assert row(verdict, "solve_s").head == 1.5

    def test_a_tie_is_not_a_loss(self):
        verdict = gate(BASE, runs(solve_s=[1.5, 1.5, 1.0, 1.5, 1.5]))
        assert verdict.code == 0
        assert row(verdict, "solve_s").lost == PAIRS - 1

    def test_each_pair_compares_its_own_seed(self):
        # Head is slower than base at every seed, but not than base's median.
        base = runs(solve_s=[1.0, 2.0, 3.0, 4.0, 5.0])
        verdict = gate(base, runs(solve_s=[1.5, 2.5, 3.5, 4.5, 5.5]))
        assert row(verdict, "solve_s").lost == PAIRS
        head = runs(solve_s=[5.5, 4.5, 3.5, 2.5, 1.5])
        assert row(gate(base, head), "solve_s").lost == 3

    def test_better_and_bound_come_from_head(self):
        loose = {**SPEC, "end_to_end": [
            {"name": "solve_s", "better": "higher", "bound": 0.5},
            {"name": "replicas_per_s", "better": "higher", "bound": 0.5},
        ]}
        slower = runs(solve_s=[1.3] * PAIRS)
        assert gate(BASE, slower, base_spec=loose).code == 1
        assert gate(BASE, slower, head_spec=loose).code == 0


class TestRuns:
    def test_higher_failed_share_fails(self):
        head = [run(failed=1 if i == 2 else 0) for i in range(PAIRS)]
        verdict = gate(BASE, head)
        assert verdict.code == 1
        assert verdict.problems == ["sweep: head failed 1 of 50 operations, base 0 of 50"]

    def test_equal_failed_share_passes(self):
        failing = [run(failed=1) for _ in range(PAIRS)]
        assert gate(failing, failing).code == 0

    def test_head_run_without_result_line_fails(self):
        head = [*BASE[:3], Run(0, None), BASE[4]]
        verdict = gate(BASE, head)
        assert verdict.code == 1
        assert verdict.rows == []
        assert verdict.problems == [
            "sweep: head run at seed 3 exited 0 and printed no result line"]

    def test_head_run_exiting_non_zero_fails(self):
        head = [*BASE[:4], run(code=1)]
        verdict = gate(BASE, head)
        assert verdict.code == 1
        assert verdict.problems == ["sweep: head run at seed 4 exited 1"]

    def test_base_run_without_result_line_cannot_judge(self):
        base = [Run(1, None), *BASE[1:]]
        verdict = gate(base, BASE)
        assert verdict.code == 2
        assert verdict.problems == [
            "sweep: base run at seed 0 exited 1 and printed no result line"]

    def test_a_broken_head_outranks_a_broken_base(self):
        assert gate([Run(1, None), *BASE[1:]], [Run(1, None), *BASE[1:]]).code == 1


class TestDeclarations:
    def test_one_sided_workload_and_metric_are_listed_not_gated(self):
        head_spec = {
            "workloads": [*SPEC["workloads"], {"name": "new_workload"}],
            "end_to_end": [*SPEC["end_to_end"],
                           {"name": "new_metric", "better": "lower", "bound": 0.1}],
        }
        base_spec = {**SPEC, "end_to_end": SPEC["end_to_end"][:1]}
        slower = runs(replicas_per_s=[10.0] * PAIRS)
        verdict = gate(BASE, slower, base_spec=base_spec, head_spec=head_spec)
        assert verdict.code == 0
        assert [r.metric for r in verdict.rows] == ["solve_s"]
        assert verdict.not_gated == [
            "workload new_workload: declared by head only",
            "metric new_metric: declared by head only",
            "metric replicas_per_s: declared by head only",
        ]
        verdict = gate(BASE, slower, base_spec=head_spec, head_spec=SPEC)
        assert verdict.not_gated == [
            "workload new_workload: declared by base only",
            "metric new_metric: declared by base only",
        ]
        assert verdict.code == 1


class TestParseRun:
    def test_reads_the_last_line(self):
        line = json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {}})
        assert parse_run(0, f"report\n{line}\n").result["attempted"] == 3

    @pytest.mark.parametrize("stdout", ["", "report\n", "[1, 2]\n", '{"metrics": {}}\n'])
    def test_anything_else_is_no_result(self, stdout):
        assert parse_run(0, stdout).result is None

    def test_reads_the_digest_line(self):
        digest = "sha256:" + "0a" * 32
        stdout = f"workload sweep\ndigest               {digest}  (pass 0)\n{{}}\n"
        assert parse_run(0, stdout).digest == digest

    @pytest.mark.parametrize("stdout", ["", "digest\n", "digest pending\n", "digests sha256:0\n"])
    def test_no_digest_line_is_no_digest(self, stdout):
        assert parse_run(0, stdout).digest is None


def digested(digests: Sequence[str | None], solve_s: float = 1.0) -> list[Run]:
    """:data:`PAIRS` runs at one ``solve_s``; run ``i`` printed ``digests[i]``."""
    return [run(solve_s=solve_s, digest=digest) for digest in digests]


class TestDigests:
    SEEDS = tuple(f"sha256:{seed:064x}" for seed in range(PAIRS))

    def test_equal_digests_in_every_pair(self):
        verdict = gate(digested(self.SEEDS), digested(self.SEEDS, solve_s=0.5))
        assert verdict.digests_equal == {"sweep": PAIRS}
        assert verdict.code == 0

    def test_differing_digests_are_reported_not_gated(self):
        head = digested([*self.SEEDS[:3], "sha256:" + "f" * 64, None])
        verdict = gate(digested(self.SEEDS), head)
        assert verdict.digests_equal == {"sweep": 3}
        assert verdict.code == 0 and verdict.problems == []

    def test_runs_without_digests_are_never_equal(self):
        assert gate(BASE, BASE).digests_equal == {"sweep": 0}

    def test_each_pair_compares_its_own_seed(self):
        verdict = gate(digested(self.SEEDS), digested(self.SEEDS[::-1]))
        assert verdict.digests_equal == {"sweep": 1}  # only the middle seed lines up

    def test_report_prints_the_count_and_the_json_carries_it(self, capsys):
        perf_gate.report(gate(digested(self.SEEDS), digested([*self.SEEDS[:4], None])))
        out = capsys.readouterr().out.splitlines()
        assert f"sweep: digests equal in {PAIRS - 1}/{PAIRS} pairs" in out
        assert json.loads(out[-1])["digests_equal"] == {"sweep": PAIRS - 1}


class TestProtocol:
    def test_warm_ups_then_alternating_pairs_at_one_seed_each(self, monkeypatch):
        calls = []

        def fake(side: str, tree: Path, workload: str, seed: int) -> Run:
            calls.append((side, seed))
            return run()

        monkeypatch.setattr(perf_gate, "run_once", fake)
        base, head = perf_gate.collect(Path("b"), Path("h"), "sweep")
        assert len(base) == len(head) == PAIRS
        assert calls[:2] == [("base", 0), ("head", 0)]
        pairs = [calls[i:i + 2] for i in range(2, len(calls), 2)]
        assert pairs == [[("base", i), ("head", i)] if i % 2 == 0 else [("head", i), ("base", i)]
                         for i in range(PAIRS)]

    def test_missing_benchmark_declaration_cannot_judge(self, tmp_path, capsys):
        assert perf_gate.main([str(tmp_path), str(tmp_path)]) == 2
        assert "BENCHMARK.json" in capsys.readouterr().err
