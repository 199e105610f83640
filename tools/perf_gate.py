#!/usr/bin/env python
"""Paired perf gate: does a head tree run the benchmark slower than a base tree?

Usage (from the repository root)::

    python tools/perf_gate.py BASE_TREE HEAD_TREE

Each tree is a checkout of the repository.  For every workload that both
trees' ``BENCHMARK.json`` declare, the gate runs ``perfbench/run.py --seconds
1`` once in each tree as a discarded warm-up, then in :data:`PAIRS`
alternating base/head pairs: pair ``i`` runs seed ``i`` on both sides, base
first on even ``i`` and head first on odd ``i``.

A metric regresses when head loses every pair on it *and* head's median is
worse than base's by more than the metric's ``bound``.  Losing a pair means a
worse value than base in that pair; a tie is not a loss.  Only the end-to-end
metrics both trees declare are compared, with ``better`` and ``bound`` read
from head's ``BENCHMARK.json``.  A workload or metric only one side declares
is listed and not gated.

It prints one row per (workload, metric): base median, head median, relative
change, pairs lost and verdict.  Per workload it also reports in how many
pairs base and head printed the same output digest (``digest sha256:...``,
same seed on both sides), so a change meant to keep every fixed-seed stream
shows that it did; the count is reported, not gated.  The last line of
standard output is one JSON object.  The exit code is 0 when head passes, 1 when a metric regresses, a
head run exits non-zero or prints no result line, or head fails a larger share
of operations than base, and 2 when the gate cannot judge: a tree has no
``BENCHMARK.json``, or a base run exits non-zero or prints no result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

#: Alternating base/head pairs per workload, and the length of one run in
#: seconds.  A single run cannot decide: over six ``--seconds 1`` runs of one
#: tree (seeds 0-5, a 2-core container, Python 3.11.7, numpy 2.4.6), the worst
#: run read 1.06x the median ``setup_s`` on ``fig5_sweep`` and 1.05x the
#: median ``req_p99_us`` on ``zoo_planes``, but 1.19x the median
#: ``req_p99_us`` and 1.16x the median ``solve_s`` on
#: ``dimensioning_service``, while ``peak_rss_mb`` stayed within
#: 0.980-1.022x.  Across more processes the spread is wider: over 20 runs of
#: one tree at seeds 40-59 ``fig5_sweep`` ``solve_s`` ranged 1.15-1.80 s, the
#: slowest 1.27x the median.  So one run can cross a 24% bound by chance.
#: Losing all five pairs has probability 1/32 per metric when nothing
#: changed, and the bound must be crossed as well.
#: One run took 2.3-3.2 s on ``fig5_sweep``, 2.9-3.9 s on ``zoo_planes`` and
#: 12-14 s on ``dimensioning_service`` there, and a whole gate run 236 s.
PAIRS = 5
SECONDS = 1


@dataclass(frozen=True)
class Run:
    """One perfbench run: its exit code, its result line and its output digest.

    ``result`` is ``None`` without a result line, ``digest`` (``sha256:...``)
    without a digest line.
    """

    code: int
    result: dict[str, Any] | None
    digest: str | None = None

    @property
    def broken(self) -> bool:
        """True if the run exited non-zero or printed no result line."""
        return self.code != 0 or self.result is None


@dataclass(frozen=True)
class Row:
    """The comparison of one end-to-end metric of one workload."""

    workload: str
    metric: str
    base: float
    head: float
    change: float  # (head - base) / base, signed
    lost: int
    verdict: str


@dataclass(frozen=True)
class Verdict:
    """What the gate decided: exit code, metric rows, problems and what it left out.

    ``digests_equal`` maps each judged workload to the number of pairs whose
    two runs printed the same digest.
    """

    code: int
    rows: list[Row]
    problems: list[str]
    not_gated: list[str]
    digests_equal: dict[str, int]


def parse_run(code: int, stdout: str) -> Run:
    """Read a run's result from the last line of its standard output, and its digest line."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not (isinstance(result, dict) and {"attempted", "failed", "metrics"} <= result.keys()):
        result = None
    digests = [words[1] for words in map(str.split, lines)
               if len(words) > 1 and words[0] == "digest" and words[1].startswith("sha256:")]
    return Run(code, result, digests[0] if digests else None)


def equal_digests(base_runs: list[Run], head_runs: list[Run]) -> int:
    """The number of pairs whose base and head runs printed the same digest."""
    return sum(b.digest is not None and b.digest == h.digest
               for b, h in zip(base_runs, head_runs, strict=True))


def shared(base: list[dict[str, Any]], head: list[dict[str, Any]], kind: str
           ) -> tuple[list[dict[str, Any]], list[str]]:
    """Head's entries that base also declares, and a note for each one-sided name."""
    base_names = {entry["name"] for entry in base}
    head_names = {entry["name"] for entry in head}
    notes = [f"{kind} {name}: declared by {side} only"
             for side, names, other in (("base", base_names, head_names),
                                        ("head", head_names, base_names))
             for name in sorted(names - other)]
    return [entry for entry in head if entry["name"] in base_names], notes


def lost(better: str, base: float, head: float) -> bool:
    """True if head's value is worse than base's; a tie is not a loss."""
    return head > base if better == "lower" else head < base


def worsening(better: str, base: float, head: float) -> float:
    """How much worse head's value is than base's, relative to base (< 0: better)."""
    change = (head - base) / base
    return change if better == "lower" else -change


def broken(side: str, workload: str, runs: list[Run]) -> list[str]:
    """One line for each run that exited non-zero or printed no result line."""
    return [f"{workload}: {side} run at seed {seed} exited {run.code}"
            + ("" if run.result else " and printed no result line")
            for seed, run in enumerate(runs) if run.broken]


def judge(workload: str, metrics: list[dict[str, Any]], base_runs: list[Run],
          head_runs: list[Run]) -> tuple[list[Row], list[str], list[str]]:
    """Compare one workload's paired runs: ``(rows, head problems, base problems)``."""
    head_problems = broken("head", workload, head_runs)
    base_problems = broken("base", workload, base_runs)
    if head_problems or base_problems:
        return [], head_problems, base_problems
    base_results = [run.result for run in base_runs if run.result]
    head_results = [run.result for run in head_runs if run.result]
    failed = [sum(r["failed"] for r in results) for results in (base_results, head_results)]
    attempted = [sum(r["attempted"] for r in results) for results in (base_results, head_results)]
    if failed[1] * attempted[0] > failed[0] * attempted[1]:
        head_problems.append(f"{workload}: head failed {failed[1]} of {attempted[1]} "
                             f"operations, base {failed[0]} of {attempted[0]}")
    rows = []
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        base_values = [r["metrics"][name]["value"] for r in base_results]
        head_values = [r["metrics"][name]["value"] for r in head_results]
        losses = sum(lost(better, b, h) for b, h in zip(base_values, head_values, strict=True))
        base, head = statistics.median(base_values), statistics.median(head_values)
        regressed = losses == len(base_values) and worsening(better, base, head) > metric["bound"]
        row = Row(workload, name, base, head, (head - base) / base, losses,
                  "REGRESSED" if regressed else "ok")
        rows.append(row)
        if regressed:
            head_problems.append(f"{workload}: {name} lost all {losses} pairs and its median "
                                 f"moved {row.change:+.1%}, past the {metric['bound']:.0%} bound")
    return rows, head_problems, base_problems


def decide(base_spec: dict[str, Any], head_spec: dict[str, Any],
           runs: dict[str, tuple[list[Run], list[Run]]]) -> Verdict:
    """Judge the paired runs of every shared workload (``runs[name] = (base, head)``).

    Head's problems decide first (exit 1); only when head has none do base
    runs that could not be read make the gate unable to judge (exit 2).
    """
    workloads, not_gated = shared(base_spec["workloads"], head_spec["workloads"], "workload")
    metrics, metric_notes = shared(base_spec["end_to_end"], head_spec["end_to_end"], "metric")
    rows: list[Row] = []
    head_problems: list[str] = []
    base_problems: list[str] = []
    for workload in workloads:
        found = judge(workload["name"], metrics, *runs[workload["name"]])
        rows += found[0]
        head_problems += found[1]
        base_problems += found[2]
    code = 1 if head_problems else 2 if base_problems else 0
    digests = {w["name"]: equal_digests(*runs[w["name"]]) for w in workloads}
    return Verdict(code, rows, head_problems + base_problems, not_gated + metric_notes, digests)


def run_once(side: str, tree: Path, workload: str, seed: int) -> Run:
    """Run ``perfbench/run.py`` once in ``tree``, untraced, for :data:`SECONDS` seconds."""
    start = perf_counter()
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS)],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    print(f"  {workload:<22} {side}  seed {seed}  exit {child.returncode}  "
          f"{perf_counter() - start:5.1f} s", flush=True)
    if child.returncode:
        sys.stdout.write(child.stderr[-2000:])
    return parse_run(child.returncode, child.stdout)


def collect(base: Path, head: Path, workload: str) -> tuple[list[Run], list[Run]]:
    """One discarded warm-up per tree, then :data:`PAIRS` alternating pairs."""
    trees = {"base": base, "head": head}
    for side, tree in trees.items():
        run_once(side, tree, workload, 0)
    runs: dict[str, list[Run]] = {"base": [], "head": []}
    for seed in range(PAIRS):
        for side in ("base", "head") if seed % 2 == 0 else ("head", "base"):
            runs[side].append(run_once(side, trees[side], workload, seed))
    return runs["base"], runs["head"]


def report(verdict: Verdict) -> None:
    """Print the table, the problems and the JSON summary line."""
    print(f"\n{'workload':<22} {'metric':<16} {'base median':>14} {'head median':>14} "
          f"{'change':>8} {'lost':>5}  verdict")
    for row in verdict.rows:
        print(f"{row.workload:<22} {row.metric:<16} {row.base:>14.4f} {row.head:>14.4f} "
              f"{row.change:>+8.1%} {row.lost:>3}/{PAIRS}  {row.verdict}")
    for workload, equal in verdict.digests_equal.items():
        print(f"{workload}: digests equal in {equal}/{PAIRS} pairs")
    for note in verdict.not_gated:
        print(f"not gated: {note}")
    for problem in verdict.problems:
        print(f"problem: {problem}")
    print(json.dumps({"code": verdict.code, "problems": verdict.problems,
                      "not_gated": verdict.not_gated, "digests_equal": verdict.digests_equal,
                      "rows": [asdict(row) for row in verdict.rows]}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout of the base commit")
    parser.add_argument("head", type=Path, help="checkout of the commit under test")
    args = parser.parse_args(argv)
    base, head = args.base.resolve(), args.head.resolve()
    try:
        specs = [json.loads((tree / "BENCHMARK.json").read_text()) for tree in (base, head)]
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    workloads, _ = shared(specs[0]["workloads"], specs[1]["workloads"], "workload")
    print(f"{PAIRS} alternating pairs of `perfbench/run.py --seconds {SECONDS}` per workload, "
          f"base {base}, head {head}")
    runs = {w["name"]: collect(base, head, w["name"]) for w in workloads}
    verdict = decide(*specs, runs)
    report(verdict)
    return verdict.code


if __name__ == "__main__":
    sys.exit(main())
