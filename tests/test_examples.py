"""Smoke tests for the example scripts.

Every example must at least compile; the cheap ones are executed end-to-end
so the documented quickstart workflow cannot silently rot.
"""

from __future__ import annotations

import py_compile
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def example_paths() -> list[Path]:
    return sorted(EXAMPLES_DIR.glob("*.py"))


class TestExamples:
    def test_examples_directory_present(self):
        assert EXAMPLES_DIR.is_dir()
        assert len(example_paths()) >= 3

    @pytest.mark.parametrize("path", example_paths(), ids=lambda p: p.name)
    def test_examples_compile(self, path):
        py_compile.compile(str(path), doraise=True)

    def test_quickstart_runs(self, capsys):
        runpy.run_path(str(EXAMPLES_DIR / "quickstart.py"), run_name="__main__")
        out = capsys.readouterr().out
        assert "analytical reliability" in out
        assert "simulated mean reliability" in out

    def test_compare_protocols_runs(self, capsys):
        runpy.run_path(str(EXAMPLES_DIR / "compare_protocols.py"), run_name="__main__")
        out = capsys.readouterr().out
        for label in (
            "paper's random-fanout gossip",
            "traditional fixed-fanout gossip",
            "pbcast (broadcast + anti-entropy)",
            "lpbcast (partial views)",
            "route driven gossip (push/pull)",
            "flooding (upper bound)",
        ):
            rows = [line.split(label, 1)[1] for line in out.splitlines() if label in line]
            assert len(rows) == 1, label
            # reliability, atomic rate, messages per member, rounds
            values = [float(value) for value in rows[0].split()]
            assert len(values) == 4, label
            assert 0.0 < values[0] <= 1.0, label

    def test_fanout_distribution_study_runs(self, capsys):
        runpy.run_path(str(EXAMPLES_DIR / "fanout_distribution_study.py"), run_name="__main__")
        out = capsys.readouterr().out
        # label -> q_c = 1 / G1'(1) at mean fanout 4 (Eq. 3)
        critical = {
            "fixed(4)": 1.0 / 3.0,
            "uniform(2..6)": 2.0 / 7.0,
            "poisson(4)": 0.25,
            "geometric(mean 4)": 0.125,
        }
        for label, q_c in critical.items():
            rows = [
                line.split(label, 1)[1]
                for line in out.splitlines()
                if line.strip().startswith(label)
            ]
            assert len(rows) == 1, label
            # mean, q_c, model S, take-off rate, reached given take-off
            mean, ratio, model, take_off, reached = (float(v) for v in rows[0].split())
            assert mean == pytest.approx(4.0), label
            assert ratio == pytest.approx(q_c, abs=5e-4), label
            assert 0.0 < model <= 1.0 and 0.0 < take_off <= 1.0, label
            # Targets are uniform, so given take-off every shape reaches the
            # Poisson fixed point at q = 0.9 (about 0.969).
            assert reached == pytest.approx(0.969, abs=0.02), label

    def test_plan_fault_tolerant_multicast_runs(self, capsys):
        from repro import mean_fanout_for_reliability, min_executions

        runpy.run_path(
            str(EXAMPLES_DIR / "plan_fault_tolerant_multicast.py"), run_name="__main__"
        )
        out = capsys.readouterr().out

        def value(prefix: str) -> float:
            lines = [line for line in out.splitlines() if line.startswith(prefix)]
            assert len(lines) == 1, prefix
            return float(lines[0].rsplit(maxsplit=1)[-1])

        assert value("2. Eq. 12") == pytest.approx(
            mean_fanout_for_reliability(0.99, 0.8), abs=0.005
        )
        assert value("3. Eq. 6") == min_executions(0.9999, 0.99)
        analytical = value("analytical reliability")
        assert analytical == pytest.approx(0.99, abs=1e-4)
        assert value("simulated mean reliability") == pytest.approx(analytical, abs=0.02)

    def test_reproduce_figures_analytical_path(self, capsys):
        script = EXAMPLES_DIR / "reproduce_figures.py"
        argv_backup = sys.argv
        try:
            sys.argv = [str(script), "fig3"]
            with pytest.raises(SystemExit) as excinfo:
                runpy.run_path(str(script), run_name="__main__")
            assert excinfo.value.code == 0
        finally:
            sys.argv = argv_backup
        assert "fig3" in capsys.readouterr().out
