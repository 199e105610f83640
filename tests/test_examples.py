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
