"""Tests of the docs checker's module-path resolution (``tools/check_docs_links.py``)."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from tools.check_docs_links import (
    check_class_names,
    check_module_paths,
    main,
    resolve_module_path,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def tree(tmp_path: Path) -> Path:
    """A miniature repository: ``src/repro/simulation`` with two modules."""
    package = tmp_path / "src" / "repro" / "simulation"
    package.mkdir(parents=True)
    (package.parent / "__init__.py").write_text("")
    (package / "__init__.py").write_text("from repro.simulation.engine import EventScheduler\n")
    (package / "engine.py").write_text(
        textwrap.dedent(
            """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from collections.abc import Callable

            LIMIT: int = 10

            class EventScheduler:
                horizon = 1.0

                def run(self) -> None:
                    self.clock = 0.0
            """
        )
    )
    (tmp_path / "docs").mkdir()
    return tmp_path


@pytest.mark.parametrize(
    "dotted",
    [
        "simulation.engine",
        "repro.simulation",
        "repro.simulation.engine",
        "simulation.engine.LIMIT",
        "simulation.engine.Callable",
        "simulation.engine.EventScheduler.run",
        "simulation.engine.EventScheduler.horizon",
        "simulation.EventScheduler",
        "simulation.__init__",
    ],
)
def test_resolves_modules_and_their_names(tree, dotted):
    assert resolve_module_path(dotted, tree / "src")


@pytest.mark.parametrize(
    "dotted",
    [
        "simulation.events",
        "simulation.engine.Scheduler",
        "simulation.engine.EventScheduler.stop",
        "simulation.engine.EventScheduler.clock",  # set on an instance, not the class
        "repro.simulation.engine.self",
    ],
)
def test_rejects_names_that_do_not_exist(tree, dotted):
    assert not resolve_module_path(dotted, tree / "src")


def test_planted_bad_name_fails(tree):
    (tree / "README.md").write_text("Runs on `simulation.engine`, not `repro.simulation.events`.")
    (tree / "docs" / "GUIDE.md").write_text("See `simulation.timeplane`; `events` is prose.")
    problems = check_module_paths(tree)
    assert len(problems) == 2
    assert "README.md: `repro.simulation.events`" in problems[0]
    assert "docs/GUIDE.md: `simulation.timeplane`" in problems[1]


def test_spans_that_are_not_package_paths_are_ignored(tree):
    (tree / "README.md").write_text(
        "`simulation` `numpy.unique` `simulation.engine.EventScheduler.run()` `np.unique`\n"
    )
    assert check_module_paths(tree) == []


def test_live_docs_resolve():
    assert check_module_paths(REPO_ROOT) == []
    assert check_class_names(REPO_ROOT) == []


@pytest.fixture
def named_tree(tree: Path) -> Path:
    """The miniature repository plus a subclass, a test class and a tool class."""
    (tree / "src" / "repro" / "simulation" / "replay.py").write_text(
        "from repro.simulation.engine import EventScheduler\n\n"
        "class ReplayScheduler(EventScheduler):\n    def replay(self) -> None: ...\n"
    )
    (tree / "tests").mkdir()
    (tree / "tests" / "test_engine.py").write_text("class TestEventScheduler:\n    pass\n")
    (tree / "tools").mkdir()
    (tree / "tools" / "gate.py").write_text("class GateReport:\n    rows = ()\n")
    return tree


def test_class_names_resolve_across_src_tests_tools_and_builtins(named_tree):
    (named_tree / "README.md").write_text(
        "`EventScheduler` `EventScheduler.run` `EventScheduler.horizon` "
        "`ReplayScheduler.replay` `ReplayScheduler.run` `TestEventScheduler` "
        "`GateReport.rows` `ValueError` `ValueError.args` `None`\n"
    )
    assert check_class_names(named_tree) == []


def test_planted_deleted_class_fails(named_tree):
    (named_tree / "README.md").write_text("`EventScheduler` was `EventQueue`.")
    (named_tree / "docs" / "GUIDE.md").write_text(
        "`ReplayScheduler.rewind`, `EventScheduler.clock`, `KeyError.nope`"
    )
    problems = check_class_names(named_tree)
    assert [p.split(":")[0] for p in problems] == ["README.md", *["docs/GUIDE.md"] * 3]
    for name in ("EventQueue", "ReplayScheduler.rewind", "EventScheduler.clock", "KeyError.nope"):
        assert sum(f"`{name}` names no class" in p for p in problems) == 1


def test_file_names_letters_and_constants_are_skipped(named_tree):
    (named_tree / "README.md").write_text(
        "`BENCHMARK.json` `Makefile.yml` `R` `P` `PAIRS` `MAX_MEMBERS.size` "
        "`EventScheduler.run()` `lowercase_name`\n"
    )
    assert check_class_names(named_tree) == []


def test_live_checker_passes(capsys):
    assert main() == 0
    assert "module paths resolve" in capsys.readouterr().out
