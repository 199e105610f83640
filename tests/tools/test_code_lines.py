"""Tests of the code-line counter (``tools/code_lines.py``)."""

from __future__ import annotations

from pathlib import Path

from tools.code_lines import count_code_lines, main

#: Nine code lines: ``import os``, ``def f(x):``, the three lines of the
#: string bound to ``text``, the two lines of the ``return``, ``class C:``
#: and ``value = 1``.  Blanks, comments and the three docstrings do not count.
FIXTURE = '''\
"""Module docstring.

It spans four lines.
"""

import os  # a trailing comment

# A comment line.


def f(x):
    """One-line function docstring."""
    text = """a multi-line
string that is not
a docstring"""
    return (x,
            text)


class C:
    """Class docstring,
    on two lines."""

    value = 1
'''


def test_fixture_count():
    assert count_code_lines(FIXTURE) == 9


def test_only_docstrings_are_dropped():
    # The same string as the first statement of a body is a docstring; after
    # another statement it is code.
    assert count_code_lines('def f():\n    """doc"""\n') == 1
    assert count_code_lines('def f():\n    pass\n    """not doc"""\n') == 3


def test_main_prints_each_file_and_the_total(tmp_path: Path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "b.py").write_text("x = 1\n\n# comment\ny = 2\n")
    (package / "notes.txt").write_text("not python\n")

    assert main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["9", str(tmp_path / "a.py")],
        ["2", str(package / "b.py")],
        ["11", "total"],
    ]


def test_main_without_paths_is_a_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err
