"""Command-line entry point of ``repro-lint``.

Run it from the repository root over CI's paths::

    python -m tools.lint src perfbench tests/reference examples tools

Exit codes: 0 when clean, 1 when violations were found, 2 on usage errors
(unknown rule code, missing path, unparseable file).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from tools.lint.engine import lint_paths
from tools.lint.rules import ALL_RULES


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.lint",
        description="repro-lint: static invariant checker for the simulation stack",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to scan (directories recurse over *.py)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule codes to run (default: all rules)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule codes with their one-line summaries and exit",
    )
    options = parser.parse_args(argv)

    if options.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code}  {rule.summary}")
        return 0
    if not options.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given (try: python -m tools.lint src perfbench tests/reference examples tools)", file=sys.stderr)
        return 2
    missing = [path for path in options.paths if not path.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    select = None
    if options.select is not None:
        select = [code.strip() for code in options.select.split(",") if code.strip()]
    try:
        violations = lint_paths(options.paths, select=select)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except SyntaxError as error:
        print(f"error: cannot parse {error.filename}:{error.lineno}: {error.msg}", file=sys.stderr)
        return 2

    for violation in violations:
        print(violation.render())
    if violations:
        count = len(violations)
        plural = "s" if count != 1 else ""
        print(f"repro-lint: {count} violation{plural} found", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
