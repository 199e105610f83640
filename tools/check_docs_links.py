#!/usr/bin/env python
"""Check that relative links in the repository's markdown docs resolve.

Scans ``README.md``, ``docs/*.md``, and the other top-level markdown files
for inline markdown links (``[text](target)``) and verifies that every
relative target exists in the working tree.  External links (``http(s)://``,
``mailto:``) are skipped — CI must not depend on the network — and pure
in-page anchors (``#section``) are checked against the headings of the file
that contains them.

Beyond links, the checker cross-references the "Static invariants" section
of ``docs/ARCHITECTURE.md`` against the live ``tools.lint`` rule inventory:
every ``RLxxx`` rule must have a documentation entry and every documented
code must exist, so the docs cannot drift from the checker.

It also resolves every backticked dotted path into the package in
``README.md`` and ``docs/*.md`` — a path starting with one of the
:data:`SUBPACKAGES` (``simulation.latency``), with or without a leading
``repro.`` (``repro.utils.sampling.unique_unseen``).  A path resolves when it
names a module under ``src/repro`` or a name that module (or a class in it)
defines.  A backticked CamelCase name (``Transport``) or class attribute
(``Transport.send``) in the same files must name something defined under
``src/repro``, ``tests/`` or ``tools/`` (an attribute of the class or of a
class it inherits from by name), or a builtin.  File names
(``BENCHMARK.json``), single letters and ALL-CAPS constants are skipped.
Resolution reads the source with :mod:`ast`, so the check imports nothing
and needs no third-party package.

Exit status: 0 when every link and module path resolves, 1 otherwise (one
line per problem).  Run from the repository root:
``python tools/check_docs_links.py``.
"""

from __future__ import annotations

import ast
import builtins
import re
import sys
from collections import defaultdict
from collections.abc import Iterator
from pathlib import Path

#: Inline markdown links, non-greedy so adjacent links don't merge.
LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: ATX headings, for anchor validation.
HEADING_PATTERN = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def github_anchor(heading: str) -> str:
    """Return the GitHub-style anchor slug of one heading text."""
    heading = re.sub(r"[`*_]", "", heading.strip().lower())
    heading = re.sub(r"[^\w\- ]", "", heading)
    return heading.replace(" ", "-")


def collect_markdown_files(root: Path) -> list:
    """Return the markdown files to scan: top-level ``*.md`` plus ``docs/``."""
    files = sorted(root.glob("*.md"))
    docs = root / "docs"
    if docs.is_dir():
        files.extend(sorted(docs.rglob("*.md")))
    return files


def check_file(path: Path, root: Path) -> list:
    """Return the broken links of one markdown file as problem strings."""
    text = path.read_text(encoding="utf-8")
    anchors = {github_anchor(h) for h in HEADING_PATTERN.findall(text)}
    problems = []
    for match in LINK_PATTERN.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        base, _, fragment = target.partition("#")
        if not base:
            if fragment and github_anchor(fragment) not in anchors:
                problems.append(f"{path.relative_to(root)}: broken anchor #{fragment}")
            continue
        resolved = (path.parent / base).resolve()
        if not resolved.exists():
            problems.append(f"{path.relative_to(root)}: broken link {target}")
    return problems


#: Bold rule entries in the "Static invariants" docs section, e.g. ``**RL001``.
RULE_ENTRY_PATTERN = re.compile(r"\*\*(RL\d{3})\b")


def check_static_invariants_section(root: Path) -> list:
    """Cross-check docs/ARCHITECTURE.md's rule entries against tools.lint.

    Every rule shipped by ``tools.lint.rules.ALL_RULES`` must have a
    ``**RLxxx`` entry in the "Static invariants" section, and every
    documented code must correspond to a shipped rule.
    """
    architecture = root / "docs" / "ARCHITECTURE.md"
    if not architecture.is_file():
        return []
    text = architecture.read_text(encoding="utf-8")
    problems = []
    if "Static invariants" not in text:
        return ["docs/ARCHITECTURE.md: missing the 'Static invariants' section"]
    documented = set(RULE_ENTRY_PATTERN.findall(text))
    sys.path.insert(0, str(root))
    try:
        from tools.lint.rules import ALL_RULES
    finally:
        sys.path.pop(0)
    shipped = {rule.code for rule in ALL_RULES}
    for code in sorted(shipped - documented):
        problems.append(
            f"docs/ARCHITECTURE.md: repro-lint rule {code} is shipped but has no "
            "entry in the 'Static invariants' section"
        )
    for code in sorted(documented - shipped):
        problems.append(
            f"docs/ARCHITECTURE.md: 'Static invariants' documents {code}, which "
            "tools.lint does not ship"
        )
    return problems


#: Subpackages of ``repro`` whose dotted paths the docs must spell correctly.
SUBPACKAGES = (
    "simulation",
    "protocols",
    "core",
    "graphs",
    "serving",
    "analysis",
    "experiments",
    "utils",
)

_NAMES = "|".join(SUBPACKAGES)
#: A whole backticked span that is a dotted path into one of the subpackages.
MODULE_PATH_PATTERN = re.compile(rf"`(repro\.(?:{_NAMES})(?:\.\w+)*|(?:{_NAMES})(?:\.\w+)+)`")


def _defined(body: list[ast.stmt]) -> Iterator[tuple[str, ast.stmt]]:
    """Yield ``(name, node)`` for every name a block of statements binds."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Store):
                        yield leaf.id, node
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            nested = [*node.body, *getattr(node, "orelse", []), *getattr(node, "finalbody", [])]
            for handler in getattr(node, "handlers", []):
                nested.extend(handler.body)
            yield from _defined(nested)


def _binds(body: list[ast.stmt], attributes: list[str]) -> bool:
    """True if ``body`` binds ``attributes[0]``, and each class the rest in turn."""
    for attribute in attributes:
        node = dict(_defined(body)).get(attribute)
        if node is None:
            return False
        if not isinstance(node, ast.ClassDef):
            return True  # a function or value: nothing further to read statically
        body = node.body
    return True


def _defines(module: Path, attributes: list[str]) -> bool:
    """True if ``module`` binds ``attributes[0]``, and each class the rest in turn."""
    return _binds(ast.parse(module.read_text(encoding="utf-8")).body, attributes)


def resolve_module_path(dotted: str, src: Path) -> bool:
    """True if ``dotted`` names a module under ``src/repro`` or a name defined in one."""
    parts = dotted.split(".")
    if parts[0] == "repro":
        parts = parts[1:]
    path = src / "repro"
    while parts and (path / parts[0] / "__init__.py").is_file():
        path = path / parts.pop(0)
    if parts and (path / f"{parts[0]}.py").is_file():
        module = path / f"{parts.pop(0)}.py"
    else:
        module = path / "__init__.py"
    return _defines(module, parts)


def check_module_paths(root: Path) -> list:
    """Return the backticked package paths in README.md and docs/ that do not resolve."""
    files = [root / "README.md", *sorted((root / "docs").glob("*.md"))]
    problems = []
    for path in files:
        if not path.is_file():
            continue
        for match in MODULE_PATH_PATTERN.finditer(path.read_text(encoding="utf-8")):
            if not resolve_module_path(match.group(1), root / "src"):
                problems.append(
                    f"{path.relative_to(root)}: `{match.group(1)}` names no module or "
                    "attribute under src/repro"
                )
    return problems


#: A whole backticked span that starts with a capital: ``Transport.send``.
CLASS_NAME_PATTERN = re.compile(r"`([A-Z]\w*(?:\.\w+)*)`")

#: Suffixes that make a span a file name rather than a class.
FILE_SUFFIX_PATTERN = re.compile(r"\.(?:json|md|py|txt|toml|ya?ml|npz|cfg|csv)$")

#: The trees whose definitions a CamelCase name may resolve to.
NAME_ROOTS = ("src/repro", "tests", "tools")


class NameIndex:
    """Every name bound at module level under some trees, and every class by name."""

    def __init__(self, roots: list[Path]) -> None:
        self.bound: set[str] = set()
        self.classes: defaultdict[str, list[ast.ClassDef]] = defaultdict(list)
        for root in roots:
            for path in sorted(root.rglob("*.py")):
                tree = ast.parse(path.read_text(encoding="utf-8"))
                self.bound.update(name for name, _ in _defined(tree.body))
                for node in ast.walk(tree):
                    if isinstance(node, ast.ClassDef):
                        self.classes[node.name].append(node)

    def class_binds(self, cls: ast.ClassDef, attributes: list[str]) -> bool:
        """True if ``cls`` or a class it inherits from by name binds the attribute chain."""
        todo, seen = [cls], set()
        while todo:
            node = todo.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if _binds(node.body, attributes):
                return True
            todo.extend(base_cls for base in node.bases if isinstance(base, ast.Name)
                        for base_cls in self.classes.get(base.id, []))
        return False

    def resolves(self, span: str) -> bool:
        """True if a CamelCase ``Name`` or ``Name.attr...`` names something defined."""
        head, *attributes = span.split(".")
        if head in self.classes:
            return any(self.class_binds(cls, attributes) for cls in self.classes[head])
        if head in self.bound:
            return True  # a function, value or import: nothing further to read statically
        if hasattr(builtins, head):
            value = getattr(builtins, head)
            for attribute in attributes:
                if not hasattr(value, attribute):
                    return False
                value = getattr(value, attribute)
            return True
        return False


def is_class_name(span: str) -> bool:
    """True unless ``span`` is a file name, a single letter or an ALL-CAPS constant."""
    head = span.split(".")[0]
    return len(head) > 1 and not head.isupper() and not FILE_SUFFIX_PATTERN.search(span)


def check_class_names(root: Path) -> list:
    """Return the backticked CamelCase names in README.md and docs/ that name nothing."""
    files = [root / "README.md", *sorted((root / "docs").glob("*.md"))]
    index = NameIndex([root / name for name in NAME_ROOTS if (root / name).is_dir()])
    problems = []
    for path in files:
        if not path.is_file():
            continue
        for match in CLASS_NAME_PATTERN.finditer(path.read_text(encoding="utf-8")):
            span = match.group(1)
            if is_class_name(span) and not index.resolves(span):
                problems.append(
                    f"{path.relative_to(root)}: `{span}` names no class or attribute "
                    "defined under src/repro, tests/ or tools/, nor a builtin"
                )
    return problems


def main() -> int:
    root = Path(__file__).resolve().parents[1]
    files = collect_markdown_files(root)
    problems = []
    for path in files:
        problems.extend(check_file(path, root))
    problems.extend(check_static_invariants_section(root))
    problems.extend(check_module_paths(root))
    problems.extend(check_class_names(root))
    print(f"checked {len(files)} markdown file(s)")
    if problems:
        for problem in problems:
            print(f"  BROKEN: {problem}")
        return 1
    print("all relative links, class names and module paths resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
