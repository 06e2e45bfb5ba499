"""No module imports a name it never uses.

No linter runs with the suite, so this parses every file of ``src/``,
``tests/`` and ``perfbench/`` with :mod:`ast`. A package's ``__init__.py``
imports names to re-export them, and ``from __future__`` imports are
compiler directives, so neither counts.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for folder in ("src", "tests", "perfbench")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) of each name ``source`` imports and never reads.

    A name counts as read wherever it is loaded, including inside a quoted
    annotation such as ``-> "Stream"``.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.arg | ast.AnnAssign) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            annotations.append(node.returns)
    trees = [tree]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    read = {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted((name, line) for name, line in imported.items() if name not in read)


def test_checker_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "from typing import Iterator, Sequence\n"
        "def f(a: 'Sequence[int]') -> None:\n"
        "    os.path.join(*a)\n"
    )
    assert unused_imports(source) == [("Iterator", 4), ("sys", 3)]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in SOURCES
        for name, line in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []
