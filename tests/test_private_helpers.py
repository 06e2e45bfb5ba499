"""Every private module-level name of ``src/`` is read by ``src/`` itself.

A ``_``-prefixed function, class or constant that only tests read is a
helper kept for the tests: it belongs in ``tests/``, or it is dead. This
parses every file of ``src/`` with :mod:`ast` and requires each such name
to be loaded somewhere in ``src/`` outside its own definition, as a plain
name, as an attribute (``module._name``) or inside a quoted annotation.
Dunder names are the language's, not helpers, and do not count.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))


def defined_names(node: ast.stmt) -> list[str]:
    """The ``_``-prefixed names a module-level statement defines."""
    if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
        names = [node.name]
    elif isinstance(node, ast.Assign | ast.AnnAssign):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def loaded_names(tree: ast.AST) -> set[str]:
    """Each name ``tree`` loads, as a name, an attribute or in a quoted annotation."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.arg | ast.AnnAssign) and node.annotation:
            read |= quoted_names(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            read |= quoted_names(node.returns)
    return read


def quoted_names(annotation: ast.expr) -> set[str]:
    return {
        name
        for node in ast.walk(annotation)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for name in loaded_names(ast.parse(node.value, mode="eval"))
    }


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``file: name`` of each private module-level name of ``sources`` (file
    name to text) that no file loads outside the name's own definition."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    unread = []
    for file, tree in trees.items():
        for definition in tree.body:
            if not defined_names(definition):
                continue
            elsewhere = set()
            for other, other_tree in trees.items():
                body = other_tree.body
                if other == file:
                    body = [node for node in body if node is not definition]
                elsewhere |= loaded_names(ast.Module(body=body, type_ignores=[]))
            unread += [f"{file}: {n}" for n in defined_names(definition) if n not in elsewhere]
    return sorted(unread)


def test_checker_finds_an_unread_private_name():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_LOW, _HIGH = 1, 2\n"
            "_UNUSED: int = 4\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else _LIMIT + _LOW\n"
            "class _Shape:\n"
            "    pass\n"
            "def _typed() -> '_Shape':\n"
            "    pass\n"
            "__all__ = ['f']\n"
        ),
        "b.py": "import a\ndef f():\n    return a._typed()\n",
    }
    assert unread_private_names(sources) == ["a.py: _HIGH", "a.py: _UNUSED", "a.py: _recursive"]


def test_every_private_name_of_src_is_read_by_src():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in SOURCES}
    count = sum(len(defined_names(d)) for text in sources.values() for d in ast.parse(text).body)
    assert count >= 60  # the check reaches the names, not an empty set
    assert unread_private_names(sources) == []
