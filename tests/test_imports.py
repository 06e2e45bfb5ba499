"""No module imports a name it never uses.

No linter runs with the suite, so this parses every file of ``src/``,
``tests/`` and ``perfbench/`` with :mod:`ast`. A package's ``__init__.py``
imports names to re-export them, and ``from __future__`` imports are
compiler directives, so neither counts.
"""
import ast
import os
import subprocess
import sys
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


# ``np.unique`` and other numpy functions import ``numpy.ma`` on their first
# call, which raises a process's resident set for good (+1.6 MB on numpy 2.4)
_NO_MASKED_ARRAYS = """
import sys
from uwbvo.cli import main
from uwbvo.config import default_pipeline_params
from uwbvo.pipeline import run_pipeline_live
from uwbvo.simulate import VoSensor, build_truth, simulate_pair, worst_case_scenario

out = sys.argv[1]
assert main(["simulate", "--scenario", "worst-case", "--seed", "0", "--out", out]) == 0
assert main(["run", "--logs", out, "--method", "all", "--seed", "0"]) == 0
assert main(["compare", out]) == 0
scenario = worst_case_scenario()
sensor = VoSensor(build_truth(scenario.plan), scenario.vo, 0)
uwb = simulate_pair(scenario, 0)[0].uwb
run_pipeline_live(uwb, sensor, scenario.plan, default_pipeline_params())
print("numpy.ma" in sys.modules)
"""


def test_a_worst_case_run_never_imports_numpy_ma(tmp_path):
    # a fresh process: the suite's other tests may have imported it here
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _NO_MASKED_ARRAYS, str(tmp_path / "runs")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout.splitlines()[-1] == "False"
