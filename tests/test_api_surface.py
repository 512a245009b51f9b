"""Every public function has a caller or a test, and every seam the
benchmark tracer wraps by name still exists.

A function listed in a module's ``__all__`` must be referenced from another
package module (the package ``__init__`` re-exports names and does not
count) or from a test.  A reference is a ``Name``, an ``Attribute`` or an
import alias.  Classes are out of scope: report types are built by their
producers and read field by field.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coneflow"
TESTS = ROOT / "tests"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exported_functions(tree: ast.Module) -> set:
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported = {ast.literal_eval(e) for e in node.value.elts}
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in exported}


def _references(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
            if node.asname:
                names.add(node.asname)
    return names


MODULES = {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py"))
           if p.name != "__init__.py"}
TEST_REFERENCES = set().union(*(_references(_parse(p))
                                for p in sorted(TESTS.glob("test_*.py"))))


@pytest.mark.parametrize("module", sorted(MODULES))
def test_public_functions_are_referenced(module):
    others = set().union(*(_references(tree) for name, tree in MODULES.items()
                           if name != module))
    unreferenced = sorted(_exported_functions(MODULES[module])
                          - others - TEST_REFERENCES)
    assert not unreferenced, (
        f"{module}.__all__ lists functions nothing calls or tests: "
        f"{', '.join(unreferenced)}")


def test_benchmark_tracer_installs():
    # perfbench/tracing.py wraps module attributes by name (flow.step,
    # flow.solve_banded, flow.splu, ...) and raises when one is bound
    # nowhere; install it in a fresh interpreter against this source tree
    path = [str(ROOT / "src"), str(ROOT / "perfbench"),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import tracing; tracing.install(tracing.Recorder())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
