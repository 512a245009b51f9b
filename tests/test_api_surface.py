"""Every public function and class has a product caller, and every seam the
benchmark tracer wraps by name still exists.

A function or class listed in a module's ``__all__`` must be referenced by
package code outside its own definition (the package ``__init__`` re-exports
names and does not count) or by the benchmark's modules ``perfbench/*.py``
(its smoke test does not count).  A test alone does not keep a name alive:
code that only tests reach is deleted with its tests.  A reference is a
``Name``, an ``Attribute``, an import alias or an identifier string, such as
a seam the tracer wraps by name or a runner ``experiments.SCENARIOS`` looks
up; the strings of ``__all__`` itself do not count.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coneflow"
PERFBENCH = ROOT / "perfbench"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_all(node: ast.AST) -> bool:
    return (isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets))


def _exported(tree: ast.Module) -> dict:
    """Top-level function and class definitions listed in ``__all__``."""
    exported = set()
    for node in tree.body:
        if _is_all(node):
            exported = {ast.literal_eval(e) for e in node.value.elts}
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name in exported}


def _references(node: ast.AST) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
            if sub.asname:
                names.add(sub.asname)
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                and sub.value.isidentifier()):
            names.add(sub.value)
    return names


MODULES = {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py"))
           if p.name != "__init__.py"}
# references of each top-level statement, per module, without __all__
TOP_REFERENCES = {name: [(node, _references(node)) for node in tree.body
                         if not _is_all(node)]
                  for name, tree in MODULES.items()}
BENCH_REFERENCES = set().union(*(_references(_parse(p))
                                 for p in sorted(PERFBENCH.glob("*.py"))
                                 if not p.name.startswith("test_")))


@pytest.mark.parametrize("module", sorted(MODULES))
def test_public_functions_are_referenced(module):
    others = set().union(BENCH_REFERENCES, *(
        refs for name, tops in TOP_REFERENCES.items() if name != module
        for _, refs in tops))
    unused = sorted(
        name for name, definition in _exported(MODULES[module]).items()
        if name not in others
        and not any(name in refs for node, refs in TOP_REFERENCES[module]
                    if node is not definition))
    assert not unused, (
        f"{module}.__all__ lists names no product code or benchmark uses: "
        f"{', '.join(unused)}")


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
