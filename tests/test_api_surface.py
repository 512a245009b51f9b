"""Every public function and class has a product caller, every ``__all__``
entry names an attribute, every seam the benchmark tracer wraps by name
still exists, every package import sits at module top, every defaulted
parameter no caller sets has a stated reason to stay a parameter, and every
record field has a reader.

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
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coneflow.experiments import SCENARIOS

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


def test_every_all_entry_exists():
    # ``import coneflow`` reads no ``__all__`` and the reference scan above
    # skips names it cannot find, so a stale entry would pass both
    stale = []
    for name in ["coneflow", *(f"coneflow.{m}" for m in MODULES)]:
        module = importlib.import_module(name)
        stale += [f"{name}.{entry}" for entry in getattr(module, "__all__", ())
                  if not hasattr(module, entry)]
    assert not stale, f"__all__ entries naming no attribute: {', '.join(stale)}"


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


# -- the import graph -----------------------------------------------------------
# Every package import sits at module top, so the import graph is the one
# the module heads show, and it has no cycle a function body hides: errors
# and geometry, then cones, flow, expander, analysis, barriers, experiments,
# acceptance and cli.  The stepper measures nothing of the expander or the
# cone; its callers do, through ``evolve``'s ``on_step``.


def test_no_import_inside_a_function():
    nested = sorted(
        f"{name}.py:{node.lineno} in {fn.name}"
        for name, tree in MODULES.items() for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert not nested, f"imports inside function bodies: {', '.join(nested)}"


def test_flow_imports_neither_expander_nor_cones():
    imported = set()
    for node in ast.walk(MODULES["flow"]):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported |= ({node.module} if node.module
                         else {alias.name for alias in node.names})
    assert not imported & {"expander", "cones"}, imported


# -- defaulted parameters that no caller sets ---------------------------------
# A parameter with a default that no call site in src/ or perfbench/*.py
# passes, by keyword or by position, is an option nothing varies: it becomes
# a constant unless this list keeps it.  Tests do not count as callers.  An
# entry is (file, callee, parameter); "*" stands for every callee of the file
# or every parameter of the callee.
UNSET_KEEP = {
    # the scenario runners: Scenario.run(quick, **settings) hands them the
    # quick settings and `experiment --set` every parameter, through ** where
    # the scan sees no parameter (each a scalar, checked in the test below)
    ("experiments.py", "run_main_theorem", "*"),
    ("experiments.py", "run_family_uniform", "*"),
    ("experiments.py", "subsolution_dominance_experiment", "*"),
    # each criterion's quick flag, which run_acceptance passes positionally
    # to the functions of its CRITERIA table
    ("acceptance.py", "*", "quick"),
}


def _scoped(path: Path):
    """(enclosing top-level class or None, node) for every node of a file."""
    for top in _parse(path).body:
        owner = top.name if isinstance(top, ast.ClassDef) else None
        yield from ((owner, node) for node in ast.walk(top))


def _unset_defaults() -> tuple:
    """(unset, settable): the (file, callee, parameter) triples of the
    package's defaulted parameters and dataclass init fields that no call
    site passes, and the number of all of them.  Callees are matched by name
    only, and a field counts as set by any ``replace(..., field=...)``."""
    src = sorted(PACKAGE.glob("*.py"))
    callers = src + [p for p in sorted(PERFBENCH.glob("*.py"))
                     if not p.name.startswith("test_")]
    settable = {}  # (file, callee, parameter) -> (positional index, field?)
    for path in src:
        for owner, node in _scoped(path):
            if isinstance(node, ast.FunctionDef):
                a = node.args
                fn = owner if node.name == "__init__" else node.name
                pos = [p.arg for p in a.posonlyargs + a.args if p.arg not in ("self", "cls")]
                for i in range(len(pos) - len(a.defaults), len(pos)):
                    settable[path.name, fn, pos[i]] = (i, False)
                settable.update({(path.name, fn, p.arg): (None, False)
                                 for p, d in zip(a.kwonlyargs, a.kw_defaults) if d})
            elif isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                          and "init=False" not in ast.unparse(s)]
                for i, s in enumerate(fields):
                    if s.value is not None:
                        settable[path.name, node.name, s.target.id] = (i, True)
    passed = set()  # (callee, keyword or positional index) of every call
    for path in callers:
        for owner, call in _scoped(path):
            if isinstance(call, ast.Call):
                f = call.func
                callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                callee = owner if callee == "cls" else callee
                passed |= {(callee, kw.arg) for kw in call.keywords}
                passed |= {(callee, i) for i in range(len(call.args))}
    unset = {(file, fn, name) for (file, fn, name), (i, field) in settable.items()
             if not {(fn, name), (fn, i)} & passed
             and not (field and ("replace", name) in passed)}
    return unset, len(settable)


def _keys(file, fn, name) -> set:
    """The keep entries that would cover one parameter."""
    return {(file, fn, name), (file, fn, "*"), (file, "*", name)}


def test_every_unset_default_has_a_keep_reason():
    unset, settable = _unset_defaults()
    loose = sorted(f"{file} {fn}({name}=...)" for file, fn, name in unset
                   if not _keys(file, fn, name) & UNSET_KEEP)
    assert not loose, (
        f"{len(unset)} of {settable} defaulted parameters are set by no call "
        f"site; make these constants or keep them with a reason: {', '.join(loose)}")
    # no keep entry outlives what it kept
    stale = UNSET_KEEP - set().union(*(_keys(*p) for p in unset))
    assert not stale, f"keep entries that match no unset parameter: {stale}"
    # the README states the scan's count
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    claim = f"the scan finds {len(unset)} of {settable} defaulted parameters"
    assert claim in readme, f"README.md does not say: {claim}"
    # --set types a runner's setting from its default, so every parameter
    # of a runner is a scalar, quick settings included
    for scenario in SCENARIOS.values():
        for name, par in inspect.signature(scenario.function()).parameters.items():
            assert isinstance(par.default, (bool, int, float, str)), (
                f"{scenario.runner}({name}=...) has no scalar default, so "
                "--set cannot type it")


# -- record fields that no code reads -----------------------------------------
# A field of a package record (a dataclass or a NamedTuple) must be read:
# some attribute load in src/ or perfbench/*.py names it.  Tests do not count
# as readers, and names are matched alone, so a load of another record's
# field of the same name counts too.  An entry is (record, field).
FIELD_KEEP: set = set()  # no field is kept unread


def _record_fields() -> set:
    """(record, field) of every annotated field of a package dataclass or
    NamedTuple."""
    fields = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef) and (
                    any("dataclass" in ast.unparse(d) for d in node.decorator_list)
                    or any(ast.unparse(b) == "NamedTuple" for b in node.bases)):
                fields |= {(node.name, s.target.id) for s in node.body
                           if isinstance(s, ast.AnnAssign)
                           and isinstance(s.target, ast.Name)}
    return fields


def test_every_record_field_has_a_reader():
    readers = [*sorted(PACKAGE.glob("*.py")),
               *(p for p in sorted(PERFBENCH.glob("*.py"))
                 if not p.name.startswith("test_"))]
    loaded = {node.attr for path in readers for node in ast.walk(_parse(path))
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = _record_fields()
    unread = sorted(f"{record}.{name}" for record, name in fields - FIELD_KEEP
                    if name not in loaded)
    assert not unread, (
        f"record fields that no code in src/ or perfbench/ reads; delete them "
        f"or keep them with a reason: {', '.join(unread)}")
    # no keep entry outlives what it kept
    stale = {entry for entry in FIELD_KEEP
             if entry not in fields or entry[1] in loaded}
    assert not stale, f"keep entries that match no unread field: {stale}"
