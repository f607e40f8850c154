"""Import hygiene of the package, checked with the standard library's
``ast`` (no linter is a dependency): every imported name is used or
re-exported, and every ``__all__`` entry is bound.  A function given a
metric reads its grid from it.  README.md's backticked references to
the package's modules name what exists."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "smcf").glob("*.py"))
MODULES = ("spectral", "geometry", "gauge_elliptic", "evolution", "immersion",
           "norms", "cli")
README_REFERENCE = re.compile(r"`((?:%s)\.[^`]*)`" % "|".join(MODULES))


def imported_names(tree):
    """{bound name: line} of every import, ``from __future__`` excepted."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def exported_names(tree):
    """The string entries of a module-level ``__all__``, or ()."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def bound_names(tree):
    """The names the module body binds: definitions, assignments and
    imports, also inside its top-level if/try blocks."""
    names, todo = set(), list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(imported_names(ast.Module(body=[node], type_ignores=[])))
        elif isinstance(node, (ast.If, ast.Try)):
            todo += node.body + node.orelse + getattr(node, "finalbody", []) \
                + [stmt for h in getattr(node, "handlers", []) for stmt in h.body]
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
class TestImportHygiene:
    def test_every_import_is_used_or_exported(self, path):
        tree = ast.parse(path.read_text(), filename=str(path))
        keep = used_names(tree) | set(exported_names(tree))
        unused = {name: line for name, line in imported_names(tree).items()
                  if name not in keep}
        assert not unused, f"{path.name}: imported but unused {unused}"

    def test_every_export_is_bound(self, path):
        tree = ast.parse(path.read_text(), filename=str(path))
        unbound = set(exported_names(tree)) - bound_names(tree)
        assert not unbound, f"{path.name}: __all__ lists unbound {sorted(unbound)}"


def grid_beside_metric(tree):
    """The names of the functions whose parameters include ``grid`` and
    ``metric`` or ``m``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            if "grid" in params and params & {"metric", "m"}:
                found.append(node.name)
    return found


def test_no_grid_beside_a_metric():
    """A ``MetricField`` carries its grid, so no function takes a second
    one that could name a different box."""
    found = {path.name: names for path in SOURCES
             if (names := grid_beside_metric(ast.parse(path.read_text())))}
    assert not found, f"functions take grid beside a metric: {found}"


def test_readme_references_resolve():
    """Every backticked ``module.name`` in README.md, for the modules of
    ``MODULES``, names an attribute of that module (a dotted path is
    followed attribute by attribute)."""
    refs = sorted(set(README_REFERENCE.findall((ROOT / "README.md").read_text())))
    assert refs
    missing = []
    for ref in refs:
        module, *path = ref.split(".")
        obj = importlib.import_module(f"smcf.{module}")
        for name in path:
            if not hasattr(obj, name):
                missing.append(ref)
                break
            obj = getattr(obj, name)
    assert not missing, f"README.md names what does not exist: {missing}"
