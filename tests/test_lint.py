"""Static checks on the package source with the standard library's ast module.

Every top-level import of a module in src/carleman_lab is read somewhere in it
(or re-exported through ``__all__``), every name in ``__all__`` is bound,
every private top-level function, class or assigned name is referenced by some
module, no top-level name is bound in two modules, every name a submodule exports
is re-exported by the package or referenced by some module, and no function body
imports anything.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "carleman_lab"
MODULES = sorted(SRC.glob("*.py"))


def _all_names(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _imports(tree: ast.Module):
    """(bound name, line) for each name bound by a top-level import, __future__ aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(_all_names(tree))
    unused = [f"{path.name}:{line} {name}" for name, line in _imports(tree) if name not in used]
    assert not unused, f"unused imports: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_resolve(path):
    name = "carleman_lab" if path.stem == "__init__" else f"carleman_lab.{path.stem}"
    module = importlib.import_module(name)
    exported = _all_names(ast.parse(path.read_text(), filename=str(path)))
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names nothing bound: {missing}"


def _top_level_bindings(tree: ast.Module):
    """(name, line) for each top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def _referenced(trees) -> set:
    """Every name the modules read, as a name, an attribute or an imported name."""
    referenced = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
        elif isinstance(node, ast.alias):
            referenced.add(node.name)
    return referenced


def test_no_dead_private_helpers():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in MODULES]
    referenced = _referenced(trees)
    dead = [
        f"{path.name}:{lineno} {name}"
        for path, tree in zip(MODULES, trees)
        for name, lineno in _top_level_bindings(tree)
        if name.startswith("_") and not name.startswith("__") and name not in referenced
    ]
    assert not dead, f"private helpers nothing references: {dead}"


def test_no_top_level_name_bound_in_two_modules():
    where = {}  # name -> {module file: line of a binding}
    for path in MODULES:
        for name, lineno in _top_level_bindings(ast.parse(path.read_text(), filename=str(path))):
            if name != "__all__":
                where.setdefault(name, {})[path.name] = lineno
    twice = {name: sorted(f"{m}:{line}" for m, line in mods.items())
             for name, mods in where.items() if len(mods) > 1}
    assert not twice, f"top-level names bound in more than one module: {twice}"


def test_no_public_name_without_a_caller():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    package = set(_all_names(trees.pop("__init__")))
    referenced = _referenced(trees.values())
    orphans = [
        f"{stem}.{name}"
        for stem, tree in trees.items()
        for name in _all_names(tree)
        if name not in package and name not in referenced
    ]
    assert not orphans, f"exported names neither re-exported nor used in src/: {orphans}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_imports_in_function_bodies(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    nested = [
        f"{path.name}:{node.lineno} in {fn.name}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not nested, f"imports inside function bodies: {nested}"
