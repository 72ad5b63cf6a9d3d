"""Checks on the package source that no installed linter makes: every
module-level import is read by its module, and every module-level private
name is read by some module of the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rarenet"
TREES = {path.name: ast.parse(path.read_text(), str(path))
         for path in sorted(SRC.glob("*.py"))}
# `__init__` imports to re-export, so it is checked only as a reader
MODULES = sorted(set(TREES) - {"__init__.py"})


def _loaded(tree) -> set[str]:
    """The names `tree` reads: loaded names and attribute names."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)})


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_its_imports(module):
    tree = TREES[module]
    bound = {(alias.asname or alias.name).split(".")[0]
             for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    assert sorted(bound - _loaded(tree)) == []


@pytest.mark.parametrize("module", MODULES)
def test_private_names_are_read_in_the_package(module):
    defined = set()
    for node in TREES[module].body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                defined.update(name.id for name in ast.walk(target)
                               if isinstance(name, ast.Name))
    private = {name for name in defined
               if name.startswith("_") and not name.startswith("__")}
    read = set().union(*map(_loaded, TREES.values()))
    assert sorted(private - read) == []
