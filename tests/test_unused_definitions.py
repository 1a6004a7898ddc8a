"""Every function, method, property and class ``weaklink`` defines is read by ``weaklink``.

A public helper that only its own test reads is code the scan does not
need. This parses each ``weaklink`` module and fails on a definition whose
name no ``weaklink`` module reads: as a name, as an attribute, or as a
name one of its imports binds. Names are matched across modules without
scope, so a definition passes when any read spells its name. Dunder
names are called by Python itself and are left out.
"""

from __future__ import annotations

import ast
from pathlib import Path

import weaklink

MODULES = sorted(Path(weaklink.__file__).parent.glob("*.py"))

# Definitions that no module reads but that stay, each with its reason.
ALLOWED: dict[str, str] = {}


def _defined(tree: ast.Module) -> dict[str, int]:
    """Each function, method, property and class the module defines, with its line."""
    return {
        node.name: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def _read(tree: ast.Module) -> set[str]:
    """The names the module reads, as names, attributes or imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_definition_is_read_by_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in MODULES}
    read = set().union(*map(_read, trees.values()))
    unread = [
        f"{module}:{line}: {name}"
        for module, tree in trees.items()
        for name, line in _defined(tree).items()
        if name not in read and name not in ALLOWED
    ]
    assert unread == []


def test_an_unread_definition_is_reported():
    tree = ast.parse(
        "from x import imported\n"
        "class Used:\n"
        "    def __init__(self): pass\n"
        "    @property\n"
        "    def shown(self): return helper()\n"
        "    def unread(self): pass\n"
        "def helper(): pass\n"
        "def stored(): pass\n"
        "stored = None\n"
        "Used().shown\n"
    )
    assert sorted(set(_defined(tree)) - _read(tree)) == ["stored", "unread"]
