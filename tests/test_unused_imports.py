"""Every name a program module imports is used.

No linter runs over the sources, so this parses each ``weaklink`` module
(``__init__.py`` re-exports, so it is left out) and each test module, and
fails on an imported name that neither code nor a string annotation reads.
``from __future__`` imports are directives, not names.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import weaklink

MODULES = sorted(p for p in Path(weaklink.__file__).parent.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(Path(__file__).parent.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name the module's imports bind, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    """The names the module reads, also inside quoted annotations."""
    trees = [tree]
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    trees.append(ast.parse(node.value, mode="eval"))
                except SyntaxError:  # a string in the annotation that is no expression, as in Literal["a b"]
                    pass
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used(tree)
    unused = [f"{path.name}:{line}: {name}" for name, line in _imported(tree).items() if name not in used]
    assert unused == []


def test_an_unused_import_is_reported():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, json as j\n"
        "from typing import TYPE_CHECKING, Sequence\n"
        "if TYPE_CHECKING:\n"
        "    import requests\n"
        "def f(s: 'requests.Session') -> None:\n"
        "    return os.sep\n"
    )
    assert sorted(set(_imported(tree)) - _used(tree)) == ["Sequence", "j"]
