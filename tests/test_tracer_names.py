"""The names the benchmark's tracer wraps exist in the program.

``perfbench/tracer.py`` wraps each (module, attribute) of ``STAGES`` and
each provider class of ``PROVIDERS`` on ``weaklink.pipeline``, and skips a
name that is missing, so a rename would silently read zero for its
per-layer metrics. This test reads the two tables from the tracer's source
without importing it, and fails on any name the program no longer has.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_table(name: str) -> dict:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no {name}")


STAGES = [(module, attr) for module, names in tracer_table("STAGES").items() for attr in names]
PROVIDERS = tracer_table("PROVIDERS")


@pytest.mark.parametrize("module,attr", STAGES, ids=[f"{module}.{attr}" for module, attr in STAGES])
def test_every_traced_stage_exists(module, attr):
    assert hasattr(importlib.import_module(module), attr)


@pytest.mark.parametrize("attr", sorted(PROVIDERS))
def test_every_traced_provider_exists_on_the_pipeline(attr):
    pipeline = importlib.import_module("weaklink.pipeline")
    _span, method = PROVIDERS[attr]
    assert hasattr(getattr(pipeline, attr, None), method)
