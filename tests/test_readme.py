"""README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

from weaklink.synth import GenerationPlan, generate

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first python block under "## Library use"."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs_on_a_synthetic_snapshot(tmp_path, monkeypatch):
    generate(GenerationPlan(seed=1, package_count=2_000)).write_snapshot(tmp_path / "snapshot.ndjson", layout="ndjson")
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(library_example(), str(README), "exec"), scope)
    assert len(scope["verdicts"]) == len(scope["corpus"].names) == 2_000
    assert scope["findings"]
