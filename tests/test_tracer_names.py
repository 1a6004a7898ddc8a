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


def test_the_results_the_tracer_reads_hold_on_a_small_scan(tmp_path):
    # Besides the names, the tracer reads what four stages return: the
    # loaded corpus's stats, the verdicts' ``excluded``, the length of the
    # scan's findings and the report paths (``tracer.RESULT_COUNTS``).
    from weaklink import pipeline
    from weaklink.synth import GenerationPlan, generate

    corpus = generate(GenerationPlan(seed=5, package_count=600))
    snapshot = corpus.write_snapshot(tmp_path / "snapshot.ndjson", layout="ndjson")
    domains, downloads = corpus.write_fixtures(tmp_path)
    loaded = pipeline.load_corpus(snapshot)
    assert (loaded.stats.total, loaded.stats.skipped) == (600, 0)
    _filtered, verdicts = pipeline.apply_exclusions(loaded)
    assert sum(1 for verdict in verdicts if verdict.excluded) == sum(verdicts.excluded_counts().values()) > 0

    options = pipeline.ScanOptions(input_path=snapshot, popular_n=6, domains_fixture=domains, downloads_fixture=downloads)
    result = pipeline.run_scan(options)
    paths = pipeline.write_reports(result, tmp_path / "report")
    assert paths and all(path.is_file() for path in paths.values())
    lines = paths["findings"].read_text(encoding="utf-8").splitlines()[1:]  # after the header
    assert len(result.findings) == len(lines) > 0
