"""Report bytes against the committed benchmark reference digests.

The scan benchmark (``perfbench/``) requires every scan of a corpus to
produce the sha256 digests committed in ``perfbench/reference_digests.json``.
This test checks the benchmark's 2k-package self-test corpus in all three
snapshot layouts, so a change to any report byte fails ``pytest`` without
running the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weaklink import ingest
from weaklink.cli import main
from weaklink.pipeline import _package_id_order
from weaklink.synth import GenerationPlan, generate

from conftest import corpus_records, random_corpus

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference_digests.json"
SNAPSHOTS = {"ndjson": "snapshot.ndjson", "bulk": "snapshot.json", "dir": "snapshot"}


def report_digests(report_dir: Path) -> dict[str, str]:
    """sha256 of each canonical report, and of summary.json without the snapshot's path and digest."""
    digests = {
        name: hashlib.sha256((report_dir / name).read_bytes()).hexdigest()
        for name in ("findings.jsonl", "exclusions.jsonl", "combinations.json")
    }
    summary = json.loads((report_dir / "summary.json").read_text(encoding="utf-8"))
    del summary["input"]["path"], summary["input"]["digest"]
    digests["summary.json-input"] = hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("reference-corpus")
    corpus = generate(GenerationPlan(seed=1, package_count=2_000))
    for layout, name in SNAPSHOTS.items():
        corpus.write_snapshot(out / name, layout=layout)
    corpus.write_fixtures(out)
    corpus.write_manifest(out / "manifest.json")
    return out


def scan_args(corpus_dir: Path, layout: str, out: Path) -> list[str]:
    manifest = json.loads((corpus_dir / "manifest.json").read_text(encoding="utf-8"))
    return [
        "scan",
        "--input", str(corpus_dir / SNAPSHOTS[layout]),
        "--out", str(out),
        "--domains-fixture", str(corpus_dir / "domains_fixture.jsonl"),
        "--downloads-fixture", str(corpus_dir / "downloads_fixture.jsonl"),
        "--popular-n", str(manifest["counts"]["popular_n"]),
    ]


def scan(corpus_dir: Path, layout: str, out: Path) -> dict[str, str]:
    assert main(scan_args(corpus_dir, layout, out)) == 0
    return report_digests(out)


def reference_digests() -> dict[str, str]:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["2000/1"]


@pytest.mark.parametrize("layout", sorted(SNAPSHOTS))
def test_reports_match_committed_reference_digests(corpus_dir, tmp_path, layout):
    assert scan(corpus_dir, layout, tmp_path) == reference_digests()


def test_bulk_export_read_in_small_chunks_matches_reference(corpus_dir, tmp_path, monkeypatch):
    # At 61 bytes, chunk boundaries fall inside rows, keys, numbers,
    # strings and multi-byte characters all through the export.
    monkeypatch.setattr(ingest, "_CHUNK", 61)
    assert scan(corpus_dir, "bulk", tmp_path) == reference_digests()


def test_traced_scan_matches_reference_and_counts_what_it_wrote(corpus_dir, tmp_path):
    # The benchmark's tracer wraps the pipeline's stages and reads what two
    # of them return; a change to those results fails here, not only in
    # the benchmark's own self-test.
    spans_out, out = tmp_path / "spans.json", tmp_path / "reports"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans_out), "t", "--", *scan_args(corpus_dir, "ndjson", out)]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert report_digests(out) == reference_digests()
    spans = {span["name"]: span for span in json.loads(spans_out.read_text(encoding="utf-8"))["spans"]}
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert spans["exclusions.apply_exclusions"]["excluded"] == summary["corpus"]["excluded"]["total"] > 0
    findings = (out / "findings.jsonl").read_text(encoding="utf-8").splitlines()[1:]  # after the header
    assert spans["pipeline.run_scan"]["findings"] == len(findings) > 0


class _ReadOnlyDict(dict):
    def _refuse(self, *args, **kwargs):
        raise AssertionError("the shared empty map was mutated")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse


def test_scan_leaves_the_shared_empty_map_empty(corpus_dir, tmp_path, monkeypatch):
    # Every record without scripts or dependencies of a kind holds the one
    # shared map; a scan that wrote to it would change every such record.
    shared = _ReadOnlyDict()
    monkeypatch.setattr(ingest, "_EMPTY_MAP", shared)
    assert scan(corpus_dir, "ndjson", tmp_path) == reference_digests()
    assert shared == {}


# --- the order of exclusions.jsonl --------------------------------------------------------

# Stems that are prefixes of each other, and what may follow a stem: "-",
# ".", digits and letters sort below or above the "@" that ends a name in
# its package id, and a name may hold an "@" of its own.
STEMS = ("a", "ab", "a-b", "react", "@s/a", "@scope/react")
NAMES = st.builds(str.__add__, st.sampled_from(STEMS), st.text(alphabet="-.09@aZz_/", max_size=4))
VERSIONS = st.sampled_from(("1.0.0", "0.1.0", "10.0.0", "1.0.0-beta.1", "b"))


@given(st.lists(st.tuples(NAMES, VERSIONS), max_size=30))
def test_exclusion_order_is_package_id_order(pairs):
    pairs.sort(key=lambda pair: pair[0])  # position order is name order; a name may repeat
    names, versions = [name for name, _ in pairs], [version for _, version in pairs]
    expected = sorted(range(len(pairs)), key=lambda pos: f"{names[pos]}@{versions[pos]}")
    assert list(_package_id_order(names, versions)) == expected


def test_ordering_the_exclusions_holds_few_package_ids():
    # Numbered names make long prefix families: "r15-pkg-1" prefixes 1,111 of them.
    corpus = random_corpus(seed=15, size=5_000)
    id_bytes = sum(sys.getsizeof(rec.package_id) for rec in corpus_records(corpus))
    tracemalloc.start()
    try:
        deque(_package_id_order(corpus.names, corpus.versions), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < id_bytes / 10
