"""Report bytes against the committed benchmark reference digests.

The scan benchmark (``perfbench/``) requires every scan of a corpus to
produce the sha256 digests committed in ``perfbench/reference_digests.json``.
This test checks the benchmark's 2k-package self-test corpus in all three
snapshot layouts, so a change to any report byte fails ``pytest`` without
running the benchmark.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import logging
import os
import subprocess
import sys
import threading
import tracemalloc
from array import array
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from weaklink import ingest
from weaklink.cli import main
from weaklink.exclusions import ExclusionVerdicts
from weaklink.pipeline import _exclusion_lines, _finding_lines, _package_id_order
from weaklink.reach import MaintainerIndex
from weaklink.signals import EVIDENCE_SCHEMAS, SignalRows
from weaklink.synth import GenerationPlan, generate

from conftest import canonical_json, corpus_records, findings_of, random_corpus

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


@pytest.mark.parametrize("jobs,threaded", [(1, False), (2, False), (3, False), (2, True)])
def test_ndjson_read_in_ranges_by_worker_processes_matches_reference(corpus_dir, tmp_path, monkeypatch, caplog, jobs, threaded):
    # With ranges this small the snapshot is read in ``jobs`` ranges, each
    # but the first in a worker process: forked, or spawned while another
    # thread runs. One job starts none.
    pools = []

    class Pool(ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context):
            pools.append((max_workers, mp_context.get_start_method()))
            super().__init__(max_workers, mp_context=mp_context)

    monkeypatch.setattr(ingest, "_MIN_RANGE_BYTES", 1 << 16)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    caplog.set_level(logging.DEBUG, logger="weaklink.ingest")
    release = threading.Event()
    if threaded:
        threading.Thread(target=release.wait, daemon=True).start()
    try:
        assert main([*scan_args(corpus_dir, "ndjson", tmp_path), "--jobs", str(jobs)]) == 0
    finally:
        release.set()
    assert report_digests(tmp_path) == reference_digests()
    assert pools == ([(jobs - 1, "spawn" if threaded else "fork")] if jobs > 1 else [])
    accepted = [r.getMessage().rsplit(": ", 1)[1] for r in caplog.records if "cuts accepted" in r.getMessage()]
    assert accepted == ([f"{jobs - 1} of {jobs - 1} cuts accepted"] if jobs > 1 else [])
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert summary["input"]["digest"] == hashlib.sha256((corpus_dir / SNAPSHOTS["ndjson"]).read_bytes()).hexdigest()


@pytest.mark.parametrize("jobs,threaded", [(1, False), (2, False), (3, False), (2, True)])
def test_bulk_export_read_in_ranges_by_worker_processes_matches_reference(corpus_dir, tmp_path, monkeypatch, caplog, jobs, threaded):
    # As the ndjson twin above: the export is read in ``jobs`` ranges, each
    # but the first in a worker process, and every cut falls at a row.
    pools = []

    class Pool(ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context):
            pools.append((max_workers, mp_context.get_start_method()))
            super().__init__(max_workers, mp_context=mp_context)

    monkeypatch.setattr(ingest, "_MIN_RANGE_BYTES", 1 << 16)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    caplog.set_level(logging.DEBUG, logger="weaklink.ingest")
    release = threading.Event()
    if threaded:
        threading.Thread(target=release.wait, daemon=True).start()
    try:
        assert main([*scan_args(corpus_dir, "bulk", tmp_path), "--jobs", str(jobs)]) == 0
    finally:
        release.set()
    assert report_digests(tmp_path) == reference_digests()
    assert pools == ([(jobs - 1, "spawn" if threaded else "fork")] if jobs > 1 else [])
    accepted = [r.getMessage().rsplit(": ", 1)[1] for r in caplog.records if "cuts accepted" in r.getMessage()]
    assert accepted == ([f"{jobs - 1} of {jobs - 1} cuts accepted"] if jobs > 1 else [])
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert summary["input"]["digest"] == hashlib.sha256((corpus_dir / SNAPSHOTS["bulk"]).read_bytes()).hexdigest()


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
    assert [pos for _package_id, pos in _package_id_order(names, versions)] == expected


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


# --- line templates ------------------------------------------------------------------

# Text that JSON escapes, or that a %-template could misread.
SPECIAL = ('"', "\\", "\x00", "\x1f", "\x7f", "\n", "é", "\u2028", "\ud800", "\udfff", "😀", "%", "%s", "%%", "%(x)d")
TEXT = st.lists(st.one_of(st.characters(), st.sampled_from(SPECIAL)), max_size=6).map("".join)
BIG = st.one_of(st.integers(0, 3), st.integers(-(10**30), 10**30))
EPOCH_US = st.integers(ingest.epoch_us(ingest.parse_timestamp("0001-01-01T00:00:00Z")), ingest.epoch_us(ingest.parse_timestamp("9999-12-31T23:59:59.999999Z")))
# A typed value of each evidence key, as the analyzers give them.
VALUES = {
    "domain": TEXT,
    "maintainer_key": TEXT,
    "script_key": st.lists(TEXT, min_size=1, max_size=3).map(tuple),
    "has_suspicious_tokens": st.booleans(),
    "deprecated": st.one_of(st.booleans(), TEXT),
    "last_modified": EPOCH_US,
    "latest_maintainer_activity": EPOCH_US,
    "age_days": BIG,
    "maintainer_count": BIG,
    "maintainers": BIG,
    "contributors": BIG,
    "owned_count": BIG,
    "reach": BIG,
    "registry_avg": st.floats(),
    "inactive_owned_share": st.floats(),
    "dependency_using_share": st.floats(),
    "ratio": st.floats(),
}


@st.composite
def signal_rows(draw):
    """Rows of any signal over names and identity keys of any text, and the stand-in corpus they index."""
    signal = draw(st.sampled_from(sorted(EVIDENCE_SCHEMAS)))
    names = sorted(set(draw(st.lists(TEXT, min_size=1, max_size=5))))
    keys = tuple(draw(st.lists(TEXT, min_size=1, max_size=3, unique=True)))
    identities = signal in ("W1", "W6")
    subjects = sorted(draw(st.sets(st.integers(0, (len(keys) if identities else len(names)) - 1), min_size=1)))
    columns = tuple([draw(VALUES[key]) for _ in subjects] for key in EVIDENCE_SCHEMAS[signal])
    if "maintainer_key" in EVIDENCE_SCHEMAS[signal]:  # an identity's key is its maintainer_key
        columns[EVIDENCE_SCHEMAS[signal].index("maintainer_key")][:] = [keys[ident] for ident in subjects]
    owners = None
    if identities:  # every identity owns a nonempty ascending set of positions
        owned = [sorted(draw(st.sets(st.integers(0, len(names) - 1), min_size=1))) for _ in keys]
        offsets = array("i", accumulate(map(len, owned), initial=0))
        owners = MaintainerIndex(offsets, array("i", [pos for row in owned for pos in row]), array("q", [0] * len(keys)))
    corpus = SimpleNamespace(names=tuple(names), identity_keys=keys)
    return SignalRows(signal, array("i", subjects), columns, owners), corpus


@given(signal_rows(), st.one_of(st.none(), TEXT))
def test_finding_line_templates_write_canonical_json(rows_and_corpus, observed_at):
    # Each line equals canonical_json of the dict the report spells it as,
    # and the lines come in report order.
    rows, corpus = rows_and_corpus
    written = list(_finding_lines(rows, corpus.names, observed_at))
    expected = [canonical_json({**f.to_dict(), "observed_at": observed_at}) + "\n" for f in findings_of(corpus, rows)]
    assert written == expected
    assert len(written) == len(rows)


NAMES_AND_VERSIONS = st.lists(st.tuples(TEXT, TEXT), max_size=16, unique_by=lambda pair: pair[0])


@given(NAMES_AND_VERSIONS, st.data())
@example([(name, "1.0") for name in SPECIAL], None)
def test_exclusion_line_templates_write_canonical_json(pairs, data):
    pairs.sort()
    flags = bytes(data.draw(st.integers(0, 15)) if data else i % 16 for i in range(len(pairs)))
    verdicts = ExclusionVerdicts(tuple(name for name, _ in pairs), tuple(version for _, version in pairs), flags)
    order = sorted(range(len(pairs)), key=lambda pos: f"{pairs[pos][0]}@{pairs[pos][1]}")
    expected = []
    for pos in order:
        excluded, reasons, had_dependents = verdicts[pos]
        line = {"package_id": f"{pairs[pos][0]}@{pairs[pos][1]}", "excluded": excluded, "reasons": list(reasons), "had_dependents": had_dependents}
        expected.append(canonical_json(line) + "\n")
    assert list(_exclusion_lines(verdicts)) == expected
