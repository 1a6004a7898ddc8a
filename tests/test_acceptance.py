"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Criteria 1/3/5/6 share three generated 10k-package corpora (seeds 1, 7, 42)
scanned once each in a subprocess so runtime and peak memory are measured
per run. Criterion 9 generates and scans a 100k corpus in its own
subprocess. Everything runs offline against fixture providers.
"""

from __future__ import annotations

import functools
import json
import os
import socket
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import weaklink
from weaklink.combinations import PopularSample, combination_table, keyword_hunt
from weaklink.exclusions import apply_exclusions
from weaklink.pipeline import ScanOptions, diff_findings, read_findings, run_scan, write_reports
from weaklink.providers import DomainStatus, STATUS_AVAILABLE, STATUS_UNKNOWN
from weaklink.reach import build_dependents_index, build_maintainer_index, maintainer_reach
from weaklink.signals import (
    AnalyzerConfig,
    analyze_w1,
    analyze_w2,
    analyze_w3,
    analyze_w4,
    analyze_w6,
    classify_script,
)
from weaklink.synth import GenerationPlan, generate

from conftest import corpus_records, owned_by_key, random_corpus
from ingest_reference import reason_names
from test_classify import SUITE as CLASSIFY_SUITE

SEEDS = (1, 7, 42)
N_PACKAGES = 10_000

_SCAN_WRAPPER = """
import json, resource, sys, time
from weaklink.cli import main
t0 = time.monotonic()
rc = main(sys.argv[1:])
elapsed = time.monotonic() - t0
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"rc": rc, "elapsed_s": elapsed, "maxrss_mb": rss_kb / 1024.0}))
"""


def criterion(number: int, name: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"\nACCEPTANCE {number} ({name}): PASS")
            return result

        return wrapper

    return decorate


@dataclass
class SeedRun:
    seed: int
    manifest: dict
    out_dir: Path
    corpus_dir: Path
    elapsed_s: float
    maxrss_mb: float
    summary: dict
    findings: list[dict]
    combinations: dict


def _child_env() -> dict[str, str]:
    """This environment, with the weaklink this suite imports first on the child's import path."""
    env = dict(os.environ)
    src = str(Path(weaklink.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def _scan_subprocess(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _SCAN_WRAPPER, *args],
        capture_output=True,
        text=True,
        timeout=200,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def seed_runs(tmp_path_factory) -> dict[int, SeedRun]:
    runs = {}
    for seed in SEEDS:
        base = tmp_path_factory.mktemp(f"accept-seed{seed}")
        corpus = generate(GenerationPlan(seed=seed, package_count=N_PACKAGES))
        snapshot = corpus.write_snapshot(base / "snapshot.ndjson", "ndjson")
        domains, downloads = corpus.write_fixtures(base)
        manifest = corpus.manifest
        out = base / "report"
        metrics = _scan_subprocess(
            [
                "scan",
                "--input",
                str(snapshot),
                "--out",
                str(out),
                "--domains-fixture",
                str(domains),
                "--downloads-fixture",
                str(downloads),
                "--popular-n",
                str(manifest["counts"]["popular_n"]),
            ]
        )
        assert metrics["rc"] == 0
        _header, lines = read_findings(out / "findings.jsonl")
        runs[seed] = SeedRun(
            seed=seed,
            manifest=manifest,
            out_dir=out,
            corpus_dir=base,
            elapsed_s=metrics["elapsed_s"],
            maxrss_mb=metrics["maxrss_mb"],
            summary=json.loads((out / "summary.json").read_text()),
            findings=[json.loads(line) for line in lines],
            combinations=json.loads((out / "combinations.json").read_text()),
        )
    return runs


def _signal_members(findings: list[dict], signal: str, kind: str = "package") -> list[str]:
    return sorted({f["subject_id"] for f in findings if f["signal"] == signal and f["subject_kind"] == kind})


@criterion(1, "planted-signal recovery")
def test_criterion_1_planted_signal_recovery(seed_runs):
    for seed, run in seed_runs.items():
        m = run.manifest["signals"]
        checks = {
            "W1": (m["W1"]["packages"], _signal_members(run.findings, "W1")),
            "W2": (m["W2"]["packages"], _signal_members(run.findings, "W2")),
            "W3_inactive_pkg": (m["W3_inactive_pkg"]["packages"], _signal_members(run.findings, "W3_inactive_pkg")),
            "W3_inactive_maintainer": (
                m["W3_inactive_maintainer"]["packages"],
                _signal_members(run.findings, "W3_inactive_maintainer"),
            ),
            "W3_deprecated": (m["W3_deprecated"]["packages"], _signal_members(run.findings, "W3_deprecated")),
            "W4": (m["W4"]["packages"], _signal_members(run.findings, "W4")),
            "W5": (m["W5"]["packages"], _signal_members(run.findings, "W5")),
            "W6_maintainers": (m["W6"]["maintainers"], _signal_members(run.findings, "W6", kind="maintainer")),
            "W6_packages": (m["W6"]["packages"], _signal_members(run.findings, "W6")),
        }
        for label, (want, got) in checks.items():
            # Exact set equality is precision = recall = 1.0.
            assert got == sorted(want), f"seed {seed}: {label} mismatch"

        verdicts = [
            json.loads(line) for line in (run.out_dir / "exclusions.jsonl").read_text().splitlines()
        ]
        excluded = sorted(v["package_id"].rsplit("@", 1)[0] for v in verdicts if v["excluded"])
        assert excluded == run.manifest["exclusions"]["excluded"], f"seed {seed}: exclusions mismatch"

        assert run.summary["corpus"]["parsed"] == N_PACKAGES, f"seed {seed}: ingest lost documents"
        assert run.elapsed_s < 30, f"seed {seed}: scan took {run.elapsed_s:.1f}s"
        assert run.maxrss_mb < 1024, f"seed {seed}: scan used {run.maxrss_mb:.0f} MB"


class _AcceptanceDomains:
    """Marks every pool0/pool1 maintainer domain available."""

    def __init__(self):
        from datetime import datetime, timezone

        self._now = datetime(1970, 1, 1, tzinfo=timezone.utc)

    def check(self, domain: str) -> DomainStatus:
        status = STATUS_AVAILABLE if domain in ("pool0.example", "pool1.example") else STATUS_UNKNOWN
        return DomainStatus(domain=domain, status=status, checked_at=self._now, source="fixture")


def _whole_corpus(corpus) -> PopularSample:
    """A popular sample of every package of ``corpus``."""
    names = frozenset(corpus.names)
    return PopularSample(members=names, by_dependents=len(names), by_downloads=0)


def _package_subjects(findings, signal: str) -> set[str]:
    return {f.subject_id for f in findings if f.signal == signal and f.subject_kind == "package"}


@criterion(2, "oracle equivalence")
def test_criterion_2_oracle_equivalence():
    for seed in range(50):
        corpus = random_corpus(seed=seed, size=100 + (seed * 37) % 401)
        assert len(corpus.names) <= 500
        index = build_dependents_index(corpus)

        # Dependents in corpus order, each once.
        brute_index = dict.fromkeys(corpus.names, ())
        for rec in corpus_records(corpus):
            for dep in dict.fromkeys(rec.dependencies):
                if dep != rec.name:
                    brute_index[dep] = brute_index.get(dep, ()) + (rec.name,)
        # The index holds positions of the corpus's own records only.
        names = list(corpus.names)
        assert {name: tuple(names[d] for d in index.dependents(pos)) for pos, name in enumerate(names)} == {
            name: brute_index[name] for name in names
        }

        mindex = build_maintainer_index(corpus)
        for owned in owned_by_key(corpus, mindex).values():
            union: set[str] = set()
            for pos in owned:
                union |= set(brute_index[names[pos]])
            assert maintainer_reach(owned, index) == len(union)

        filtered, verdicts = apply_exclusions(corpus)
        for rec, verdict in zip(corpus_records(corpus), verdicts):
            reasons = reason_names(rec.exclusion_reasons)
            had = bool(brute_index.get(rec.name))
            assert verdict.reasons == tuple(reasons)
            assert verdict.had_dependents == had
            assert verdict.excluded == (bool(reasons) and not had)

        if not filtered.names:
            continue
        cfg = AnalyzerConfig(top_percent=10.0).resolved(filtered)
        f_mindex = build_maintainer_index(filtered)
        f_dindex = build_dependents_index(filtered)
        findings, _hist = analyze_w1(filtered, f_mindex, _AcceptanceDomains(), cfg)
        findings = list(findings)
        findings += analyze_w2(filtered, cfg)
        findings += analyze_w3(filtered, f_mindex, cfg)
        findings += analyze_w4(filtered, cfg)
        findings += analyze_w6(filtered, f_mindex, f_dindex, cfg)
        for combo in combination_table(findings, _whole_corpus(filtered)):
            brute = set(filtered.names)
            for part in combo.combination_id.split("+"):
                brute &= _package_subjects(findings, "W3_inactive_pkg" if part == "W3" else part)
            assert combo.members == frozenset(brute), (seed, combo.combination_id)


@criterion(3, "rate reproduction")
def test_criterion_3_rate_reproduction(seed_runs):
    for seed, run in seed_runs.items():
        stats = run.summary["registry_stats"]
        filtered = run.summary["corpus"]["filtered"]
        rounding = 0.5 / filtered + 1e-12
        assert abs(run.summary["signals"]["W2"]["rate"] - 0.022) <= rounding, seed
        assert abs(stats["inactive_package_share"] - 0.587) <= rounding, seed
        assert abs(stats["contributor_listing_share"] - 0.026) <= rounding, seed
        assert abs(stats["mean_maintainers_per_package"] - 1.7) <= 0.05, seed
        # Denominators are the filtered population, reported alongside.
        assert run.summary["signals"]["W2"]["population"] == filtered


@criterion(4, "script classifier")
def test_criterion_4_script_classifier(seed_runs):
    assert len(CLASSIFY_SUITE) >= 40
    errors = [
        (body, expected, classify_script(body).category)
        for body, expected in CLASSIFY_SUITE
        if classify_script(body).category is not expected
    ]
    assert errors == []

    # keyword_hunt subset law on random corpora and on a generated corpus.
    for seed in range(6):
        corpus = random_corpus(seed=seed, size=150)
        cfg = AnalyzerConfig().resolved(corpus)
        hunt = {h.package for h in keyword_hunt(corpus, cfg)}
        w2 = {f.subject_id for f in analyze_w2(corpus, cfg)}
        assert hunt <= w2
    for seed, run in seed_runs.items():
        hunted = set(run.manifest["keyword_hunt"]["packages"])
        w2 = set(run.manifest["signals"]["W2"]["packages"])
        assert hunted <= w2
        categories = {
            h["package"]: h["category"]
            for h in run.combinations["keyword_hunt"]["hits_sample"]
        }
        for pkg, category in run.manifest["keyword_hunt"]["categories"].items():
            assert categories.get(pkg) == category, (seed, pkg)


@criterion(5, "combination laws")
def test_criterion_5_combination_laws(seed_runs):
    for seed, run in seed_runs.items():
        combo_counts = {row["id"]: row["count"] for row in run.combinations["combinations"]}
        want = {cid: data["count"] for cid, data in run.manifest["combinations"].items()}
        assert combo_counts == want, f"seed {seed}: combination counts diverge from manifest"

        w3 = set(_signal_members(run.findings, "W3_inactive_pkg"))
        w6 = set(_signal_members(run.findings, "W6"))
        assert combo_counts["W3+W4+W6"] <= combo_counts["W3+W6"]
        assert combo_counts["W3+W6"] <= min(len(w3), len(w6))

    # The law also holds over every package of random corpora.
    for seed in range(5):
        corpus = random_corpus(seed=seed, size=200)
        cfg = AnalyzerConfig(top_percent=10.0).resolved(corpus)
        mindex = build_maintainer_index(corpus)
        dindex = build_dependents_index(corpus)
        findings = analyze_w3(corpus, mindex, cfg) + analyze_w4(corpus, cfg) + analyze_w6(
            corpus, mindex, dindex, cfg
        )
        rows = {c.combination_id: c for c in combination_table(findings, _whole_corpus(corpus))}
        w3m = _package_subjects(findings, "W3_inactive_pkg")
        w6m = _package_subjects(findings, "W6")
        assert len(rows["W3+W4+W6"].members) <= len(rows["W3+W6"].members)
        assert len(rows["W3+W6"].members) <= min(len(w3m), len(w6m))


@criterion(6, "determinism")
def test_criterion_6_determinism(seed_runs, tmp_path):
    run = seed_runs[7]
    out2 = tmp_path / "rerun"
    metrics = _scan_subprocess(
        [
            "scan",
            "--input",
            str(run.corpus_dir / "snapshot.ndjson"),
            "--out",
            str(out2),
            "--domains-fixture",
            str(run.corpus_dir / "domains_fixture.jsonl"),
            "--downloads-fixture",
            str(run.corpus_dir / "downloads_fixture.jsonl"),
            "--popular-n",
            str(run.manifest["counts"]["popular_n"]),
        ]
    )
    assert metrics["rc"] == 0
    for name in ("summary.json", "findings.jsonl", "combinations.json", "exclusions.jsonl"):
        assert (run.out_dir / name).read_bytes() == (out2 / name).read_bytes(), name
    added, removed = diff_findings(run.out_dir / "findings.jsonl", out2 / "findings.jsonl")
    assert added == [] and removed == []


@criterion(7, "offline completeness")
def test_criterion_7_offline_completeness(seed_runs, tmp_path, monkeypatch):
    # Hard-disable socket creation: the fixture-mode pipeline must not touch
    # the network at all.
    class GuardedSocket(socket.socket):
        def __init__(self, *args, **kwargs):
            raise AssertionError("network access attempted during offline scan")

    monkeypatch.setattr(socket, "socket", GuardedSocket)
    monkeypatch.setattr(socket, "create_connection", GuardedSocket)

    run = seed_runs[7]
    result = run_scan(
        ScanOptions(
            input_path=run.corpus_dir / "snapshot.ndjson",
            config=AnalyzerConfig(),
            popular_n=run.manifest["counts"]["popular_n"],
            domains_fixture=run.corpus_dir / "domains_fixture.jsonl",
            downloads_fixture=run.corpus_dir / "downloads_fixture.jsonl",
        )
    )
    write_reports(result, tmp_path / "offline-report")
    w1 = sorted({f.subject_id for f in result.findings if f.signal == "W1" and f.subject_kind == "package"})
    assert w1 == run.manifest["signals"]["W1"]["packages"]
    assert result.provider_warnings == 0
    assert (tmp_path / "offline-report" / "summary.json").read_bytes() == (run.out_dir / "summary.json").read_bytes()


@criterion(8, "threshold monotonicity")
def test_criterion_8_threshold_monotonicity(seed_runs):
    from weaklink.ingest import load_corpus

    run = seed_runs[7]
    corpus = load_corpus(run.corpus_dir / "snapshot.ndjson")
    filtered, _ = apply_exclusions(corpus)
    mindex = build_maintainer_index(filtered)
    dindex = build_dependents_index(filtered)

    w3_counts = []
    for years in (1, 2, 3):
        cfg = AnalyzerConfig(inactivity_days=365 * years).resolved(filtered)
        findings = analyze_w3(filtered, mindex, cfg)
        w3_counts.append(sum(1 for f in findings if f.signal == "W3_inactive_pkg"))
    assert w3_counts[0] >= w3_counts[1] >= w3_counts[2]
    assert w3_counts[0] > w3_counts[2]  # the corpus actually spans the windows

    w4_counts = []
    w6_counts = []
    for percent in (2.0, 1.0, 0.5):
        cfg = AnalyzerConfig(top_percent=percent).resolved(filtered)
        w4_counts.append(len(analyze_w4(filtered, cfg)))
        w6 = analyze_w6(filtered, mindex, dindex, cfg)
        w6_counts.append(sum(1 for f in w6 if f.subject_kind == "maintainer"))
    assert w4_counts[0] >= w4_counts[1] >= w4_counts[2]
    assert w6_counts[0] >= w6_counts[1] >= w6_counts[2]


_SCALE_WRAPPER = """
import json, resource, sys, time
from pathlib import Path
from weaklink.cli import main
from weaklink.synth import GenerationPlan, generate

base = Path(sys.argv[1])
corpus = generate(GenerationPlan(seed=1, package_count=100_000))
snapshot = corpus.write_snapshot(base / "snapshot.ndjson", "ndjson")
domains, downloads = corpus.write_fixtures(base)
manifest = corpus.manifest
(base / "manifest.json").write_text(json.dumps({
    "popular_n": manifest["counts"]["popular_n"],
    "w2": manifest["signals"]["W2"]["packages"],
    "w6": manifest["signals"]["W6"]["packages"],
}))
t0 = time.monotonic()
rc = main([
    "scan", "--input", str(snapshot), "--out", str(base / "report"),
    "--domains-fixture", str(domains), "--downloads-fixture", str(downloads),
    "--popular-n", str(manifest["counts"]["popular_n"]),
])
elapsed = time.monotonic() - t0
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"rc": rc, "elapsed_s": elapsed, "maxrss_mb": rss_kb / 1024.0}))
"""


@criterion(9, "scale smoke")
def test_criterion_9_scale_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _SCALE_WRAPPER, str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=360,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    assert metrics["rc"] == 0
    assert metrics["elapsed_s"] < 120, f"scan took {metrics['elapsed_s']:.0f}s"
    assert metrics["maxrss_mb"] < 4096, f"peak rss {metrics['maxrss_mb']:.0f} MB"

    # Spot-check recovery at scale.
    expectations = json.loads((tmp_path / "manifest.json").read_text())
    _header, lines = read_findings(tmp_path / "report" / "findings.jsonl")
    findings = [json.loads(line) for line in lines]
    assert _signal_members(findings, "W2") == expectations["w2"]
    assert _signal_members(findings, "W6") == expectations["w6"]
