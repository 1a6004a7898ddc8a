"""Generator determinism, plan validation and manifest self-consistency."""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

from weaklink.errors import PlanError
from weaklink.pipeline import ScanOptions, run_scan
from weaklink.signals import AnalyzerConfig
from weaklink.synth import GenerationPlan, generate

from conftest import findings_of


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_same_seed_byte_identical(tmp_path):
    for layout, name in (("ndjson", "a.ndjson"), ("bulk", "a.json"), ("dir", "adir")):
        one = generate(GenerationPlan(seed=7, package_count=600)).write_snapshot(tmp_path / f"1{name}", layout)
        two = generate(GenerationPlan(seed=7, package_count=600)).write_snapshot(tmp_path / f"2{name}", layout)
        if layout == "dir":
            files_one = sorted(p.relative_to(one) for p in one.rglob("*.json"))
            files_two = sorted(p.relative_to(two) for p in two.rglob("*.json"))
            assert files_one == files_two
            assert all((one / f).read_bytes() == (two / f).read_bytes() for f in files_one)
        else:
            assert digest(one) == digest(two)


def test_same_seed_same_manifest():
    first = generate(GenerationPlan(seed=3, package_count=600)).manifest
    second = generate(GenerationPlan(seed=3, package_count=600)).manifest
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


# Frozen digests for seed=7, n=600; they guard against generator drift that
# in-process double-generation cannot catch.
GOLDEN_SNAPSHOT_SHA256 = "be1663eabf9c66fd21bb44ec43a342549219c7089a58f2a949c7ca1f86f89b37"
GOLDEN_MANIFEST_SHA256 = "aee8c534ed2ba75ae62115ba2414665c2589431831c6b93f5ce5ad8ae831e7dc"


def test_snapshot_digest_frozen(tmp_path):
    corpus = generate(GenerationPlan(seed=7, package_count=600))
    path = corpus.write_snapshot(tmp_path / "g.ndjson", "ndjson")
    assert digest(path) == GOLDEN_SNAPSHOT_SHA256
    manifest_digest = hashlib.sha256(json.dumps(corpus.manifest, sort_keys=True).encode()).hexdigest()
    assert manifest_digest == GOLDEN_MANIFEST_SHA256


def test_different_seeds_same_counts():
    plans = [GenerationPlan(seed=s, package_count=1200) for s in (1, 2)]
    manifests = [generate(p).manifest for p in plans]
    a, b = manifests
    for signal in ("W1", "W2", "W3_inactive_pkg", "W3_inactive_maintainer", "W3_deprecated", "W4", "W5"):
        assert len(a["signals"][signal]["packages"]) == len(b["signals"][signal]["packages"]), signal
    assert len(a["signals"]["W6"]["maintainers"]) == len(b["signals"]["W6"]["maintainers"])
    assert a["counts"]["excluded"] == b["counts"]["excluded"]
    # Members differ between seeds.
    assert a["signals"]["W2"]["packages"] != b["signals"]["W2"]["packages"]


def zero_plan(seed: int, package_count: int) -> GenerationPlan:
    """A plan with every rate and plant zeroed: nothing to find."""
    return GenerationPlan(
        seed=seed,
        package_count=package_count,
        security_holding_rate=0.0,
        deprecated_unused_rate=0.0,
        no_repo_no_license_rate=0.0,
        multi_reason_overlap=0,
        security_holding_retained=0,
        install_script_rate=0.0,
        inactive_rate=0.0,
        inactive_maintainer_pkg_rate=0.0,
        deprecated_retained_rate=0.0,
        contributor_rate=0.0,
        mean_maintainers=0.0,
        expired_maintainers=0,
        expired_stale_maintainers=0,
        expired_stale_packages=0,
        expired_packages=0,
        malicious_scripts=0,
        w6_owned_per_maintainer=0,
        w6_stale_maintainers=0,
        combo_w6_w4=0,
        combo_w6_w2_inactive=0,
        combo_w6_w1_inactive=0,
        combo_w6_w1_active=0,
        combo_w2_inactive_popular=0,
    )


def test_zero_plan_scanner_emits_zero_findings(tmp_path):
    corpus = generate(zero_plan(seed=9, package_count=400))
    snap = corpus.write_snapshot(tmp_path / "zero.ndjson", "ndjson")
    dom, dl = corpus.write_fixtures(tmp_path)
    result = run_scan(
        ScanOptions(input_path=snap, config=AnalyzerConfig(), popular_n=4, domains_fixture=dom, downloads_fixture=dl)
    )
    assert len(result.findings) == 0
    assert [v for v in result.verdicts if v.excluded] == []


def test_manifest_internal_consistency():
    manifest = generate(GenerationPlan(seed=5, package_count=1500)).manifest
    signals = manifest["signals"]
    inactive = set(signals["W3_inactive_pkg"]["packages"])
    assert set(signals["W3_inactive_maintainer"]["packages"]) <= inactive
    assert set(signals["W3_deprecated"]["packages"]) <= inactive
    assert set(manifest["pipelines"]["hijackable"]) <= set(signals["W1"]["packages"])
    assert set(manifest["pipelines"]["takeover"]) <= set(signals["W6"]["packages"])
    assert set(signals["W2"]["with_tokens"]) <= set(signals["W2"]["packages"])
    assert set(manifest["keyword_hunt"]["packages"]) == set(signals["W2"]["with_tokens"])
    union = manifest["popular"]["source_counts"]["union"]
    assert union == len(manifest["popular"]["members"])
    assert union <= manifest["popular"]["source_counts"]["by_dependents"] + manifest["popular"]["source_counts"]["by_downloads"]
    # Combination rows are consistent with the member sets they came from.
    combos = manifest["combinations"]
    assert combos["W3+W4+W6"]["count"] <= combos["W3+W6"]["count"]
    for row in combos.values():
        assert row["count"] == len(row["members"])


def test_plan_validation_errors():
    with pytest.raises(PlanError):
        GenerationPlan(package_count=0).validate()
    with pytest.raises(PlanError):
        GenerationPlan(inactive_rate=1.5).validate()
    with pytest.raises(PlanError):
        GenerationPlan(inactive_maintainer_pkg_rate=0.9, inactive_rate=0.5).validate()
    with pytest.raises(PlanError):
        GenerationPlan(mean_maintainers=0.5).validate()
    with pytest.raises(PlanError):
        GenerationPlan.from_dict({"bogus_field": 1})
    with pytest.raises(PlanError):
        generate(GenerationPlan(package_count=30))  # too small for default plants


def test_popular_download_ramp_clears_the_random_counts_above_990_members():
    # 1,100 popular-by-downloads members: a ramp of 1,000 per rank would fall
    # into the random 0-9,999 counts and break the separation.
    manifest = generate(GenerationPlan(package_count=12_000, popular_divisor=10, w6_owned_per_maintainer=100)).manifest
    assert manifest["popular"]["source_counts"]["by_downloads"] == 1_100


def test_popular_dependents_quota_is_capped_above_1000_members():
    # 1,100 popular members. The quota ramp falls by 1,000/1,100 per rank
    # instead of by one, so no package has more than dependents_base + 1,000
    # dependents and the popular edges grow as popular_n * 500, not as
    # popular_n**2 / 2. generate() raises PlanError on a separation violation.
    plan = GenerationPlan(package_count=12_000, popular_divisor=10, w6_owned_per_maintainer=100)
    corpus = generate(plan)
    counts = corpus.manifest["counts"]
    assert counts["popular_n"] == 1_100
    assert corpus.manifest["popular"]["source_counts"]["by_dependents"] == 1_100
    dependents = Counter(dep for pkg in corpus._packages for dep in pkg.dependencies)
    assert max(dependents.values()) == plan.dependents_base + 1_000
    # The popular ramp averages at most 501 above the base; every other
    # package has at most 4 dependents, and 2 on average is ample.
    edges = sum(dependents.values())
    assert edges <= counts["popular_n"] * (plan.dependents_base + 501) + 2 * counts["retained"]


def test_popular_quota_below_1000_members_is_unchanged():
    # Up to 1,000 popular members the capped ramp is the old one: base + popular_n - rank.
    corpus = generate(GenerationPlan(package_count=12_000, popular_divisor=12, w6_owned_per_maintainer=100))
    popular_n = corpus.manifest["counts"]["popular_n"]
    assert 100 < popular_n <= 1_000
    dependents = Counter(dep for pkg in corpus._packages for dep in pkg.dependencies)
    base = GenerationPlan().dependents_base
    assert sorted(dependents.values(), reverse=True)[:popular_n] == [base + popular_n - r for r in range(popular_n)]


def test_w2_count_without_exclusions_is_22_of_1000(tmp_path):
    plan = GenerationPlan(
        seed=7,
        package_count=1000,
        security_holding_rate=0.0,
        deprecated_unused_rate=0.0,
        no_repo_no_license_rate=0.0,
        multi_reason_overlap=0,
    )
    corpus = generate(plan)
    assert len(corpus.manifest["signals"]["W2"]["packages"]) == 22

    snap = corpus.write_snapshot(tmp_path / "s22.ndjson", "ndjson")
    dom, dl = corpus.write_fixtures(tmp_path)
    result = run_scan(
        ScanOptions(
            input_path=snap,
            config=AnalyzerConfig(),
            popular_n=corpus.manifest["counts"]["popular_n"],
            domains_fixture=dom,
            downloads_fixture=dl,
        )
    )
    assert sum(1 for f in findings_of(result.filtered, result.findings) if f.signal == "W2") == 22


def test_w2_count_is_exact(tmp_path):
    plan = GenerationPlan(seed=7, package_count=1000)
    corpus = generate(plan)
    manifest = corpus.manifest
    expected = round(plan.install_script_rate * manifest["counts"]["retained"])
    assert len(manifest["signals"]["W2"]["packages"]) == expected

    snap = corpus.write_snapshot(tmp_path / "s.ndjson", "ndjson")
    dom, dl = corpus.write_fixtures(tmp_path)
    result = run_scan(
        ScanOptions(
            input_path=snap,
            config=AnalyzerConfig(),
            popular_n=manifest["counts"]["popular_n"],
            domains_fixture=dom,
            downloads_fixture=dl,
        )
    )
    w2 = {f.subject_id for f in findings_of(result.filtered, result.findings) if f.signal == "W2"}
    assert len(w2) == expected


def test_fixture_files_cover_all_maintainer_domains(tmp_path):
    corpus = generate(GenerationPlan(seed=11, package_count=800))
    dom, dl = corpus.write_fixtures(tmp_path)
    rows = [json.loads(line) for line in dom.read_text().splitlines()]
    statuses = {r["domain"]: r["status"] for r in rows}
    available = {d for d, s in statuses.items() if s == "available"}
    assert available == set(corpus.manifest["signals"]["W1"]["available_domains"])
    dl_rows = [json.loads(line) for line in dl.read_text().splitlines()]
    assert len(dl_rows) == corpus.manifest["counts"]["retained"]
