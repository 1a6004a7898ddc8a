"""Exclusion reasons as ingest decides them, and the filter, checked against brute force."""

from __future__ import annotations

import dataclasses
import json
import random
import tracemalloc
import weakref
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weaklink import pipeline
from weaklink.exclusions import Verdict, apply_exclusions
from weaklink.ingest import (
    DEFAULT_LICENSE_DENYLIST,
    DEPRECATED,
    NO_REPO_NO_LICENSE,
    SECURITY_HOLDING,
    load_corpus,
)
from weaklink.synth import GenerationPlan, generate

from conftest import corpus_records, email_domains, make_corpus, make_record, parse_record, person, random_corpus, random_records
from ingest_reference import reason_names, reference_reasons


# Hand table for the phrase-match rule.
PHRASE_TABLE = [
    ("security holding package", True),
    ("Security Holding Package", True),
    ("this is a security holding package now", True),
    ("holds security tokens securely", False),
    ("security-holding package", False),
    ("package holding security", False),
    ("", False),
    ("SECURITY HOLDING PACKAGE", True),
    ("a security  holding package", False),
    ("securityholding package", False),
]


def ingested(description: str | None = None, latest: str = "1.0.0", **version) -> int:
    """The exclusion reasons ingest gives a one-version document."""
    t0 = "2024-01-01T00:00:00.000Z"
    tree = {"name": "x", "dist-tags": {"latest": latest}, "versions": {latest: version}, "time": {"created": t0, "modified": t0}}
    if description is not None:
        tree["description"] = description
    return parse_record(json.dumps(tree).encode()).exclusion_reasons


@pytest.mark.parametrize("description,expected", PHRASE_TABLE)
def test_security_holding_phrase_rule(description, expected):
    assert bool(ingested(description=description) & SECURITY_HOLDING) is expected


def test_security_holding_placeholder_flag():
    assert ingested(latest="0.0.1-security") & SECURITY_HOLDING
    assert reason_names(make_record("x", security_holding=True).exclusion_reasons) == ("SecurityHolding",)


@pytest.mark.parametrize(
    "deprecated,expected",
    [("use pkg-x instead", True), (True, True), (False, False), (None, False), ("", False), (1, False)],
)
def test_deprecated_latest(deprecated, expected):
    assert bool(ingested(deprecated=deprecated) & DEPRECATED) is expected


@pytest.mark.parametrize(
    "repo,license_value,expected",
    [
        (False, "UNLICENSED", True),
        (False, "unlicensed", True),
        (False, None, True),
        (False, "  ", True),
        (False, "XYZ", True),
        (False, "personal use", True),
        (False, "MIT", False),
        (True, None, False),
        (True, "UNLICENSED", False),
    ],
)
def test_lacks_repo_and_license(repo, license_value, expected):
    version = {"repository": "github:u/r"} if repo else {}
    if license_value is not None:
        version["license"] = license_value
    assert bool(ingested(**version) & NO_REPO_NO_LICENSE) is expected


def by_package_id(verdicts) -> dict:
    """Each verdict under the package id of its record."""
    return {f"{name}@{version}": v for name, version, v in zip(verdicts.names, verdicts.versions, verdicts)}


def test_dependents_veto_exclusion():
    holding = make_record("hold", security_holding=True)
    user = make_record("user", dependencies=("hold",))
    corpus = make_corpus([holding, user])
    filtered, verdicts = apply_exclusions(corpus)
    by_id = by_package_id(verdicts)
    assert by_id["hold@1.0.0"].excluded is False
    assert by_id["hold@1.0.0"].had_dependents is True
    assert by_id["hold@1.0.0"].reasons == ("SecurityHolding",)
    assert len(filtered.names) == 2


def test_deprecated_unused_removed():
    dead = make_record("dead", deprecated="gone")
    other = make_record("other")
    corpus = make_corpus([dead, other])
    filtered, verdicts = apply_exclusions(corpus)
    by_id = by_package_id(verdicts)
    assert by_id["dead@1.0.0"].excluded is True
    assert by_id["dead@1.0.0"].reasons == ("DeprecatedUnused",)
    assert list(filtered.names) == ["other"]


def test_multi_reason_counted_once():
    rec = make_record(
        "multi", security_holding=True, deprecated=True, repository_present=False, license_value=None
    )
    corpus = make_corpus([rec])
    filtered, verdicts = apply_exclusions(corpus)
    assert verdicts[0].reasons == ("SecurityHolding", "DeprecatedUnused", "NoRepoNoLicense")
    assert verdicts[0].excluded is True
    assert len(filtered.names) == 0


def test_listing_only_itself_does_not_veto_exclusion():
    loner = make_record("loner", deprecated=True, dependencies=("loner",))
    corpus = make_corpus([loner, make_record("other")])
    filtered, verdicts = apply_exclusions(corpus)
    by_id = by_package_id(verdicts)
    assert by_id["loner@1.0.0"].had_dependents is False
    assert by_id["loner@1.0.0"].excluded is True
    assert list(filtered.names) == ["other"]


def test_partition_and_verdict_invariants():
    corpus = random_corpus(seed=99, size=200)
    filtered, verdicts = apply_exclusions(corpus)
    excluded = [v for v in verdicts if v.excluded]
    assert len(filtered.names) + len(excluded) == len(corpus.names)
    for v in verdicts:
        assert v.excluded == (bool(v.reasons) and not v.had_dependents)


def test_monotonicity_adding_dependent_never_excludes():
    # Adding a dependent edge can only flip excluded -> retained.
    base = random_corpus(seed=5, size=80)
    _, before = apply_exclusions(base)
    excluded_before = {package_id for package_id, v in by_package_id(before).items() if v.excluded}

    # A new package that depends on every name gives each one a dependent.
    user = make_record("zz-user", dependencies=base.names)
    _, after = apply_exclusions(make_corpus([*corpus_records(base), user]))
    excluded_after = {package_id for package_id, v in by_package_id(after).items() if v.excluded}
    assert excluded_after == set()
    assert excluded_after <= excluded_before


def test_brute_force_oracle_equivalence():
    # The reasons of each record's bits plus a straight dependents count.
    for seed in range(8):
        corpus = random_corpus(seed=seed, size=150)
        filtered, verdicts = apply_exclusions(corpus)
        loaded = corpus_records(corpus)
        for pos, (rec, verdict) in enumerate(zip(loaded, verdicts)):
            reasons = reason_names(rec.exclusion_reasons)
            has_dep = any(rec.name in other.dependencies and other.name != rec.name for other in loaded)
            assert (verdicts.names[pos], verdicts.versions[pos]) == (rec.name, rec.version)
            assert tuple(reasons) == verdict.reasons
            assert verdict.had_dependents == has_dep
            assert verdict.excluded == (bool(reasons) and not has_dep)


def shuffled_loads(tmp_path, lines: list[bytes], seeds=range(3)):
    """The corpus ``load_corpus`` reads from ``lines`` as given, and from each shuffle of them."""
    for seed in (None, *seeds):
        order = list(lines)
        if seed is not None:
            random.Random(seed).shuffle(order)
        path = tmp_path / f"order-{seed}.ndjson"
        path.write_bytes(b"".join(order))
        yield order, load_corpus(path)


def test_order_independence(tmp_path):
    snapshot = generate(GenerationPlan(seed=3, package_count=600)).write_snapshot(tmp_path / "snapshot.ndjson", layout="ndjson")
    lines = snapshot.read_bytes().splitlines(keepends=True)
    results = []
    for _, corpus in shuffled_loads(tmp_path, lines):
        filtered, verdicts = apply_exclusions(corpus)
        # Only the digest of the file's bytes depends on the order.
        results.append((dataclasses.replace(filtered, digest=""), verdicts.flags))
    filtered, flags = results[0]
    assert 0 < len(filtered.names) < len(flags)  # the corpus does exclude records
    assert any(flag >= 8 for flag in flags)  # and some records have dependents
    assert all(result == (filtered, flags) for result in results)


def test_the_first_of_a_repeated_name_in_file_order_wins(tmp_path):
    def document(name: str, version: str, dependencies: dict) -> bytes:
        t0 = "2024-01-01T00:00:00.000Z"
        tree = {"name": name, "dist-tags": {"latest": version}, "time": {"modified": t0}, "repository": "github:u/r"}
        tree["versions"] = {version: {"dependencies": dependencies, "deprecated": "gone"}}
        return (json.dumps(tree) + "\n").encode()

    lines = [
        document("dup", "1.0.0", {"lib": "^1"}),
        document("dup", "2.0.0", {}),
        document("lib", "1.0.0", {}),
        document("other", "1.0.0", {}),
    ]
    versions = set()
    for order, corpus in shuffled_loads(tmp_path, lines, seeds=range(6)):
        first = next(line for line in order if b'"dup"' in line)
        version = json.loads(first)["dist-tags"]["latest"]
        versions.add(version)
        assert corpus.stats.by_error == {"duplicate_name": 1}
        assert [rec.package_id for rec in corpus_records(corpus)] == [f"dup@{version}", "lib@1.0.0", "other@1.0.0"]
        # Only the first "dup" declares "lib", which its dependent keeps from exclusion.
        filtered, verdicts = apply_exclusions(corpus)
        assert list(filtered.names) == (["lib"] if version == "1.0.0" else [])
        assert verdicts.flags[1] == (DEPRECATED | 8 if version == "1.0.0" else DEPRECATED)
    assert versions == {"1.0.0", "2.0.0"}  # the shuffles put each one first


def test_the_filtered_corpus_keeps_one_domain_for_each_identity_a_kept_record_lists():
    # "zz-gone" is excluded, and it alone lists "only@gone.io".
    gone = make_record("zz-gone", deprecated=True, maintainers=(person(email="only@gone.io"),))
    for seed in range(8):
        corpus = make_corpus([*random_records(seed=seed, size=150), gone])
        filtered, _ = apply_exclusions(corpus)
        first_listed = list(dict.fromkeys(key for rec in corpus_records(filtered) for key in rec.maintainers))
        assert list(filtered.identity_keys) == first_listed
        assert len(filtered.identity_domains) == len(first_listed)
        domains = email_domains(corpus)
        assert filtered.identity_domains == tuple(domains.get(key) for key in first_listed)
        assert domains["only@gone.io"] == "gone.io"
        assert "only@gone.io" not in filtered.identity_keys
        assert "gone.io" not in filtered.identity_domains


# --- the verdict sequence -----------------------------------------------------------------


@st.composite
def exclusion_corpora(draw):
    """A small corpus with every mix of exclusion reasons and dependents, and each record's reference reasons."""
    denylist = draw(st.sampled_from((DEFAULT_LICENSE_DENYLIST, ("MIT",), ())))
    names = [f"p{i}" for i in range(draw(st.integers(0, 10)))]
    records, reasons = [], {}
    for name in names:
        fields = {
            "repository_present": draw(st.booleans()),
            "license_value": draw(st.sampled_from(("MIT", None, "", " unlicensed ", "XYZ"))),
            "deprecated": draw(st.sampled_from((None, "", "old", True, False))),
            "security_holding": draw(st.booleans()),
        }
        dependencies = tuple(draw(st.lists(st.sampled_from([*names, "outside"]), unique=True, max_size=3)))
        records.append(make_record(name, dependencies=dependencies, license_denylist=denylist, **fields))
        reasons[name] = reference_reasons(**fields, denylist=denylist)
    return make_corpus(records), reasons


@given(exclusion_corpora())
def test_verdicts_equal_the_eager_computation_by_position(corpus_and_reasons):
    corpus, reasons_by_name = corpus_and_reasons
    eager = []
    loaded = corpus_records(corpus)
    for rec in loaded:
        reasons = reasons_by_name[rec.name]
        had = any(rec.name in other.dependencies for other in loaded if other.name != rec.name)
        eager.append(Verdict(excluded=bool(reasons) and not had, reasons=reasons, had_dependents=had))
    filtered, verdicts = apply_exclusions(corpus)
    n = len(eager)
    assert len(verdicts) == n
    assert list(verdicts) == eager
    assert [verdicts[pos] for pos in range(n)] == eager
    assert [verdicts[pos] for pos in range(-n, 0)] == eager
    assert tuple(corpus_records(filtered)) == tuple(rec for rec, v in zip(loaded, eager) if not v.excluded)
    assert verdicts.excluded_counts() == Counter(v.reasons for v in eager if v.excluded)
    # The writer's lines come in package-id order, ties by position.
    order = sorted(range(n), key=lambda pos: loaded[pos].package_id)
    assert [json.loads(line) for line in pipeline._exclusion_lines(verdicts)] == [
        {
            "package_id": rec.package_id,
            "excluded": v.excluded,
            "reasons": list(v.reasons),
            "had_dependents": v.had_dependents,
        }
        for rec, v in map(lambda pos: (loaded[pos], eager[pos]), order)
    ]
    listed = {key for rec in corpus_records(filtered) for key in rec.maintainers}
    assert set(filtered.identity_keys) == listed
    assert email_domains(filtered) == {key: domain for key, domain in email_domains(corpus).items() if key in listed}
    for pos in (n, -n - 1):
        with pytest.raises(IndexError):
            verdicts[pos]


def test_a_scan_frees_the_loaded_corpus_once_exclusions_return(tmp_path, monkeypatch):
    snapshot = generate(GenerationPlan(seed=3, package_count=600)).write_snapshot(tmp_path / "snapshot.ndjson", layout="ndjson")
    loaded = []

    def load_and_watch(*args, **kwargs):
        corpus = load_corpus(*args, **kwargs)
        loaded.append(weakref.ref(corpus.dep_targets))
        return corpus

    monkeypatch.setattr(pipeline, "load_corpus", load_and_watch)
    result = pipeline.run_scan(pipeline.ScanOptions(input_path=snapshot))
    assert 0 < len(result.filtered.names) < len(result.verdicts)
    assert len(loaded) == 1 and loaded[0]() is None


def test_verdict_state_costs_at_most_16_bytes_per_record():
    corpus = random_corpus(seed=15, size=5_000)
    tracemalloc.start()
    try:
        filtered, verdicts = apply_exclusions(corpus)
        with_verdicts = tracemalloc.get_traced_memory()[0]
        del verdicts
        verdict_bytes = with_verdicts - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < len(filtered.names) < len(corpus.names)
    assert verdict_bytes <= 16 * len(corpus.names)
