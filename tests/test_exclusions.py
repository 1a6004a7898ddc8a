"""Exclusion reasons as ingest decides them, and the filter, checked against brute force."""

from __future__ import annotations

import json
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weaklink.exclusions import ExclusionVerdict, apply_exclusions
from weaklink.ingest import DEFAULT_LICENSE_DENYLIST, DEPRECATED, NO_REPO_NO_LICENSE, SECURITY_HOLDING, parse_record
from weaklink.reach import names_with_dependents

from conftest import make_corpus, make_record, random_corpus
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


def test_dependents_veto_exclusion():
    holding = make_record("hold", security_holding=True)
    user = make_record("user", dependencies=("hold",))
    corpus = make_corpus([holding, user])
    filtered, verdicts = apply_exclusions(corpus)
    by_id = {v.record.package_id: v for v in verdicts}
    assert by_id["hold@1.0.0"].excluded is False
    assert by_id["hold@1.0.0"].had_dependents is True
    assert by_id["hold@1.0.0"].reasons == ("SecurityHolding",)
    assert len(filtered.records) == 2


def test_deprecated_unused_removed():
    dead = make_record("dead", deprecated="gone")
    other = make_record("other")
    corpus = make_corpus([dead, other])
    filtered, verdicts = apply_exclusions(corpus)
    by_id = {v.record.package_id: v for v in verdicts}
    assert by_id["dead@1.0.0"].excluded is True
    assert by_id["dead@1.0.0"].reasons == ("DeprecatedUnused",)
    assert [rec.name for rec in filtered.records] == ["other"]


def test_multi_reason_counted_once():
    rec = make_record(
        "multi", security_holding=True, deprecated=True, repository_present=False, license_value=None
    )
    corpus = make_corpus([rec])
    filtered, verdicts = apply_exclusions(corpus)
    assert verdicts[0].reasons == ("SecurityHolding", "DeprecatedUnused", "NoRepoNoLicense")
    assert verdicts[0].excluded is True
    assert len(filtered.records) == 0


def test_listing_only_itself_does_not_veto_exclusion():
    loner = make_record("loner", deprecated=True, dependencies=("loner",))
    corpus = make_corpus([loner, make_record("other")])
    filtered, verdicts = apply_exclusions(corpus)
    by_id = {v.record.package_id: v for v in verdicts}
    assert by_id["loner@1.0.0"].had_dependents is False
    assert by_id["loner@1.0.0"].excluded is True
    assert [rec.name for rec in filtered.records] == ["other"]


def test_partition_and_verdict_invariants():
    corpus = random_corpus(seed=99, size=200)
    filtered, verdicts = apply_exclusions(corpus)
    excluded = [v for v in verdicts if v.excluded]
    assert len(filtered.records) + len(excluded) == len(corpus.records)
    for v in verdicts:
        assert v.excluded == (bool(v.reasons) and not v.had_dependents)


def test_monotonicity_adding_dependent_never_excludes():
    # Adding a dependent edge can only flip excluded -> retained.
    base = random_corpus(seed=5, size=80)
    _, before = apply_exclusions(base)
    excluded_before = {v.record.package_id for v in before if v.excluded}

    # A new package that depends on every name gives each one a dependent.
    user = make_record("zz-user", dependencies=tuple(rec.name for rec in base.records))
    _, after = apply_exclusions(make_corpus([*base.records, user]))
    excluded_after = {v.record.package_id for v in after if v.excluded}
    assert excluded_after == set()
    assert excluded_after <= excluded_before


def test_brute_force_oracle_equivalence():
    # The reasons of each record's bits plus a straight dependents count.
    for seed in range(8):
        corpus = random_corpus(seed=seed, size=150)
        filtered, verdicts = apply_exclusions(corpus)
        for rec, verdict in zip(corpus.records, verdicts):
            reasons = reason_names(rec.exclusion_reasons)
            has_dep = any(rec.name in other.dependencies and other.name != rec.name for other in corpus.records)
            assert verdict.record is rec
            assert tuple(reasons) == verdict.reasons
            assert verdict.had_dependents == has_dep
            assert verdict.excluded == (bool(reasons) and not has_dep)


def test_order_independence():
    corpus = random_corpus(seed=3, size=60)
    _, verdicts = apply_exclusions(corpus)
    reversed_corpus = make_corpus(list(corpus.records))  # make_corpus re-sorts
    _, verdicts_again = apply_exclusions(reversed_corpus)
    assert sorted(v.record.package_id for v in verdicts) == sorted(v.record.package_id for v in verdicts_again)
    excluded = {v.record.package_id: v.excluded for v in verdicts}
    assert excluded == {v.record.package_id: v.excluded for v in verdicts_again}


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
    depended = names_with_dependents(corpus)
    eager = []
    for rec in corpus.records:
        reasons = reasons_by_name[rec.name]
        had = rec.name in depended
        eager.append(ExclusionVerdict(record=rec, excluded=bool(reasons) and not had, reasons=reasons, had_dependents=had))
    filtered, verdicts = apply_exclusions(corpus)
    n = len(eager)
    assert len(verdicts) == n
    assert list(verdicts) == eager
    assert [verdicts[pos] for pos in range(n)] == eager
    assert [verdicts[pos] for pos in range(-n, 0)] == eager
    assert filtered.records == tuple(v.record for v in eager if not v.excluded)
    assert verdicts.excluded_counts() == Counter(v.reasons for v in eager if v.excluded)
    assert [verdicts.report_line(pos) for pos in range(n)] == [
        {
            "package_id": v.record.package_id,
            "excluded": v.excluded,
            "reasons": list(v.reasons),
            "had_dependents": v.had_dependents,
        }
        for v in eager
    ]
    assert filtered.email_domains is corpus.email_domains
    for pos in (n, -n - 1):
        with pytest.raises(IndexError):
            verdicts[pos]


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
    assert 0 < len(filtered.records) < len(corpus.records)
    assert verdict_bytes <= 16 * len(corpus.records)
