"""Scan orchestration and canonical report emission.

Pipeline order: ingest -> exclusions -> indexes over the filtered corpus,
each built once and keyed by record position -> analyzers, whose findings
are sorted into report order once -> combinations.
All report files are canonical (sorted keys, sorted records, trailing
newline) and contain no wall-clock values, so reruns over identical inputs
and fixtures are byte-identical.
"""

from __future__ import annotations

import heapq
import json
import logging
import os
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .combinations import (
    AttackReport,
    Combination,
    KeywordHit,
    PopularSample,
    attack_candidates,
    combination_table,
    keyword_hunt,
    popular_sample,
)
from .exclusions import ExclusionVerdicts, apply_exclusions
from .ingest import Corpus, format_timestamp, load_corpus
from .providers import (
    DownloadCounts,
    EmptyDomainProvider,
    FixtureDomainProvider,
    FixtureDownloadsProvider,
    LiveDnsDomainProvider,
    LiveDownloadsProvider,
    RateLimiter,
)
from .reach import build_dependents_index, build_maintainer_index
from .signals import (
    EVIDENCE_SCHEMAS,
    AnalyzerConfig,
    WeakLinkFinding,
    analyze_w1,
    analyze_w2,
    analyze_w3,
    analyze_w4,
    analyze_w5,
    analyze_w6,
    canonical_json,
    is_inactive,
    mean_maintainers,
    sort_findings,
)

logger = logging.getLogger(__name__)

FINDINGS_SCHEMA_VERSION = 1
MEMBER_SAMPLE_CAP = 100


@dataclass
class ScanOptions:
    input_path: str | Path
    layout: str | None = None  # autodetect when None
    config: AnalyzerConfig = field(default_factory=AnalyzerConfig)
    dep_kinds: tuple[str, ...] = ("runtime",)
    popular_n: int = 10_000
    domains_fixture: str | Path | None = None
    downloads_fixture: str | Path | None = None
    live: bool = False
    rate_limit: float = 10.0
    downloads_base_url: str = "https://api.npmjs.org"
    dns_resolver: tuple[str, int] = ("8.8.8.8", 53)
    jobs: int = os.cpu_count() or 1  # concurrent live downloads lookups


@dataclass
class ScanResult:
    options: ScanOptions
    filtered: Corpus  # its stats and digest are the load's
    verdicts: ExclusionVerdicts  # one per loaded record, by load position
    config: AnalyzerConfig
    findings: list[WeakLinkFinding]
    domain_histogram: dict[str, int]
    popular: PopularSample
    combinations: list[Combination]
    keyword_hits: list[KeywordHit]
    attack: AttackReport
    maintainers: int
    stale_maintainers: int
    provider_warnings: int


def _make_providers(options: ScanOptions, names: Sequence[str]):
    """The domain provider and the downloads counts of ``names``, fetched once in live mode."""
    if options.domains_fixture:
        domains = FixtureDomainProvider(options.domains_fixture)
    elif options.live:
        domains = LiveDnsDomainProvider(resolver=options.dns_resolver, limiter=RateLimiter(options.rate_limit))
    else:
        domains = EmptyDomainProvider()
    if options.downloads_fixture:
        downloads = FixtureDownloadsProvider(options.downloads_fixture, names)
    elif options.live:
        # One bounded-concurrency pass up front; every later lookup reads
        # the fetched counts and the per-run query count stays exact.
        live = LiveDownloadsProvider(options.downloads_base_url, rate_limit=options.rate_limit)
        downloads = live.fetch_many(names, concurrency=options.jobs)
    else:
        downloads = DownloadCounts([], array("q"), has_data=False)  # no data source: all counts unknown
    return domains, downloads


def run_scan(options: ScanOptions) -> ScanResult:
    # The corpus keeps only the dependency kinds and install scripts this
    # scan reads, and the exclusion reasons under its license denylist.
    corpus = load_corpus(
        options.input_path,
        layout=options.layout,
        dep_kinds=options.dep_kinds,
        install_key_pattern=options.config.install_key_pattern,
        license_denylist=options.config.license_denylist,
    )
    filtered, verdicts = apply_exclusions(corpus)
    del corpus  # the filtered corpus and the verdicts keep what the reports read of it

    domains, downloads = _make_providers(options, filtered.names)

    cfg = options.config.resolved(filtered)
    dindex = build_dependents_index(filtered)
    mindex = build_maintainer_index(filtered)

    # W1 checks each distinct (lowercased) maintainer domain once.
    findings, histogram = analyze_w1(filtered, mindex, domains, cfg)
    findings += analyze_w2(filtered, cfg)
    findings += analyze_w3(filtered, mindex, cfg)
    findings += analyze_w4(filtered, cfg)
    findings += analyze_w5(filtered, cfg)
    findings += analyze_w6(filtered, mindex, dindex, cfg)
    sort_findings(findings)  # report order

    popular = popular_sample(filtered, dindex, downloads, options.popular_n)
    return ScanResult(
        options=options,
        filtered=filtered,
        verdicts=verdicts,
        config=cfg,
        findings=findings,
        domain_histogram=histogram,
        popular=popular,
        combinations=combination_table(findings, scope=popular),
        keyword_hits=keyword_hunt(filtered, cfg),
        attack=attack_candidates(filtered, findings, dindex, downloads),
        maintainers=len(mindex),
        stale_maintainers=sum(1 for last in mindex.last_activity if is_inactive(last, cfg)),
        provider_warnings=domains.warnings + downloads.warnings,
    )


# --- canonical writers ----------------------------------------------------


def _dump_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _summary(result: ScanResult) -> dict:
    """The summary report of a scan: counts, rates and the config echo."""
    options, filtered = result.options, result.filtered
    n_filtered = len(filtered.names)
    excluded_sets = result.verdicts.excluded_counts()
    by_reason: dict[str, int] = {}
    for reasons, count in excluded_sets.items():
        for reason in reasons:
            by_reason[reason] = by_reason.get(reason, 0) + count

    by_signal: dict[str, list[WeakLinkFinding]] = {}
    for f in result.findings:
        by_signal.setdefault(f.signal, []).append(f)

    with_contrib = n_filtered - filtered.contributor_counts.count(0)
    with_maints = n_filtered - filtered.maintainer_counts().count(0)
    maintainer_count = result.maintainers

    def signal_entry(signal: str) -> dict:
        entries = by_signal.get(signal, [])
        pkg_subjects = {f.subject_id for f in entries if f.subject_kind == "package"}
        maint_subjects = {f.subject_id for f in entries if f.subject_kind == "maintainer"}
        if signal == "W5":
            population = with_contrib
        elif signal == "W4":
            population = with_maints
        elif signal == "W6":
            population = maintainer_count
        else:
            population = n_filtered
        subjects = len(maint_subjects) if signal == "W6" else len(pkg_subjects)
        entry = {
            "findings": len(entries),
            "package_subjects": len(pkg_subjects),
            "population": population,
            "rate": (subjects / population) if population else 0.0,
        }
        if signal == "W6":
            entry["maintainer_subjects"] = len(maint_subjects)
        return entry

    signals = {signal: signal_entry(signal) for signal in sorted(EVIDENCE_SCHEMAS)}
    histogram = result.domain_histogram
    unique_domains = sum(1 for count in histogram.values() if count == 1)
    return {
        "tool": {"name": "weaklink", "version": __version__},
        "input": {
            "path": str(options.input_path),
            "digest": filtered.digest,
            "ingest": filtered.stats.to_dict(),
        },
        "config": {
            **result.config.to_dict(),
            "dep_kinds": list(options.dep_kinds),
            "popular_n": options.popular_n,
        },
        "corpus": {
            "raw": filtered.stats.total,
            "parsed": len(result.verdicts),
            "excluded": {"total": sum(excluded_sets.values()), "by_reason": dict(sorted(by_reason.items()))},
            "filtered": n_filtered,
        },
        "registry_stats": {
            "mean_maintainers_per_package": mean_maintainers(filtered),
            "contributor_listing_share": (with_contrib / n_filtered) if n_filtered else 0.0,
            "contributor_listing_count": with_contrib,
            "inactive_package_share": signals["W3_inactive_pkg"]["rate"],
            "maintainer_count": maintainer_count,
            "stale_maintainer_count": result.stale_maintainers,
            "inactive_maintainer_share": result.stale_maintainers / maintainer_count if maintainer_count else 0.0,
            "unique_domain_share": (unique_domains / len(histogram)) if histogram else 0.0,
        },
        "signals": signals,
        "popular_sample": result.popular.to_dict(),
        "combinations": {c.combination_id: c.count for c in result.combinations},
        "pipelines": {
            "expired_domain_hijack": len(result.attack.hijackable),
            "overloaded_inactive_takeover": len(result.attack.takeover_candidates),
        },
        "keyword_hunt": {"packages": len({h.package for h in result.keyword_hits})},
        "provider_warnings": result.provider_warnings,
    }


def findings_header() -> dict:
    return {
        "kind": "header",
        "schema_version": FINDINGS_SCHEMA_VERSION,
        "tool": "weaklink",
        "evidence_schemas": {signal: list(keys) for signal, keys in EVIDENCE_SCHEMAS.items()},
    }


def _package_id_order(names: Sequence[str], versions: Sequence[str]) -> Iterator[int]:
    """The positions of name-ordered records in the order of their package ids, ties by position.

    An id extends its record's name and names ascend, so an id that sorts
    before the next record's name sorts before every later id, and is
    yielded then. The ids still held are those of names that are prefixes
    of the next name ("a@1" waits for "a-b@1"), so the ids of a whole
    corpus are never held at once.
    """
    held: list[tuple[str, int]] = []
    for pos, (name, version) in enumerate(zip(names, versions)):
        while held and held[0][0] < name:
            yield heapq.heappop(held)[1]
        heapq.heappush(held, (f"{name}@{version}", pos))
    while held:
        yield heapq.heappop(held)[1]


def write_reports(result: ScanResult, out_dir: str | Path, unsafe_full_output: bool = False) -> dict[str, Path]:
    """Write summary, findings, exclusions and the combination report.

    ``exclusions.jsonl`` holds one verdict per ingested record in package-id
    order; each line is built from the verdicts' names, versions and bytes.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    paths["summary"] = out / "summary.json"
    _dump_json(paths["summary"], _summary(result))

    paths["findings"] = out / "findings.jsonl"
    with open(paths["findings"], "w", encoding="utf-8") as fh:
        fh.write(canonical_json(findings_header()))
        fh.write("\n")
        # Every finding of a scan is observed at the scan's reference time.
        observed_at = format_timestamp(result.config.reference_time) if result.findings else None
        for finding in result.findings:
            line = finding.to_dict()
            line["observed_at"] = observed_at
            fh.write(canonical_json(line))
            fh.write("\n")

    paths["exclusions"] = out / "exclusions.jsonl"
    with open(paths["exclusions"], "w", encoding="utf-8") as fh:
        verdicts = result.verdicts
        for pos in _package_id_order(verdicts.names, verdicts.versions):
            fh.write(canonical_json(verdicts.report_line(pos)))
            fh.write("\n")

    combo_payload = {
        "combinations": [
            {
                "id": c.combination_id,
                "count": c.count,
                "members_sample": sorted(c.members)[:MEMBER_SAMPLE_CAP],
            }
            for c in result.combinations
        ],
        "pipelines": {
            "expired_domain_hijack": {
                "count": len(result.attack.hijackable),
                "rows_sample": [
                    {
                        "package": row.package,
                        "maintainer_emails": list(row.maintainer_emails),
                        "domains": list(row.domains),
                        "dependents": row.dependents,
                        "downloads": row.downloads,
                    }
                    for row in result.attack.hijackable[:MEMBER_SAMPLE_CAP]
                ],
            },
            "overloaded_inactive_takeover": {
                "count": len(result.attack.takeover_candidates),
                "rows_sample": [
                    {
                        "package": row.package,
                        "maintainer_key": row.maintainer_key,
                        "reach": row.reach,
                        "dependents": row.dependents,
                        "downloads": row.downloads,
                    }
                    for row in result.attack.takeover_candidates[:MEMBER_SAMPLE_CAP]
                ],
            },
        },
        "keyword_hunt": {
            "count": len({h.package for h in result.keyword_hits}),
            "hits_sample": [
                {
                    "package": h.package,
                    "script_key": h.script_key,
                    "tokens": list(h.tokens),
                    "category": h.pattern.category.value,
                }
                for h in result.keyword_hits[:MEMBER_SAMPLE_CAP]
            ],
        },
        "popular_sample": result.popular.to_dict(),
    }
    paths["combinations"] = out / "combinations.json"
    _dump_json(paths["combinations"], combo_payload)

    if unsafe_full_output:
        paths["combination_members"] = out / "combination_members.jsonl"
        with open(paths["combination_members"], "w", encoding="utf-8") as fh:
            for combo in result.combinations:
                for member in sorted(combo.members):
                    fh.write(canonical_json({"id": combo.combination_id, "member": member}))
                    fh.write("\n")
        paths["popular_members"] = out / "popular_members.jsonl"
        with open(paths["popular_members"], "w", encoding="utf-8") as fh:
            for member in sorted(result.popular.members):
                fh.write(canonical_json({"member": member}))
                fh.write("\n")
    return paths


def read_findings(path: str | Path) -> tuple[dict, list[str]]:
    """Read a findings JSONL file: (header, canonical finding lines)."""
    header: dict | None = None
    lines: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            if header is None:
                header = json.loads(raw)
                if header.get("kind") != "header":
                    raise ValueError(f"{path}: missing findings header")
                continue
            lines.append(raw)
    if header is None:
        raise ValueError(f"{path}: empty findings file")
    return header, lines


def diff_findings(path_a: str | Path, path_b: str | Path) -> tuple[list[str], list[str]]:
    """Added/removed finding lines between two scans; raises on schema mismatch."""
    header_a, lines_a = read_findings(path_a)
    header_b, lines_b = read_findings(path_b)
    if header_a.get("schema_version") != header_b.get("schema_version"):
        raise ValueError(
            f"schema mismatch: {header_a.get('schema_version')} vs {header_b.get('schema_version')}"
        )
    set_a, set_b = set(lines_a), set(lines_b)
    added = sorted(set_b - set_a)
    removed = sorted(set_a - set_b)
    return added, removed
