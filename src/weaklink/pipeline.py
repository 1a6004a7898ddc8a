"""Scan orchestration and canonical report emission.

Pipeline order: ingest -> exclusions -> indexes over the filtered corpus,
each built once and keyed by record position -> analyzers, each returning
its signal's typed rows -> combinations. The writer spells the rows as
report lines, in report order, as it writes them.
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
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from itertools import repeat
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
from .exclusions import VERDICTS, ExclusionVerdicts, apply_exclusions
from .ingest import Corpus, format_epoch_us, format_timestamp, load_corpus
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
    Findings,
    SignalRows,
    analyze_w1,
    analyze_w2,
    analyze_w3,
    analyze_w4,
    analyze_w5,
    analyze_w6,
    is_inactive,
    mean_maintainers,
)

logger = logging.getLogger(__name__)

# json.dumps(value, sort_keys=True) without building an encoder per call.
# It escapes strings with encode_basestring_ascii, as the line templates do.
canonical_json = json.JSONEncoder(sort_keys=True).encode

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
    # Ingest's worker processes, and concurrent live downloads lookups; by
    # default the CPUs this process may use.
    jobs: int = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@dataclass
class ScanResult:
    options: ScanOptions
    filtered: Corpus  # its stats and digest are the load's
    verdicts: ExclusionVerdicts  # one per loaded record, by load position
    config: AnalyzerConfig
    findings: Findings
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
        jobs=options.jobs,
    )
    filtered, verdicts = apply_exclusions(corpus)
    del corpus  # the filtered corpus and the verdicts keep what the reports read of it

    domains, downloads = _make_providers(options, filtered.names)

    cfg = options.config.resolved(filtered)
    dindex = build_dependents_index(filtered)
    mindex = build_maintainer_index(filtered)

    # W1 checks each distinct (lowercased) maintainer domain once.
    w1, histogram = analyze_w1(filtered, mindex, domains, cfg)
    findings = Findings(
        (
            w1,
            analyze_w2(filtered, cfg),
            *analyze_w3(filtered, mindex, cfg),
            analyze_w4(filtered, cfg),
            analyze_w5(filtered, cfg),
            analyze_w6(filtered, mindex, dindex, cfg),
        )
    )

    popular = popular_sample(filtered, dindex, downloads, options.popular_n)
    return ScanResult(
        options=options,
        filtered=filtered,
        verdicts=verdicts,
        config=cfg,
        findings=findings,
        domain_histogram=histogram,
        popular=popular,
        combinations=combination_table(filtered, findings, scope=popular),
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

    with_contrib = n_filtered - filtered.contributor_counts.count(0)
    with_maints = n_filtered - filtered.maintainer_counts().count(0)
    maintainer_count = result.maintainers

    def signal_entry(signal: str) -> dict:
        rows = result.findings.rows[signal]
        packages = len(rows.packages())
        if signal == "W5":
            population = with_contrib
        elif signal == "W4":
            population = with_maints
        elif signal == "W6":
            population = maintainer_count
        else:
            population = n_filtered
        subjects = len(rows.subjects) if rows.maintainer_findings else packages
        entry = {
            "findings": len(rows),
            "package_subjects": packages,
            "population": population,
            "rate": (subjects / population) if population else 0.0,
        }
        if rows.maintainer_findings:
            entry["maintainer_subjects"] = len(rows.subjects)
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


def _flag(value: bool | str) -> str:
    # A deprecation message is written as is; a bare flag as JSON spells it.
    if isinstance(value, str):
        return value
    return "true" if value else "false"


# How a finding line writes each evidence key, every value as a JSON
# string: the key's slot in the line's %-template, and what turns the typed
# value into the slot's argument (None: the value itself). A key means the
# same thing in every signal that carries it, so one table serves all.
# Integers are written in decimal, shares and the average to 4 decimals and
# the W5 ratio to 6 ("%.4f" % x is "{:.4f}".format(x)).
_EVIDENCE_SLOTS: dict[str, tuple[str, Callable[[object], object] | None]] = {
    "domain": ("%s", _quote),
    "maintainer_key": ("%s", _quote),
    "script_key": ("%s", lambda keys: _quote(",".join(keys))),
    "has_suspicious_tokens": ('"%s"', _flag),
    "deprecated": ("%s", lambda value: _quote(_flag(value))),
    "last_modified": ('"%s"', format_epoch_us),
    "latest_maintainer_activity": ('"%s"', format_epoch_us),
    "age_days": ('"%d"', None),
    "maintainer_count": ('"%d"', None),
    "maintainers": ('"%d"', None),
    "contributors": ('"%d"', None),
    "owned_count": ('"%d"', None),
    "reach": ('"%d"', None),
    "registry_avg": ('"%.4f"', None),
    "inactive_owned_share": ('"%.4f"', None),
    "dependency_using_share": ('"%.4f"', None),
    "ratio": ('"%.6f"', None),
}


def _template(payload: dict, slots: Sequence[str]) -> str:
    """``canonical_json(payload)`` as a %-template: a value ``f"\\0{i}"`` is written as ``slots[i]``."""
    text = canonical_json(payload).replace("%", "%%")
    for i, slot in enumerate(slots):
        text = text.replace(canonical_json(f"\0{i}"), slot)
    return text


def _evidence_template(signal: str) -> str:
    """The written evidence of ``signal`` with one slot per key, in key order."""
    keys = EVIDENCE_SCHEMAS[signal]
    return _template({key: f"\0{i}" for i, key in enumerate(keys)}, [_EVIDENCE_SLOTS[key][0] for key in keys])


def _line_template(signal: str, subject_kind: str, evidence: str, observed_at: str | None) -> str:
    """A ``findings.jsonl`` line with the slots of ``evidence``, then one for the quoted subject."""
    line = {"evidence": f"\0{0}", "observed_at": observed_at, "signal": signal, "subject_id": f"\0{1}", "subject_kind": subject_kind}
    return _template(line, (evidence, "%s")) + "\n"


def _slot_columns(rows: SignalRows) -> list[Iterable]:
    """The arguments of each evidence slot of ``rows``, column by column."""
    return [
        column if convert is None else map(convert, column)
        for column, (_slot, convert) in zip(rows.columns, map(_EVIDENCE_SLOTS.__getitem__, EVIDENCE_SCHEMAS[rows.signal]))
    ]


def _evidence_texts(rows: SignalRows) -> list[str]:
    """The written evidence of each row, ``canonical_json`` of the dict of its strings."""
    return list(map(_evidence_template(rows.signal).__mod__, zip(*_slot_columns(rows))))


def _finding_lines(rows: SignalRows, names: Sequence[str], observed_at: str | None) -> Iterable[str]:
    """The report lines of one signal's findings, in report order.

    Findings are in order of subject, then of written evidence. Positions
    ascend in name order, so a package signal's rows are in report order.
    An identity's package findings merge in with every other flagged
    identity's, and W6's maintainer findings with them all; where one
    subject has several findings their evidence decides, and a maintainer
    comes before a package of its own.
    """
    signal = rows.signal
    if rows.owners is None:
        line = _line_template(signal, "package", _evidence_template(signal), observed_at)
        return map(line.__mod__, zip(*_slot_columns(rows), map(_quote, map(names.__getitem__, rows.subjects))))
    evidence = _evidence_texts(rows)
    lines = [(names[pos], text, 1) for ident, text in zip(rows.subjects, evidence) for pos in rows.owners.owned(ident)]
    if rows.maintainer_findings:
        lines += zip(rows.column("maintainer_key"), evidence, repeat(0))
    templates = [_line_template(signal, kind, "%s", observed_at) for kind in ("maintainer", "package")]
    return (templates[kind] % (text, _quote(subject)) for subject, text, kind in sorted(lines))


def _package_id_order(names: Sequence[str], versions: Sequence[str]) -> Iterator[tuple[str, int]]:
    """The package ids of name-ordered records, ascending, each with its position; ties by position.

    An id extends its record's name and names ascend, so an id that sorts
    before the next record's name sorts before every later id, and is
    yielded then. The ids still held are those of names that are prefixes
    of the next name ("a@1" waits for "a-b@1"), so the ids of a whole
    corpus are never held at once.
    """
    held: list[tuple[str, int]] = []
    for pos, (name, version) in enumerate(zip(names, versions)):
        while held and held[0][0] < name:
            yield heapq.heappop(held)
        heapq.heappush(held, (f"{name}@{version}", pos))
    while held:
        yield heapq.heappop(held)


def _exclusion_lines(verdicts: ExclusionVerdicts) -> Iterator[str]:
    """The ``exclusions.jsonl`` lines, one per loaded record in package-id order, from one template per verdict byte."""
    templates = [
        _template(
            {"package_id": f"\0{0}", "excluded": excluded, "reasons": list(reasons), "had_dependents": had_dependents}, ("%s",)
        )
        + "\n"
        for excluded, reasons, had_dependents in VERDICTS
    ]
    flags = verdicts.flags
    for package_id, pos in _package_id_order(verdicts.names, verdicts.versions):
        yield templates[flags[pos]] % _quote(package_id)


def write_reports(result: ScanResult, out_dir: str | Path, unsafe_full_output: bool = False) -> dict[str, Path]:
    """Write summary, findings, exclusions and the combination report.

    ``findings.jsonl`` holds a header and one line per finding, written from
    each signal's rows in report order; ``exclusions.jsonl`` holds one
    verdict per ingested record in package-id order, written from the
    verdicts' names, versions and bytes.
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
        observed_at = format_timestamp(result.config.reference_time) if len(result.findings) else None
        for rows in result.findings:
            fh.writelines(_finding_lines(rows, result.filtered.names, observed_at))

    paths["exclusions"] = out / "exclusions.jsonl"
    with open(paths["exclusions"], "w", encoding="utf-8") as fh:
        fh.writelines(_exclusion_lines(result.verdicts))

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
                if not isinstance(header, dict) or header.get("kind") != "header":
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
