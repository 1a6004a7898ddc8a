"""Multi-signal combination analysis.

Reproduces the case-study computations: popular-package sampling (top-n by
dependents union top-n by downloads), keyword hunting inside install
scripts, signal-set intersections, and the two attack-candidate pipelines
(expired-domain hijack and overloaded-inactive takeover).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Sequence

from .ingest import Corpus
from .providers import DownloadsProvider
from .reach import DependentsIndex, top_n
from .signals import (
    AnalyzerConfig,
    ScriptPattern,
    WeakLinkFinding,
    classify_script,
    find_suspicious_tokens,
    install_script_keys,
)

# Signal ids used for combination sets. "W3" at combination level means the
# inactive-package set; the W3 sub-signals stay available under their own ids.
COMBINATION_W3 = "W3_inactive_pkg"

# The canonical combination table rows (ids in canonical sorted form).
DEFAULT_COMBINATIONS = (
    ("W3", "W6"),
    ("W3", "W4", "W6"),
    ("W1", "W3", "W6"),
    ("W2", "W3", "W6"),
    ("W3", "W4"),
    ("W2", "W3"),
    ("W1", "W6"),
    ("W2", "W6"),
)


@dataclass(frozen=True)
class PopularSample:
    members: frozenset[str]
    by_dependents: int
    by_downloads: int

    @property
    def union(self) -> int:
        return len(self.members)

    def to_dict(self) -> dict:
        return {
            "source_counts": {
                "by_dependents": self.by_dependents,
                "by_downloads": self.by_downloads,
                "union": self.union,
            },
        }


@dataclass(frozen=True)
class SignalSet:
    signal: str
    members: frozenset[str]


@dataclass(frozen=True)
class Combination:
    combination_id: str
    members: frozenset[str]

    @property
    def count(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class KeywordHit:
    package: str
    script_key: str
    tokens: tuple[str, ...]
    pattern: ScriptPattern


@dataclass(frozen=True)
class HijackRow:
    package: str
    maintainer_emails: tuple[str, ...]
    domains: tuple[str, ...]
    dependents: int
    downloads: int | None


@dataclass(frozen=True)
class TakeoverRow:
    package: str
    maintainer_key: str
    reach: int
    dependents: int
    downloads: int | None


@dataclass(frozen=True)
class AttackReport:
    hijackable: tuple[HijackRow, ...]
    takeover_candidates: tuple[TakeoverRow, ...]


def popular_sample(
    corpus: Corpus,
    dindex: DependentsIndex,
    downloads: DownloadsProvider,
    n: int,
) -> PopularSample:
    """Top-n by direct dependents union top-n by downloads, deduped.

    Both sides rank the record positions: the dependent counts of the
    index, and the provider's ``counts``, which are aligned with the
    records. Ranking ties at the n-th position are included on both sides.
    Unknown downloads rank as zero; a provider with no data at all
    contributes nothing to the union.
    """
    if n < 1:
        raise ValueError("popular sample size must be >= 1")
    records = corpus.records
    if not records:
        return PopularSample(members=frozenset(), by_dependents=0, by_downloads=0)
    positions = range(len(records))
    dep_top = top_n(positions, dindex.counts(), n)
    # A provider with no data at all would rank everything at zero and the
    # closed cutoff would sweep in the whole corpus; skip that side instead.
    if downloads.has_data:
        if len(downloads.counts) != len(records):
            raise ValueError(f"{len(downloads.counts)} download counts for {len(records)} packages")
        dl_top = top_n(positions, array("q", map(max, downloads.counts, repeat(0))), n)  # unknown (-1) ranks as 0
    else:
        dl_top = []
    members = frozenset(records[pos].name for pos, _ in chain(dep_top, dl_top))
    return PopularSample(members=members, by_dependents=len(dep_top), by_downloads=len(dl_top))


def signal_sets(findings: Sequence[WeakLinkFinding]) -> dict[str, SignalSet]:
    """Package-subject member sets per signal, with combination-level W1..W6 ids."""
    members: dict[str, set[str]] = {}
    for finding in findings:
        if finding.subject_kind != "package":
            continue
        members.setdefault(finding.signal, set()).add(finding.subject_id)
    sets = {signal: SignalSet(signal=signal, members=frozenset(ids)) for signal, ids in members.items()}
    if COMBINATION_W3 in sets:
        sets["W3"] = SignalSet(signal="W3", members=sets[COMBINATION_W3].members)
    return sets


def intersect(signals: Sequence[SignalSet], scope: PopularSample | None = None) -> Combination:
    """Set intersection under a canonical sorted combination id."""
    if len(signals) < 2:
        raise ValueError("need at least two signal sets to intersect")
    ids = sorted(s.signal for s in signals)
    members: frozenset[str] = signals[0].members
    for s in signals[1:]:
        members &= s.members
    if scope is not None:
        members &= scope.members
    return Combination(combination_id="+".join(ids), members=members)


def combination_table(
    findings: Sequence[WeakLinkFinding],
    scope: PopularSample | None = None,
) -> list[Combination]:
    """The canonical combination rows, scope-restricted, sorted by id."""
    sets = signal_sets(findings)
    empty = frozenset()
    rows = []
    for combo in DEFAULT_COMBINATIONS:
        selected = [sets.get(signal, SignalSet(signal=signal, members=empty)) for signal in combo]
        rows.append(intersect(selected, scope))
    return sorted(rows, key=lambda row: row.combination_id)


def keyword_hunt(corpus: Corpus, cfg: AnalyzerConfig) -> list[KeywordHit]:
    """Suspicious tokens inside install scripts.

    Runs over the install-script population only and flags packages whose
    install-script bodies contain any configured token; each hit carries
    the script classifier's verdict. The result is always a subset of the
    W2 member set.
    """
    hits = []
    for rec in corpus.records:
        keys = install_script_keys(rec.scripts, cfg.install_key_pattern)
        for key in keys:
            body = rec.scripts[key]
            tokens = find_suspicious_tokens(body, cfg.suspicious_tokens)
            if tokens:
                hits.append(
                    KeywordHit(
                        package=rec.name,
                        script_key=key,
                        tokens=tuple(tokens),
                        pattern=classify_script(body),
                    )
                )
    return sorted(hits, key=lambda h: (h.package, h.script_key))


def attack_candidates(
    corpus: Corpus,
    findings: Sequence[WeakLinkFinding],
    dindex: DependentsIndex,
    downloads: DownloadsProvider,
) -> AttackReport:
    """The two narrative attack pipelines as first-class reports.

    (a) hijackable: inactive packages with at least one expired-domain
        maintainer, listing the takeover emails.
    (b) takeover candidates: packages owned by overloaded maintainers whose
        entire portfolio is inactive (evidence inactive_owned_share == 1;
        exact, since k / n == 1.0 only when k == n).
    """
    inactive = {f.subject_id for f in findings if f.signal == "W3_inactive_pkg" and f.subject_kind == "package"}
    w1_by_pkg: dict[str, list[WeakLinkFinding]] = {}
    for f in findings:
        if f.signal == "W1" and f.subject_kind == "package":
            w1_by_pkg.setdefault(f.subject_id, []).append(f)

    hijackable = []
    for pkg in sorted(set(w1_by_pkg) & inactive):
        entries = w1_by_pkg[pkg]
        emails = tuple(sorted({f.value("maintainer_key") for f in entries}))
        domains = tuple(sorted({f.value("domain") for f in entries}))
        hijackable.append(
            HijackRow(
                package=pkg,
                maintainer_emails=emails,
                domains=domains,
                dependents=dindex.count(corpus.position(pkg)),
                downloads=downloads.downloads(pkg),
            )
        )

    stale_overloaded = {
        f.subject_id: f
        for f in findings
        if f.signal == "W6" and f.subject_kind == "maintainer" and f.value("inactive_owned_share") == 1
    }
    takeover = []
    w6_pkgs = [f for f in findings if f.signal == "W6" and f.subject_kind == "package"]
    seen = set()
    for f in w6_pkgs:
        key = f.value("maintainer_key")
        if key not in stale_overloaded:
            continue
        if (f.subject_id, key) in seen:
            continue
        seen.add((f.subject_id, key))
        takeover.append(
            TakeoverRow(
                package=f.subject_id,
                maintainer_key=key,
                reach=stale_overloaded[key].value("reach"),
                dependents=dindex.count(corpus.position(f.subject_id)),
                downloads=downloads.downloads(f.subject_id),
            )
        )
    takeover.sort(key=lambda row: (row.package, row.maintainer_key))
    return AttackReport(hijackable=tuple(hijackable), takeover_candidates=tuple(takeover))
