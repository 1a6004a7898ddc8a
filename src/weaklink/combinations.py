"""Multi-signal combination analysis.

Reproduces the case-study computations: popular-package sampling (top-n by
dependents union top-n by downloads), keyword hunting inside install
scripts, the combination table (the popular packages that several signals
flag at once), and the two attack-candidate pipelines (expired-domain
hijack and overloaded-inactive takeover).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter

from .ingest import Corpus
from .providers import DownloadsProvider
from .reach import DependentsIndex, top_n
from .signals import (
    AnalyzerConfig,
    Findings,
    ScriptPattern,
    classify_script,
    find_suspicious_tokens,
)

# "W3" at combination level means the inactive-package signal; the other W3
# sub-signals are in no combination.
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
# Each combination-level signal's bit in a package's flags.
_SIGNAL_BITS = {signal: 1 << i for i, signal in enumerate(sorted(set(chain.from_iterable(DEFAULT_COMBINATIONS))))}


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
    names = corpus.names
    positions = range(len(names))
    dep_top = top_n(positions, dindex.counts(), n)
    # A provider with no data at all would rank everything at zero and the
    # closed cutoff would sweep in the whole corpus; skip that side instead.
    if downloads.has_data:
        if len(downloads.counts) != len(names):
            raise ValueError(f"{len(downloads.counts)} download counts for {len(names)} packages")
        dl_top = top_n(positions, array("q", map(max, downloads.counts, repeat(0))), n)  # unknown (-1) ranks as 0
    else:
        dl_top = []
    members = frozenset(names[pos] for pos, _ in chain(dep_top, dl_top))
    return PopularSample(members=members, by_dependents=len(dep_top), by_downloads=len(dl_top))


def combination_table(corpus: Corpus, findings: Findings, scope: PopularSample) -> list[Combination]:
    """The canonical combination rows over the popular sample, sorted by id.

    Each sampled position gets a bit for every combination-level signal
    that flags its package; a row's members are the sampled packages that
    hold every bit of the row. No signal's full member set is built.
    """
    held = dict.fromkeys(map(corpus.position, scope.members), 0)
    for signal, bit in _SIGNAL_BITS.items():
        for pos in findings.packages(COMBINATION_W3 if signal == "W3" else signal):
            if pos in held:
                held[pos] |= bit
    names = corpus.names
    rows = []
    for combo in DEFAULT_COMBINATIONS:
        mask = sum(_SIGNAL_BITS[signal] for signal in combo)
        rows.append(Combination("+".join(combo), frozenset(names[pos] for pos, bits in held.items() if bits & mask == mask)))
    return sorted(rows, key=attrgetter("combination_id"))


def keyword_hunt(corpus: Corpus, cfg: AnalyzerConfig) -> list[KeywordHit]:
    """Suspicious tokens inside install scripts.

    Runs over the install-script population only and flags packages whose
    install-script bodies contain any configured token; each hit carries
    the script classifier's verdict. The result is always a subset of the
    W2 member set.
    """
    hits = []
    for pos, scripts in corpus.scripts.items():
        for key in sorted(scripts):
            body = scripts[key]
            tokens = find_suspicious_tokens(body, cfg.suspicious_tokens)
            if tokens:
                hits.append(
                    KeywordHit(
                        package=corpus.names[pos],
                        script_key=key,
                        tokens=tuple(tokens),
                        pattern=classify_script(body),
                    )
                )
    return hits  # scripts come in position order, so name order, each one's keys sorted


def attack_candidates(
    corpus: Corpus,
    findings: Findings,
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
    names = corpus.names
    inactive = findings.packages(COMBINATION_W3)  # ascending; no set of every inactive package is built
    expired: dict[int, list[int]] = {}  # each inactive W1 package's rows of W1
    w1 = findings.rows.get("W1")
    for row, ident in enumerate(w1.subjects if w1 else ()):
        for pos in w1.owners.owned(ident):
            at = bisect_left(inactive, pos)
            if at < len(inactive) and inactive[at] == pos:
                expired.setdefault(pos, []).append(row)
    hijackable = []
    for pos in sorted(expired):
        rows = expired[pos]
        hijackable.append(
            HijackRow(
                package=names[pos],
                maintainer_emails=tuple(sorted({w1.column("maintainer_key")[row] for row in rows})),
                domains=tuple(sorted({w1.column("domain")[row] for row in rows})),
                dependents=dindex.count(pos),
                downloads=downloads.downloads(names[pos]),
            )
        )

    # An identity owns each of its packages once, so each (package,
    # maintainer) pair is one row.
    stale_owned = []
    w6 = findings.rows.get("W6")
    if w6:
        for ident, share, key, reach in zip(
            w6.subjects, w6.column("inactive_owned_share"), w6.column("maintainer_key"), w6.column("reach")
        ):
            if share == 1:
                stale_owned.extend((pos, key, reach) for pos in w6.owners.owned(ident))
    stale_owned.sort()  # by package, as positions are in name order, then by maintainer
    takeover = tuple(
        TakeoverRow(
            package=names[pos],
            maintainer_key=key,
            reach=reach,
            dependents=dindex.count(pos),
            downloads=downloads.downloads(names[pos]),
        )
        for pos, key, reach in stale_owned
    )
    return AttackReport(hijackable=tuple(hijackable), takeover_candidates=takeover)
