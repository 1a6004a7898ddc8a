"""Noise-package exclusion.

A package is removed from analysis only when it has no direct dependents AND
at least one exclusion reason: ``ingest.parse_record`` decides each record's
reasons (security-holding placeholder, deprecated latest version, neither a
repository nor a valid license). Dependents always veto exclusion, so
``apply_exclusions`` marks the positions with dependents over the full
corpus it is given.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import compress
from operator import index, or_

from .ingest import EXCLUSION_REASONS, Corpus, PackageRecord

# A record's verdict is one byte: its exclusion-reason bits, plus
# _HAD_DEPENDENTS when some other record declares its name.
_HAD_DEPENDENTS = 8
_REASON_SETS = tuple(tuple(compress(EXCLUSION_REASONS, (i & 1, i & 2, i & 4))) for i in range(_HAD_DEPENDENTS))
# What each verdict byte says: (excluded, reasons, had_dependents).
_VERDICT_FIELDS = tuple(
    (0 < flag < _HAD_DEPENDENTS, _REASON_SETS[flag & ~_HAD_DEPENDENTS], flag >= _HAD_DEPENDENTS) for flag in range(16)
)


@dataclass(frozen=True, slots=True)
class ExclusionVerdict:
    record: PackageRecord
    excluded: bool
    reasons: tuple[str, ...]
    had_dependents: bool


class ExclusionVerdicts(Sequence):
    """The verdict of each record of a corpus, by position, built when read.

    ``flags[p]`` is the verdict byte of the record at position ``p`` of
    ``corpus``, so the sequence holds one byte per record and no verdict
    object.
    """

    # A plain class: building a slotted dataclass adds ~1.5 ms to importing the CLI.
    __slots__ = ("corpus", "flags")

    def __init__(self, corpus: Corpus, flags: bytes) -> None:
        self.corpus = corpus
        self.flags = flags

    def __len__(self) -> int:
        return len(self.flags)

    def __getitem__(self, pos: int) -> ExclusionVerdict:
        pos = index(pos)  # one position; a slice is a TypeError
        return _verdict(self.corpus.records[pos], self.flags[pos])

    def __iter__(self) -> Iterator[ExclusionVerdict]:
        return map(_verdict, self.corpus.records, self.flags)

    def report_line(self, pos: int) -> dict:
        """The ``exclusions.jsonl`` line of the record at ``pos``, built without a verdict object."""
        excluded, reasons, had_dependents = _VERDICT_FIELDS[self.flags[pos]]
        return {
            "package_id": f"{self.corpus.names[pos]}@{self.corpus.versions[pos]}",
            "excluded": excluded,
            "reasons": list(reasons),
            "had_dependents": had_dependents,
        }

    def excluded_counts(self) -> dict[tuple[str, ...], int]:
        """The number of excluded records with each set of reasons, for the sets that excluded any."""
        return {_REASON_SETS[flag]: n for flag in range(1, _HAD_DEPENDENTS) if (n := self.flags.count(flag))}


def _verdict(rec: PackageRecord, flag: int) -> ExclusionVerdict:
    return ExclusionVerdict(rec, *_VERDICT_FIELDS[flag])


def apply_exclusions(corpus: Corpus) -> tuple[Corpus, ExclusionVerdicts]:
    """Filter the corpus, keeping its name order, and return the verdicts aligned with its records.

    A record is kept unless it has a reason and no dependents. The
    dependents are those in ``corpus`` itself, the full pre-exclusion
    corpus: the "no dependents" test references the whole registry. A
    record is never its own dependent, since ingest drops self-edges. The
    verdicts are one byte per record; each ``ExclusionVerdict`` is built
    when it is read. The filtered corpus keeps only the identities its
    records list.
    """
    depended = bytearray(len(corpus.names))
    for pos in corpus.dep_targets:
        depended[pos] = _HAD_DEPENDENTS
    flags = bytes(map(or_, corpus.exclusion_reasons, depended))
    del depended
    kept = corpus.subset(not 0 < flag < _HAD_DEPENDENTS for flag in flags)  # no reason, or dependents
    return kept, ExclusionVerdicts(corpus, flags)
