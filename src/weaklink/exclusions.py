"""Noise-package exclusion.

A package is removed from analysis only when it has no direct dependents AND
at least one exclusion reason: ``ingest.parse_record`` decides each record's
reasons (security-holding placeholder, deprecated latest version, neither a
repository nor a valid license). Dependents always veto exclusion, so the
names with dependents (``reach.names_with_dependents``) are collected over
the full corpus.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from itertools import compress
from operator import index

from .ingest import EXCLUSION_REASONS, Corpus, PackageRecord

# A record's verdict is one byte: its exclusion-reason bits, plus
# _HAD_DEPENDENTS when some record declares its name.
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

    ``flags[p]`` is the verdict byte of ``records[p]``, so the sequence
    holds one byte per record and no verdict object.
    """

    # A plain class: building a slotted dataclass adds ~1.5 ms to importing the CLI.
    __slots__ = ("records", "flags")

    def __init__(self, records: tuple[PackageRecord, ...], flags: bytes) -> None:
        self.records = records
        self.flags = flags

    def __len__(self) -> int:
        return len(self.flags)

    def __getitem__(self, pos: int) -> ExclusionVerdict:
        pos = index(pos)  # one position; a slice is a TypeError
        return _verdict(self.records[pos], self.flags[pos])

    def __iter__(self) -> Iterator[ExclusionVerdict]:
        return map(_verdict, self.records, self.flags)

    def report_line(self, pos: int) -> dict:
        """The ``exclusions.jsonl`` line of the record at ``pos``, built without a verdict object."""
        excluded, reasons, had_dependents = _VERDICT_FIELDS[self.flags[pos]]
        return {
            "package_id": self.records[pos].package_id,
            "excluded": excluded,
            "reasons": list(reasons),
            "had_dependents": had_dependents,
        }

    def excluded_counts(self) -> dict[tuple[str, ...], int]:
        """The number of excluded records with each set of reasons, for the sets that excluded any."""
        return {_REASON_SETS[flag]: n for flag in range(1, _HAD_DEPENDENTS) if (n := self.flags.count(flag))}


def _verdict(rec: PackageRecord, flag: int) -> ExclusionVerdict:
    return ExclusionVerdict(rec, *_VERDICT_FIELDS[flag])


def apply_exclusions(corpus: Corpus, depended: set[str]) -> tuple[Corpus, ExclusionVerdicts]:
    """Filter the corpus, keeping its name order and email domains, and return the verdicts aligned with its records.

    A record is kept unless it has a reason and no dependents. The verdicts
    are one byte per record; each ``ExclusionVerdict`` is built when it is
    read. ``depended`` must be ``names_with_dependents`` of the full
    pre-exclusion corpus: the "no dependents" test references the whole
    registry.
    """
    records = corpus.records
    flags = bytes(rec.exclusion_reasons | (_HAD_DEPENDENTS if rec.name in depended else 0) for rec in records)
    kept = tuple(compress(records, (not 0 < flag < _HAD_DEPENDENTS for flag in flags)))  # no reason, or dependents
    return replace(corpus, records=kept), ExclusionVerdicts(records, flags)
