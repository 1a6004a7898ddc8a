"""Noise-package exclusion.

A package is removed from analysis only when it has no direct dependents AND
at least one exclusion reason: ingest decides each record's reasons
(security-holding placeholder, deprecated latest version, neither a
repository nor a valid license). Dependents always veto exclusion, so
``apply_exclusions`` marks the positions with dependents over the full
corpus it is given.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import compress
from operator import or_
from typing import NamedTuple

from .ingest import EXCLUSION_REASONS, Corpus

# A record's verdict is one byte: its exclusion-reason bits, plus
# _HAD_DEPENDENTS when some other record declares its name.
_HAD_DEPENDENTS = 8
_REASON_SETS = tuple(tuple(compress(EXCLUSION_REASONS, (i & 1, i & 2, i & 4))) for i in range(_HAD_DEPENDENTS))


class Verdict(NamedTuple):
    """What one verdict byte says."""

    excluded: bool
    reasons: tuple[str, ...]
    had_dependents: bool


# The verdict of each byte, shared by every record with that byte.
_VERDICTS = tuple(
    Verdict(0 < flag < _HAD_DEPENDENTS, _REASON_SETS[flag & ~_HAD_DEPENDENTS], flag >= _HAD_DEPENDENTS)
    for flag in range(16)
)


class ExclusionVerdicts(Sequence):
    """The verdict of each record of a corpus, by position.

    ``flags[p]`` is the verdict byte of the record at position ``p``, named
    ``names[p]`` at version ``versions[p]``; the sequence holds those three
    columns of the corpus and none of its others. Item ``p`` is the shared
    ``Verdict`` of ``flags[p]``.
    """

    # A plain class: building a slotted dataclass adds ~1.5 ms to importing the CLI.
    __slots__ = ("names", "versions", "flags")

    def __init__(self, names: Sequence[str], versions: Sequence[str], flags: bytes) -> None:
        self.names = names
        self.versions = versions
        self.flags = flags

    def __len__(self) -> int:
        return len(self.flags)

    def __getitem__(self, pos: int) -> Verdict:
        return _VERDICTS[self.flags[pos]]  # one position; a slice is a TypeError

    def __iter__(self) -> Iterator[Verdict]:
        return map(_VERDICTS.__getitem__, self.flags)

    def report_line(self, pos: int) -> dict:
        """The ``exclusions.jsonl`` line of the record at ``pos``."""
        excluded, reasons, had_dependents = _VERDICTS[self.flags[pos]]
        return {
            "package_id": f"{self.names[pos]}@{self.versions[pos]}",
            "excluded": excluded,
            "reasons": list(reasons),
            "had_dependents": had_dependents,
        }

    def excluded_counts(self) -> dict[tuple[str, ...], int]:
        """The number of excluded records with each set of reasons, for the sets that excluded any."""
        return {_REASON_SETS[flag]: n for flag in range(1, _HAD_DEPENDENTS) if (n := self.flags.count(flag))}


def apply_exclusions(corpus: Corpus) -> tuple[Corpus, ExclusionVerdicts]:
    """Filter the corpus, keeping its name order, and return the verdicts aligned with its positions.

    A record is kept unless it has a reason and no dependents. The
    dependents are those in ``corpus`` itself, the full pre-exclusion
    corpus: the "no dependents" test references the whole registry. A
    record is never its own dependent, since ingest drops self-edges. The
    verdicts hold one byte per record and the names and versions of
    ``corpus``, so its other columns are freed once the caller drops it.
    The filtered corpus keeps only the identities its records list.
    """
    depended = bytearray(len(corpus.names))
    for pos in corpus.dep_targets:
        depended[pos] = _HAD_DEPENDENTS
    flags = bytes(map(or_, corpus.exclusion_reasons, depended))
    del depended
    kept = corpus.subset(not 0 < flag < _HAD_DEPENDENTS for flag in flags)  # no reason, or dependents
    return kept, ExclusionVerdicts(corpus.names, corpus.versions, flags)
