"""Noise-package exclusion.

A package is removed from analysis only when it has no direct dependents AND
at least one of: it is a registry security-holding placeholder, its latest
version is deprecated, or it has neither a repository nor a valid license.
Dependents always veto exclusion, so the names with dependents
(``reach.names_with_dependents``) are collected over the full corpus.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import compress
from operator import index

from .ingest import Corpus, PackageRecord

REASON_SECURITY_HOLDING = "SecurityHolding"
REASON_DEPRECATED_UNUSED = "DeprecatedUnused"
REASON_NO_REPO_NO_LICENSE = "NoRepoNoLicense"

DEFAULT_LICENSE_DENYLIST = ("UNLICENSED", "NONE", "XYZ", "PERSONAL USE", "N/A")

# A record's verdict is one byte: the index of its reasons in _REASON_SETS,
# plus _HAD_DEPENDENTS when some record declares its name.
_REASONS = (REASON_SECURITY_HOLDING, REASON_DEPRECATED_UNUSED, REASON_NO_REPO_NO_LICENSE)
_REASON_SETS = tuple(tuple(compress(_REASONS, (i & 1, i & 2, i & 4))) for i in range(8))
_REASON_FLAGS = {reasons: i for i, reasons in enumerate(_REASON_SETS)}
_HAD_DEPENDENTS = 8


@dataclass(frozen=True, slots=True)
class ExclusionVerdict:
    record: PackageRecord
    excluded: bool
    reasons: tuple[str, ...]
    had_dependents: bool

    @property
    def package_id(self) -> str:
        return self.record.package_id

    def to_dict(self) -> dict:
        return {
            "package_id": self.package_id,
            "excluded": self.excluded,
            "reasons": list(self.reasons),
            "had_dependents": self.had_dependents,
        }


def is_security_holding(rec: PackageRecord) -> bool:
    """True for registry placeholders replacing removed malware, as ``parse_record`` marks them."""
    return rec.security_holding


def is_deprecated_latest(rec: PackageRecord) -> bool:
    """True iff the latest version carries a deprecation flag.

    An empty-string message is treated as not deprecated; the registry uses
    an empty message to un-deprecate a version.
    """
    if rec.deprecated is True:
        return True
    if isinstance(rec.deprecated, str) and rec.deprecated != "":
        return True
    return False


def lacks_repo_and_license(rec: PackageRecord, denylist: tuple[str, ...] = DEFAULT_LICENSE_DENYLIST) -> bool:
    """True iff no repository AND the license is absent, blank or denylisted."""
    if rec.repository_present:
        return False
    license_value = rec.license_value
    if license_value is None or not license_value.strip():
        return True
    normalized = license_value.strip().upper()
    return any(normalized == entry.strip().upper() for entry in denylist)


def evaluate_reasons(rec: PackageRecord, denylist: tuple[str, ...] = DEFAULT_LICENSE_DENYLIST) -> tuple[str, ...]:
    """All applicable exclusion reasons, computed independently."""
    reasons = []
    if is_security_holding(rec):
        reasons.append(REASON_SECURITY_HOLDING)
    if is_deprecated_latest(rec):
        reasons.append(REASON_DEPRECATED_UNUSED)
    if lacks_repo_and_license(rec, denylist):
        reasons.append(REASON_NO_REPO_NO_LICENSE)
    return tuple(reasons)


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

    def excluded_counts(self) -> dict[tuple[str, ...], int]:
        """The number of excluded records with each set of reasons, for the sets that excluded any."""
        return {_REASON_SETS[flag]: n for flag in range(1, _HAD_DEPENDENTS) if (n := self.flags.count(flag))}


def _verdict(rec: PackageRecord, flag: int) -> ExclusionVerdict:
    return ExclusionVerdict(
        record=rec,
        excluded=0 < flag < _HAD_DEPENDENTS,
        reasons=_REASON_SETS[flag & ~_HAD_DEPENDENTS],
        had_dependents=flag >= _HAD_DEPENDENTS,
    )


def apply_exclusions(
    corpus: Corpus,
    depended: set[str],
    denylist: tuple[str, ...] = DEFAULT_LICENSE_DENYLIST,
) -> tuple[Corpus, ExclusionVerdicts]:
    """Filter the corpus, keeping its name order, and return the verdicts aligned with its records.

    A record is kept unless it has a reason and no dependents. The verdicts
    are one byte per record; each ``ExclusionVerdict`` is built when it is
    read. ``depended`` must be ``names_with_dependents`` of the full
    pre-exclusion corpus: the "no dependents" test references the whole
    registry.
    """
    flags = bytearray()
    kept = []
    for rec in corpus.records:
        flag = _REASON_FLAGS[evaluate_reasons(rec, denylist)]
        if rec.name in depended:
            flag |= _HAD_DEPENDENTS
        flags.append(flag)
        if not 0 < flag < _HAD_DEPENDENTS:  # no reason, or dependents
            kept.append(rec)
    verdicts = ExclusionVerdicts(corpus.records, bytes(flags))
    return Corpus(records=tuple(kept), stats=corpus.stats, digest=corpus.digest), verdicts
