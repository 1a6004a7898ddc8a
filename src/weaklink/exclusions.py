"""Noise-package exclusion.

A package is removed from analysis only when it has no direct dependents AND
at least one of: it is a registry security-holding placeholder, its latest
version is deprecated, or it has neither a repository nor a valid license.
Dependents always veto exclusion, so the names with dependents
(``reach.names_with_dependents``) are collected over the full corpus.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ingest import Corpus, PackageRecord

REASON_SECURITY_HOLDING = "SecurityHolding"
REASON_DEPRECATED_UNUSED = "DeprecatedUnused"
REASON_NO_REPO_NO_LICENSE = "NoRepoNoLicense"

DEFAULT_LICENSE_DENYLIST = ("UNLICENSED", "NONE", "XYZ", "PERSONAL USE", "N/A")


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


def apply_exclusions(
    corpus: Corpus,
    depended: set[str],
    denylist: tuple[str, ...] = DEFAULT_LICENSE_DENYLIST,
) -> tuple[Corpus, list[ExclusionVerdict]]:
    """Filter the corpus, keeping its name order, and emit one verdict per package.

    ``depended`` must be ``names_with_dependents`` of the full pre-exclusion
    corpus: the "no dependents" test references the whole registry.
    """
    verdicts = []
    kept = []
    for rec in corpus.records:
        reasons = evaluate_reasons(rec, denylist)
        had = rec.name in depended
        excluded = bool(reasons) and not had
        verdicts.append(ExclusionVerdict(record=rec, excluded=excluded, reasons=reasons, had_dependents=had))
        if not excluded:
            kept.append(rec)
    return Corpus(records=tuple(kept), stats=corpus.stats, digest=corpus.digest), verdicts
