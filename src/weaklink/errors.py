"""Exception types shared across the scanner."""

from __future__ import annotations


class ScannerError(Exception):
    """Base class for all weaklink errors."""


class ParseError(ScannerError):
    """A registry document could not be turned into a PackageRecord.

    ``reason`` is one of "malformed" (unparseable bytes, a dist-tags
    "latest" pointing at a missing version, or no usable timestamp) or
    "no_name".
    """

    def __init__(self, reason: str, message: str = ""):
        self.reason = reason
        super().__init__(message or reason)


class NoVersionsError(ScannerError):
    """Document has an empty versions map; no latest version can be chosen."""


class PlanError(ScannerError):
    """Synthetic-corpus generation plan is invalid or infeasible."""


class FixtureError(ScannerError):
    """A provider fixture file is missing or malformed."""
