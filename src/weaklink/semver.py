"""Semver ordering for registry version strings.

Implements the npm precedence rules needed to pick a latest version when a
document carries no "latest" dist-tag: numeric core compare, pre-release
sorting below the corresponding release, numeric identifiers before
alphanumeric ones, and build metadata ignored. Version strings that do not
parse sort below every valid version and fall back to lexicographic order
among themselves.
"""

from __future__ import annotations

import re

_SEMVER_RE = re.compile(
    r"^v?(?P<major>[0-9]+)(?:\.(?P<minor>[0-9]+))?(?:\.(?P<patch>[0-9]+))?"
    r"(?:-(?P<pre>[0-9A-Za-z.-]+))?"
    r"(?:\+[0-9A-Za-z.-]+)?$"
)

# Sort key shape: (valid, major, minor, patch, is_release, pre_ids, raw)
# where each number is a _number() pair and pre_ids is a tuple of
# (1, "", number) for numeric identifiers and (2, s, 0) for alphanumeric
# ones, so tuple comparison mirrors semver precedence (numeric <
# alphanumeric, prefix < longer).
SortKey = tuple


def _number(digits: str | None) -> tuple[int, str]:
    """Order of an ASCII digit run as a pair that compares like its value.

    Leading zeros are dropped, then a longer run is larger and runs of equal
    length compare as strings. Unlike int(), this takes any number of digits.
    """
    n = (digits or "").lstrip("0") or "0"
    return (len(n), n)


def sort_key(version: str) -> SortKey:
    """Total-order key for a version string; usable with max()/sorted()."""
    m = _SEMVER_RE.match(version.strip())
    if m is None:
        return (0, 0, 0, 0, 0, (), version)
    major = _number(m.group("major"))
    minor = _number(m.group("minor"))
    patch = _number(m.group("patch"))
    pre = m.group("pre")
    if pre is None:
        # Releases outrank any pre-release of the same core.
        return (1, major, minor, patch, 1, (), version)
    ids = []
    for ident in pre.split("."):
        if ident.isdigit():
            ids.append((1, "", _number(ident)))
        else:
            ids.append((2, ident, 0))
    return (1, major, minor, patch, 0, tuple(ids), version)


def max_version(versions: list[str]) -> str:
    """Highest version per semver precedence (pre-release < release)."""
    if not versions:
        raise ValueError("max_version over empty list")
    return max(versions, key=sort_key)
