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
    r"^v?(?P<major>\d+)(?:\.(?P<minor>\d+))?(?:\.(?P<patch>\d+))?"
    r"(?:-(?P<pre>[0-9A-Za-z.-]+))?"
    r"(?:\+[0-9A-Za-z.-]+)?$"
)

# Sort key shape: (valid, major, minor, patch, is_release, pre_ids, raw)
# where pre_ids is a tuple of (1, "", n) for numeric identifiers and
# (2, s, 0) for alphanumeric ones, so tuple comparison mirrors semver
# precedence (numeric < alphanumeric, prefix < longer).
SortKey = tuple


def sort_key(version: str) -> SortKey:
    """Total-order key for a version string; usable with max()/sorted()."""
    m = _SEMVER_RE.match(version.strip())
    if m is None:
        return (0, 0, 0, 0, 0, (), version)
    major = int(m.group("major"))
    minor = int(m.group("minor") or 0)
    patch = int(m.group("patch") or 0)
    pre = m.group("pre")
    if pre is None:
        # Releases outrank any pre-release of the same core.
        return (1, major, minor, patch, 1, (), version)
    ids = []
    for ident in pre.split("."):
        if ident.isdigit():
            ids.append((1, "", int(ident)))
        else:
            ids.append((2, ident, 0))
    return (1, major, minor, patch, 0, tuple(ids), version)


def max_version(versions: list[str]) -> str:
    """Highest version per semver precedence (pre-release < release)."""
    if not versions:
        raise ValueError("max_version over empty list")
    return max(versions, key=sort_key)
