"""The two-pass document normalization that ``ingest.parse_record`` replaced.

``document_from_tree`` copied a document's versions, dist-tags and time
entries into a ``RegistryDocument``; ``select_latest`` then picked the latest
version and built a record with every field the scanner once kept, every
dependency kind and every script among them. The copy below is that code,
kept as the reference ``parse_record`` must agree with: ``reference_record``
projects its record onto what a ``PackageRecord`` of one scan keeps, in
``record_to_dict``'s shape.

``reference_reasons`` is the exclusion predicates as they were before
``parse_record`` decided a record's reasons: they read the repository,
license, deprecation and security-holding fields of the full record.

``reference_person`` is person entries as records held them before a
record kept only its maintainers' identity keys: a ``PersonRef`` of name,
email, email domain and identity key.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from datetime import datetime

from weaklink import semver
from weaklink.errors import NoVersionsError, ParseError
from weaklink.ingest import (
    _PLACEHOLDER_VERSION_RE,
    DEFAULT_LICENSE_DENYLIST,
    EXCLUSION_REASONS,
    SECURITY_HOLDING_PHRASE,
    PackageRecord,
    extract_email_domain,
    parse_timestamp,
)

# The ``FullRecord`` field that holds each dependency kind.
KIND_FIELDS = {
    "runtime": "dependencies",
    "dev": "dev_dependencies",
    "peer": "peer_dependencies",
    "optional": "optional_dependencies",
}


# --- people as they were ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PersonRef:
    """One maintainer or contributor entry, as records once held it.

    ``identity_key`` is the lowercase email when one is given, otherwise the
    lowercase name prefixed "name:".
    """

    name: str | None
    email: str | None
    email_domain: str | None
    identity_key: str


_PERSON_STRING_RE = re.compile(r"^(?P<name>[^<(]*)(?:<(?P<email>[^>]*)>)?\s*(?:\([^)]*\))?\s*$")


def _make_person(name: str | None, email: str | None) -> PersonRef | None:
    name = name.strip() if isinstance(name, str) else None
    email = email.strip() if isinstance(email, str) else None
    if not name:
        name = None
    if not email:
        email = None
    if email is not None:
        key = email.lower()
    elif name is not None:
        key = "name:" + name.lower()
    else:
        return None
    return PersonRef(name=name, email=email, email_domain=extract_email_domain(email) if email else None, identity_key=key)


def reference_person(entry: object) -> PersonRef | None:
    """Normalize one person entry (dict or "Name <email> (url)" string)."""
    if isinstance(entry, dict):
        return _make_person(entry.get("name"), entry.get("email"))
    if isinstance(entry, str):
        text = entry.strip()
        if not text:
            return None
        m = _PERSON_STRING_RE.match(text)
        if m and m.group("email"):
            return _make_person(m.group("name"), m.group("email"))
        if "@" in text and " " not in text and "<" not in text:
            return _make_person(None, text)
        return _make_person(text.split("(")[0], None)
    return None


def reference_people(raw: object) -> tuple[PersonRef, ...]:
    if isinstance(raw, (dict, str)):
        raw = [raw]
    if not isinstance(raw, list):
        return ()
    return tuple(person for entry in raw if (person := reference_person(entry)) is not None)


def record_to_dict(rec: PackageRecord) -> dict:
    """Canonical JSON-ready form of a record."""
    return {
        "package_id": rec.package_id,
        "name": rec.name,
        "version": rec.version,
        "last_modified": rec.last_modified.isoformat(),
        "scripts": dict(sorted(rec.scripts.items())),
        "maintainers": list(rec.maintainers),
        "contributor_count": rec.contributor_count,
        "dependencies": list(rec.dependencies),
        "has_runtime_dependencies": rec.has_runtime_dependencies,
        "deprecated": rec.deprecated,
        "exclusion_reasons": rec.exclusion_reasons,
    }


# --- the exclusion predicates as they were ------------------------------------


def is_deprecated_latest(deprecated: object) -> bool:
    """True iff the latest version carries a deprecation flag; an empty message un-deprecates."""
    if deprecated is True:
        return True
    if isinstance(deprecated, str) and deprecated != "":
        return True
    return False


def lacks_repo_and_license(repository_present: bool, license_value: str | None, denylist=DEFAULT_LICENSE_DENYLIST) -> bool:
    """True iff no repository AND the license is absent, blank or denylisted."""
    if repository_present:
        return False
    if license_value is None or not license_value.strip():
        return True
    normalized = license_value.strip().upper()
    return any(normalized == entry.strip().upper() for entry in denylist)


def reference_reasons(
    *,
    repository_present: bool,
    license_value: str | None,
    deprecated: object,
    security_holding: bool,
    denylist=DEFAULT_LICENSE_DENYLIST,
) -> tuple[str, ...]:
    """All applicable exclusion reasons, computed independently, in ``EXCLUSION_REASONS`` order."""
    reasons = []
    if security_holding:
        reasons.append("SecurityHolding")
    if is_deprecated_latest(deprecated):
        reasons.append("DeprecatedUnused")
    if lacks_repo_and_license(repository_present, license_value, denylist):
        reasons.append("NoRepoNoLicense")
    return tuple(reasons)


def reason_mask(reasons: tuple[str, ...]) -> int:
    """The ``PackageRecord.exclusion_reasons`` int of a set of reasons: bit i for ``EXCLUSION_REASONS[i]``."""
    return sum(1 << EXCLUSION_REASONS.index(reason) for reason in reasons)


def reason_names(mask: int) -> tuple[str, ...]:
    """The reasons a ``PackageRecord.exclusion_reasons`` int holds."""
    return tuple(reason for bit, reason in enumerate(EXCLUSION_REASONS) if mask & 1 << bit)


# --- the reference: the two passes as they were -------------------------------


@dataclass(frozen=True, slots=True)
class RegistryDocument:
    """Raw parsed tree of one package's registry document."""

    name: str
    dist_tags: dict[str, str]
    versions: dict[str, dict]
    time: dict[str, str]
    description: str | None
    maintainers: object
    contributors: object
    repository: object
    license: object


@dataclass(frozen=True, slots=True)
class FullRecord:
    """A record with every field ``select_latest`` filled."""

    package_id: str
    name: str
    version: str
    last_modified: datetime
    created: datetime
    scripts: dict[str, str]
    maintainers: tuple[PersonRef, ...]
    contributors: tuple[PersonRef, ...]
    dependencies: dict[str, str]
    dev_dependencies: dict[str, str]
    peer_dependencies: dict[str, str]
    optional_dependencies: dict[str, str]
    repository_present: bool
    license_value: str | None
    description: str | None
    deprecated: object
    security_holding: bool
    unpacked_size_bytes: int | None
    file_count: int | None


def parse_document(data: bytes | str) -> RegistryDocument:
    """Parse one registry document; raises ParseError on malformed input."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError("malformed", f"not UTF-8: {exc}") from exc
    try:
        tree = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError("malformed", f"not JSON: {exc}") from exc
    return document_from_tree(tree)


def document_from_tree(tree: object) -> RegistryDocument:
    if not isinstance(tree, dict):
        raise ParseError("malformed", "document is not a JSON object")
    name = tree.get("name")
    if not isinstance(name, str) or not name.strip():
        raise ParseError("no_name", "missing or empty name")
    name = name.strip()

    dist_tags_raw = tree.get("dist-tags")
    dist_tags: dict[str, str] = {}
    if isinstance(dist_tags_raw, dict):
        dist_tags = {k: v for k, v in dist_tags_raw.items() if isinstance(k, str) and isinstance(v, str)}

    versions_raw = tree.get("versions")
    versions: dict[str, dict] = {}
    if isinstance(versions_raw, dict):
        versions = {k: v for k, v in versions_raw.items() if isinstance(k, str) and isinstance(v, dict)}

    latest = dist_tags.get("latest")
    if latest is not None and latest not in versions:
        raise ParseError("malformed", f"dist-tags latest {latest!r} not in versions")

    time_raw = tree.get("time")
    time_map: dict[str, str] = {}
    if isinstance(time_raw, dict):
        time_map = {k: v for k, v in time_raw.items() if isinstance(k, str) and isinstance(v, str)}

    description = tree.get("description")
    if not isinstance(description, str):
        description = None

    return RegistryDocument(
        name=name,
        dist_tags=dist_tags,
        versions=versions,
        time=time_map,
        description=description,
        maintainers=tree.get("maintainers"),
        contributors=tree.get("contributors"),
        repository=tree.get("repository"),
        license=tree.get("license"),
    )


def _normalize_repository(raw: object) -> bool:
    if isinstance(raw, str):
        return bool(raw.strip())
    if isinstance(raw, dict):
        url = raw.get("url")
        if isinstance(url, str) and url.strip():
            return True
        # An object without a recognizable url still asserts a repository
        # exists if it is non-empty.
        return bool(raw)
    return False


def _normalize_license(raw: object) -> str | None:
    if isinstance(raw, str):
        return raw if raw.strip() else None
    if isinstance(raw, dict):
        for key in ("type", "name"):
            value = raw.get(key)
            if isinstance(value, str) and value.strip():
                return value
        return None
    if isinstance(raw, list):
        for entry in raw:
            value = _normalize_license(entry)
            if value is not None:
                return value
    return None


def _normalize_scripts(raw: object) -> dict[str, str]:
    if not isinstance(raw, dict):
        return {}
    return {k: v for k, v in raw.items() if isinstance(k, str) and k and isinstance(v, str)}


def _normalize_deps(raw: object) -> dict[str, str]:
    if not isinstance(raw, dict):
        return {}
    return {k: (v if isinstance(v, str) else "") for k, v in raw.items() if isinstance(k, str) and k}


def _non_negative_int(value: object) -> int | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, int) and value >= 0:
        return value
    return None


def select_latest(doc: RegistryDocument) -> FullRecord:
    """Pick the document's latest version and normalize it into a record.

    Prefers the "latest" dist-tag (the registry's own notion of latest),
    falling back to the highest semver among version keys.
    """
    if not doc.versions:
        raise NoVersionsError(doc.name)
    version = doc.dist_tags.get("latest")
    if version is None:
        version = semver.max_version(list(doc.versions.keys()))
    vobj = doc.versions[version]

    last_modified = parse_timestamp(doc.time.get("modified", ""))
    created = parse_timestamp(doc.time.get("created", ""))
    if last_modified is None or created is None:
        version_times = [ts for key in doc.versions if (ts := parse_timestamp(doc.time.get(key, ""))) is not None]
        if last_modified is None:
            last_modified = max(version_times) if version_times else None
        if created is None:
            created = min(version_times) if version_times else last_modified
    if last_modified is None:
        raise ParseError("malformed", f"{doc.name}: no usable timestamp")
    if created is None or created > last_modified:
        created = last_modified

    maintainers = reference_people(vobj.get("maintainers")) or reference_people(doc.maintainers)
    contributors = reference_people(vobj.get("contributors")) or reference_people(doc.contributors)

    repository = vobj.get("repository", doc.repository)
    license_raw = vobj.get("license", doc.license)

    deprecated = vobj.get("deprecated")
    if not isinstance(deprecated, (str, bool)):
        deprecated = None

    description = doc.description
    dist = vobj.get("dist") if isinstance(vobj.get("dist"), dict) else {}
    holding = bool(
        (description and SECURITY_HOLDING_PHRASE in description.lower())
        or (doc.dist_tags.get("latest") and _PLACEHOLDER_VERSION_RE.search(doc.dist_tags["latest"]))
    )

    return FullRecord(
        package_id=f"{doc.name}@{version}",
        name=doc.name,
        version=version,
        last_modified=last_modified,
        created=created,
        scripts=_normalize_scripts(vobj.get("scripts")),
        maintainers=maintainers,
        contributors=contributors,
        dependencies=_normalize_deps(vobj.get("dependencies")),
        dev_dependencies=_normalize_deps(vobj.get("devDependencies")),
        peer_dependencies=_normalize_deps(vobj.get("peerDependencies")),
        optional_dependencies=_normalize_deps(vobj.get("optionalDependencies")),
        repository_present=_normalize_repository(repository),
        license_value=_normalize_license(license_raw),
        description=description,
        deprecated=deprecated,
        security_holding=holding,
        unpacked_size_bytes=_non_negative_int(dist.get("unpackedSize")),
        file_count=_non_negative_int(dist.get("fileCount")),
    )


def reference_record(
    item: object,
    dep_kinds=("runtime",),
    install_key_pattern: str = "install",
    license_denylist=DEFAULT_LICENSE_DENYLIST,
) -> dict:
    """The two passes over one document (bytes, text or tree), as ``record_to_dict`` spells a record.

    The record keeps the names ``dep_kinds`` declare, in kind order and then
    document order, each once and without the package itself, the scripts
    whose key contains the pattern in any case, and the exclusion reasons
    of ``reference_reasons`` under ``license_denylist``.
    """
    doc = parse_document(item) if isinstance(item, (bytes, str)) else document_from_tree(item)
    full = select_latest(doc)
    declared: list[str] = []
    for kind in dep_kinds:
        declared += [dep for dep in getattr(full, KIND_FIELDS[kind]) if dep not in declared and dep != full.name]
    needle = install_key_pattern.lower()
    return {
        "package_id": full.package_id,
        "name": full.name,
        "version": full.version,
        "last_modified": full.last_modified.isoformat(),
        "scripts": {key: body for key, body in sorted(full.scripts.items()) if needle in key.lower()},
        "maintainers": [p.identity_key for p in full.maintainers],
        "contributor_count": len(full.contributors),
        "dependencies": declared,
        "has_runtime_dependencies": bool(full.dependencies),
        "deprecated": full.deprecated,
        "exclusion_reasons": reason_mask(
            reference_reasons(
                repository_present=full.repository_present,
                license_value=full.license_value,
                deprecated=full.deprecated,
                security_holding=full.security_holding,
                denylist=license_denylist,
            )
        ),
    }


def reference_email_domains(item: object) -> dict[str, str]:
    """The email domain of each maintainer identity of one document (bytes, text or tree) that has one."""
    doc = parse_document(item) if isinstance(item, (bytes, str)) else document_from_tree(item)
    return {p.identity_key: p.email_domain for p in select_latest(doc).maintainers if p.email_domain}
