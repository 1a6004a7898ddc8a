"""Registry snapshot ingestion.

Parses npm-style registry documents (one JSON tree per package), selects the
latest version of each, and normalizes the result into immutable
``PackageRecord`` values. Three snapshot layouts are supported:

  bulk    one JSON object in the registry bulk-export shape
          ``{"rows": [{"doc": {...}}, ...]}``
  ndjson  newline-delimited JSON, one document per line
  dir     a directory tree with one ``.json`` file per package

Real registry data is messy, so heterogeneous field shapes (repository as
string vs object, contributors as strings vs objects, deprecated as boolean
vs message) are normalized permissively: extract what is recognizable, never
error on shape alone. Malformed documents are counted and skipped by
``load_corpus``; they never abort a run.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import semver
from .errors import NoVersionsError, ParseError

logger = logging.getLogger(__name__)

SECURITY_HOLDING_PHRASE = "security holding package"

# Registry placeholder packages carry a synthetic version like "0.0.1-security".
_PLACEHOLDER_VERSION_RE = re.compile(r"security", re.IGNORECASE)

_PERSON_STRING_RE = re.compile(r"^(?P<name>[^<(]*)(?:<(?P<email>[^>]*)>)?\s*(?:\([^)]*\))?\s*$")

DEP_KINDS = ("runtime", "dev", "peer", "optional")

_DEP_FIELD_BY_KIND = {
    "runtime": "dependencies",
    "dev": "devDependencies",
    "peer": "peerDependencies",
    "optional": "optionalDependencies",
}


def parse_timestamp(value: str) -> datetime | None:
    """Parse an ISO-8601 timestamp into an aware UTC datetime, or None."""
    if not isinstance(value, str):
        return None
    text = value.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(text)
    except ValueError:
        return None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def format_timestamp(dt: datetime) -> str:
    return dt.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%f")[:-3] + "Z"


def extract_email_domain(email: str) -> str | None:
    """Domain after the last "@", lowercased; None when no usable split.

    Absent when the address has no "@", an empty local part or domain, or
    whitespace embedded in the domain.
    """
    if not isinstance(email, str):
        return None
    text = email.strip()
    at = text.rfind("@")
    if at <= 0 or at == len(text) - 1:
        return None
    domain = text[at + 1 :]
    if any(ch.isspace() for ch in domain):
        return None
    return domain.lower()


@dataclass(frozen=True, slots=True)
class PersonRef:
    """One maintainer or contributor entry, normalized.

    ``identity_key`` is the lowercase email when one is given, otherwise the
    lowercase name prefixed "name:". Email is the attack-relevant identity:
    registry accounts are keyed and reset by email address.
    """

    name: str | None
    email: str | None
    email_domain: str | None
    identity_key: str


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


def parse_person(entry: object) -> PersonRef | None:
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


def _parse_people(raw: object) -> tuple[PersonRef, ...]:
    if isinstance(raw, dict) or isinstance(raw, str):
        raw = [raw]
    if not isinstance(raw, list):
        return ()
    people = []
    for entry in raw:
        person = parse_person(entry)
        if person is not None:
            people.append(person)
    return tuple(people)


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
class PackageRecord:
    """Normalized latest-version metadata of one package.

    ``package_id`` is the registry's unique identifier "name@version"; scoped
    names keep their leading "@" because the version is appended with the
    final "@". ``security_holding`` records whether the document matched the
    registry's placeholder markers (description phrase or synthetic
    "-security" dist-tag) at ingest time.
    """

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
    deprecated: object  # None, bool, or message string as given
    security_holding: bool
    unpacked_size_bytes: int | None
    file_count: int | None

    def dependency_map(self, kind: str) -> dict[str, str]:
        if kind == "runtime":
            return self.dependencies
        if kind == "dev":
            return self.dev_dependencies
        if kind == "peer":
            return self.peer_dependencies
        if kind == "optional":
            return self.optional_dependencies
        raise ValueError(f"unknown dependency kind: {kind}")


@dataclass(frozen=True)
class IngestStats:
    total: int
    parsed: int
    skipped: int
    by_error: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "parsed": self.parsed,
            "skipped": self.skipped,
            "by_error": dict(sorted(self.by_error.items())),
        }


@dataclass(frozen=True)
class Corpus:
    """Immutable set of PackageRecords in stable name order."""

    records: tuple[PackageRecord, ...]
    stats: IngestStats
    digest: str = ""

    def __len__(self) -> int:
        return len(self.records)

    @property
    def by_name(self) -> dict[str, PackageRecord]:
        cached = getattr(self, "_by_name", None)
        if cached is None:
            cached = {rec.name: rec for rec in self.records}
            object.__setattr__(self, "_by_name", cached)
        return cached

    def replace_records(self, records: Iterable[PackageRecord]) -> "Corpus":
        return Corpus(records=tuple(sorted(records, key=lambda r: r.name)), stats=self.stats, digest=self.digest)


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
    # Bodies are preserved byte-for-byte; empty keys and non-string bodies
    # are unrecognizable and dropped.
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


def select_latest(doc: RegistryDocument) -> PackageRecord:
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

    version_times = [ts for key in doc.versions if (ts := parse_timestamp(doc.time.get(key, ""))) is not None]
    last_modified = parse_timestamp(doc.time.get("modified", ""))
    if last_modified is None:
        # Documents missing time["modified"] use the max per-version
        # timestamp so every record has a defined last-modified.
        last_modified = max(version_times) if version_times else None
    created = parse_timestamp(doc.time.get("created", ""))
    if created is None:
        created = min(version_times) if version_times else last_modified
    if last_modified is None:
        raise ParseError("malformed", f"{doc.name}: no usable timestamp")
    if created is None or created > last_modified:
        created = last_modified

    maintainers = _parse_people(vobj.get("maintainers")) or _parse_people(doc.maintainers)
    contributors = _parse_people(vobj.get("contributors")) or _parse_people(doc.contributors)

    repository = vobj.get("repository", doc.repository)
    license_raw = vobj.get("license", doc.license)

    deprecated = vobj.get("deprecated")
    if not isinstance(deprecated, (str, bool)):
        deprecated = None

    description = doc.description
    if not isinstance(description, str):
        description = None

    dist = vobj.get("dist") if isinstance(vobj.get("dist"), dict) else {}

    holding = bool(
        (description and SECURITY_HOLDING_PHRASE in description.lower())
        or (doc.dist_tags.get("latest") and _PLACEHOLDER_VERSION_RE.search(doc.dist_tags["latest"]))
    )

    return PackageRecord(
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


def detect_layout(source: Path) -> str:
    """Auto-detect a snapshot layout: "dir", "bulk" or "ndjson"."""
    return _sniff_layout(source)[0]


# JSON's insignificant whitespace; bytes.strip() would also drop \v and \f.
_JSON_WHITESPACE = b" \t\n\r"


def _sniff_layout(source: Path) -> tuple[str, dict | None]:
    """``detect_layout``'s verdict, plus the parsed tree of a one-line bulk export.

    The tree is returned only when it is exactly what ``_iter_bulk`` would
    load: the first line is strict UTF-8 without a BOM and nothing but JSON
    whitespace follows it. Otherwise the second item is None.
    """
    if source.is_dir():
        return "dir", None
    with open(source, "rb") as fh:
        raw = fh.readline()
        try:
            text = raw.decode("utf-8")
            tree = None if text.startswith("\ufeff") else json.loads(text)
        except (UnicodeDecodeError, json.JSONDecodeError):
            tree = None
        if _is_bulk_tree(tree):
            whole = all(not chunk.strip(_JSON_WHITESPACE) for chunk in iter(lambda: fh.read(1 << 16), b""))
            return "bulk", tree if whole else None
    first_line = raw.strip()
    if not first_line:
        return "ndjson", None
    try:
        parsed = json.loads(first_line)
    except json.JSONDecodeError:
        # A pretty-printed or multi-line JSON object: bulk export.
        return "bulk", None
    return ("bulk" if _is_bulk_tree(parsed) else "ndjson"), None


def _is_bulk_tree(tree: object) -> bool:
    return isinstance(tree, dict) and "rows" in tree and "name" not in tree


def _iter_bulk(source: Path, tree: dict | None) -> Iterator[object]:
    """Rows of a bulk export; ``tree`` is the export already parsed, if any."""
    if tree is None:
        with open(source, "r", encoding="utf-8") as fh:
            tree = json.load(fh)
    if isinstance(tree, dict) and isinstance(tree.get("rows"), list):
        for row in tree["rows"]:
            if isinstance(row, dict) and "doc" in row:
                yield row["doc"]
            else:
                yield row
    elif isinstance(tree, list):
        yield from tree
    else:
        yield tree


def _iter_ndjson(source: Path) -> Iterator[bytes]:
    with open(source, "rb") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield line


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def snapshot_digest(source: Path, layout: str) -> str:
    if layout == "dir":
        parts = hashlib.sha256()
        for path in sorted(source.rglob("*.json")):
            parts.update(str(path.relative_to(source)).encode())
            parts.update(b":")
            parts.update(_sha256_file(path).encode())
            parts.update(b"\n")
        return parts.hexdigest()
    return _sha256_file(source)


def load_corpus(source: str | Path, layout: str | None = None, jobs: int | None = None) -> Corpus:
    """Stream all documents from a snapshot into an immutable corpus.

    Malformed documents are counted and skipped. Records are merged in
    stable order by package name; the first occurrence of a duplicate name
    wins and later ones are counted under "duplicate_name".
    """
    source = Path(source)
    if not source.exists():
        raise OSError(f"snapshot not found: {source}")
    tree = None
    if layout is None:
        layout, tree = _sniff_layout(source)

    total = 0
    skipped = 0
    by_error: dict[str, int] = {}
    records: dict[str, PackageRecord] = {}

    def ingest_one(item: object) -> PackageRecord | None:
        try:
            # Anything already decoded (dict, list, null, scalar) is a tree;
            # document_from_tree rejects every non-object as malformed.
            doc = parse_document(item) if isinstance(item, (bytes, str)) else document_from_tree(item)
            return select_latest(doc)
        except ParseError as exc:
            by_error[exc.reason] = by_error.get(exc.reason, 0) + 1
        except NoVersionsError:
            by_error["no_versions"] = by_error.get("no_versions", 0) + 1
        return None

    if layout == "dir":
        paths = sorted(source.rglob("*.json"))
        max_workers = max(1, jobs or 1)
        if max_workers > 1:
            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                blobs = list(pool.map(lambda p: p.read_bytes(), paths))
        else:
            blobs = [p.read_bytes() for p in paths]
        items: Iterable[object] = blobs
    elif layout == "bulk":
        items = _iter_bulk(source, tree)
    elif layout == "ndjson":
        items = _iter_ndjson(source)
    else:
        raise ValueError(f"unknown layout: {layout}")

    for item in items:
        total += 1
        record = ingest_one(item)
        if record is None:
            skipped += 1
            continue
        if record.name in records:
            skipped += 1
            by_error["duplicate_name"] = by_error.get("duplicate_name", 0) + 1
            continue
        records[record.name] = record

    stats = IngestStats(total=total, parsed=total - skipped, skipped=skipped, by_error=by_error)
    ordered = tuple(records[name] for name in sorted(records))
    logger.info("ingested %d/%d documents from %s (%s)", stats.parsed, stats.total, source, layout)
    return Corpus(records=ordered, stats=stats, digest=snapshot_digest(source, layout))


def record_to_dict(rec: PackageRecord) -> dict:
    """Canonical JSON-ready form of a record (stable field order via sort)."""

    def person(p: PersonRef) -> dict:
        return {"name": p.name, "email": p.email, "email_domain": p.email_domain, "identity_key": p.identity_key}

    return {
        "package_id": rec.package_id,
        "name": rec.name,
        "version": rec.version,
        "created": format_timestamp(rec.created),
        "last_modified": format_timestamp(rec.last_modified),
        "scripts": dict(sorted(rec.scripts.items())),
        "maintainers": [person(p) for p in rec.maintainers],
        "contributors": [person(p) for p in rec.contributors],
        "dependencies": dict(sorted(rec.dependencies.items())),
        "dev_dependencies": dict(sorted(rec.dev_dependencies.items())),
        "peer_dependencies": dict(sorted(rec.peer_dependencies.items())),
        "optional_dependencies": dict(sorted(rec.optional_dependencies.items())),
        "repository_present": rec.repository_present,
        "license_value": rec.license_value,
        "description": rec.description,
        "deprecated": rec.deprecated,
        "security_holding": rec.security_holding,
        "unpacked_size_bytes": rec.unpacked_size_bytes,
        "file_count": rec.file_count,
    }
