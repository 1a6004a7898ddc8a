"""Registry snapshot ingestion.

Normalizes npm-style registry documents (one JSON tree per package) into an
immutable ``Corpus``: position-aligned columns of the latest version's
metadata that the analyzers read. The columns are the whole contract; no
per-package object is built. Three snapshot layouts are supported:

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

import codecs
import hashlib
import json
import logging
import re
from array import array
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import accumulate, chain, compress, islice
from operator import ne, sub
from pathlib import Path

from . import semver
from .errors import NoVersionsError, ParseError

logger = logging.getLogger(__name__)

SECURITY_HOLDING_PHRASE = "security holding package"

DEFAULT_LICENSE_DENYLIST = ("UNLICENSED", "NONE", "XYZ", "PERSONAL USE", "N/A")

# The reasons a record without dependents is excluded for. A record holds
# its reasons as one int, bit i for EXCLUSION_REASONS[i].
EXCLUSION_REASONS = ("SecurityHolding", "DeprecatedUnused", "NoRepoNoLicense")
SECURITY_HOLDING, DEPRECATED, NO_REPO_NO_LICENSE = 1, 2, 4

# Registry placeholder packages carry a synthetic version like "0.0.1-security".
_PLACEHOLDER_VERSION_RE = re.compile(r"security", re.IGNORECASE)

_PERSON_STRING_RE = re.compile(r"^(?P<name>[^<(]*)(?:<(?P<email>[^>]*)>)?\s*(?:\([^)]*\))?\s*$")

# The version-object key that declares each dependency kind.
_DEPENDENCY_KEYS = {
    "runtime": "dependencies",
    "dev": "devDependencies",
    "peer": "peerDependencies",
    "optional": "optionalDependencies",
}


def is_install_key(key: str, pattern: str) -> bool:
    """True iff the script key names an install hook: it contains ``pattern``, ignoring case."""
    return pattern.lower() in key.lower()


def parse_timestamp(value: object) -> datetime | None:
    """Parse an ISO-8601 timestamp into an aware UTC datetime, or None.

    None also for a time whose UTC date falls outside years 1 to 9999.
    """
    if not isinstance(value, str):
        return None
    text = value.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(text)
        if dt.tzinfo is None:
            return dt.replace(tzinfo=timezone.utc)
        return dt.astimezone(timezone.utc)
    except (ValueError, OverflowError):
        return None


def format_timestamp(dt: datetime) -> str:
    # strftime("%Y-%m-%dT%H:%M:%S.%f")[:-3] + "Z" in under half its time;
    # the report writer formats one or two timestamps per finding.
    dt = dt.astimezone(timezone.utc)
    return "%d-%02d-%02dT%02d:%02d:%02d.%03dZ" % (
        dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second, dt.microsecond // 1000
    )


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)
US_PER_DAY = 86_400_000_000


def epoch_us(dt: datetime) -> int:
    """An aware datetime as UTC epoch microseconds, exactly: a datetime holds whole microseconds."""
    return (dt - _EPOCH) // _MICROSECOND


def from_epoch_us(us: int) -> datetime:
    """The aware UTC datetime ``us`` UTC epoch microseconds name."""
    return _EPOCH + timedelta(microseconds=us)


def format_epoch_us(us: int) -> str:
    """``format_timestamp`` of the time ``us`` UTC epoch microseconds name."""
    return format_timestamp(_EPOCH + timedelta(microseconds=us))


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
    if domain.split() != [domain]:  # whitespace inside
        return None
    return domain.lower()


def parse_person(entry: object) -> tuple[str, str | None] | None:
    """The identity key and email domain of one person entry (dict or "Name <email> (url)" string).

    The key is the lowercase email when one is given, otherwise the
    lowercase name prefixed "name:"; only an email has a domain
    (``extract_email_domain``). Email is the attack-relevant identity:
    registry accounts are keyed and reset by email address. None for an
    entry with neither.
    """
    if isinstance(entry, dict):
        name, email = entry.get("name"), entry.get("email")
    elif isinstance(entry, str):
        text = entry.strip()
        m = _PERSON_STRING_RE.match(text)
        if m and m.group("email"):
            name, email = m.group("name"), m.group("email")
        elif "@" in text and " " not in text and "<" not in text:
            name, email = None, text
        else:
            name, email = text.split("(")[0], None
    else:
        return None
    email = email.strip() if isinstance(email, str) else ""
    if email:
        return email.lower(), extract_email_domain(email)
    name = name.strip() if isinstance(name, str) else ""
    if name:
        return "name:" + name.lower(), None
    return None


# A document without install scripts parses to this one dict, so no reader
# may write to parsed scripts: a write to it would reach all of those.
_EMPTY_MAP: dict[str, str] = {}


class _Leaves:
    """What the records of one load share: the scan's scope and the load's tables.

    The scope is the dependency kinds and the install-key pattern the scan
    reads, and the license denylist its exclusions apply; a record keeps
    nothing else of a document's dependencies, scripts, repository and
    license. Registry documents repeat the same maintainers (however an
    entry spells them), versions, dependency names and script names across
    packages; each distinct one is kept once. ``names`` numbers each package
    and dependency name in the order it is first seen. ``identity_keys``
    numbers each maintainer identity, and ``identity_domains`` holds its
    email domain, or None, at the same index. Raises ``ValueError`` for an
    empty or unknown dependency kind.
    """

    def __init__(
        self,
        dep_kinds: Iterable[str] = ("runtime",),
        install_key_pattern: str = "install",
        license_denylist: Iterable[str] = DEFAULT_LICENSE_DENYLIST,
    ) -> None:
        kinds = tuple(dep_kinds)
        if not kinds:
            raise ValueError("dep_kinds must be nonempty")
        unknown = [kind for kind in kinds if kind not in _DEPENDENCY_KEYS]
        if unknown:
            raise ValueError(f"unknown dependency kind: {unknown[0]}")
        self.dep_keys = tuple(dict.fromkeys(_DEPENDENCY_KEYS[kind] for kind in kinds))
        self.install_key_pattern = install_key_pattern
        self.license_denylist = frozenset(entry.strip().upper() for entry in license_denylist)
        self._people: dict[str, tuple[str, str | None]] = {}
        self.names: dict[str, int] = {}
        self._identities: dict[str, int] = {}
        self.identity_keys: list[str] = []
        self.identity_domains: list[str | None] = []
        self.strings: dict[str, str] = {}

    def person(self, entry: object) -> tuple[str, str | None] | None:
        """``parse_person(entry)``, kept once for each email of an object entry.

        An email decides the identity whatever the name, so the email string
        is the cache key, and the identity key is that string when it is
        already its own lowercase form. Other entries are parsed each time.
        """
        email = entry.get("email") if isinstance(entry, dict) else None
        if not isinstance(email, str):
            return parse_person(entry)
        person = self._people.get(email)
        if person is None:
            person = parse_person(entry)
            if person is None or not email.strip():  # the name decides
                return person
            key, domain = person
            domain = domain and self.strings.setdefault(domain, domain)
            person = self._people[email] = (email if key == email else key, domain)
        return person

    def people(self, raw: object) -> list[tuple[str, str | None]]:
        if isinstance(raw, dict) or isinstance(raw, str):
            raw = [raw]
        if not isinstance(raw, list):
            return []
        return [person for entry in raw if (person := self.person(entry)) is not None]

    def identity(self, key: str, domain: str | None) -> int:
        """The id of the identity ``key``; it keeps the first domain given for it."""
        ident = self._identities.get(key)
        if ident is None:
            ident = self._identities[key] = len(self.identity_keys)
            self.identity_keys.append(key)
            self.identity_domains.append(domain and self.strings.setdefault(domain, domain))
        elif domain and self.identity_domains[ident] is None:
            self.identity_domains[ident] = self.strings.setdefault(domain, domain)
        return ident

    def close(self) -> None:
        """Drop the lookup tables once the load is done; the columns hold what they number."""
        self._people.clear()
        self.names.clear()
        self._identities.clear()
        self.strings.clear()

    def maintainers(self, version: dict, document: dict) -> list[int]:
        """The identity ids of the version's maintainers, or else the document's, as listed."""
        people = self.people(version.get("maintainers")) or self.people(document.get("maintainers"))
        return [self.identity(key, domain) for key, domain in people]

    def dependencies(self, vobj: dict, name: str) -> list[str]:
        """The names the scan's kinds declare, merged in first-declared order, each once, without ``name``."""
        declared: dict = {}
        for key in self.dep_keys:
            raw = vobj.get(key)
            if raw and isinstance(raw, dict):
                declared.update(raw)  # a name declared before keeps its place
        return [k for k in declared if isinstance(k, str) and k and k != name]


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


@dataclass(frozen=True, slots=True)
class Corpus:
    """An immutable corpus in stable name order, held as position-aligned columns.

    A record's position is its index in ``names``, so position order is
    name order, and each column holds the value of position ``p`` at index
    ``p``: ``versions``; ``last_modified`` as UTC epoch microseconds
    (``epoch_us``); ``contributor_counts``; ``exclusion_reasons``, one
    byte of ``EXCLUSION_REASONS`` bits each; and ``runtime_flags``, 1 where
    the runtime kind declares a name. The dependencies of ``p`` are the
    positions ``dep_targets[dep_offsets[p]:dep_offsets[p + 1]]``: a name
    outside the corpus is no dependency. Its maintainers are the identity
    ids ``maint_ids[maint_offsets[p]:maint_offsets[p + 1]]``, as listed;
    identity ``i`` has the key ``identity_keys[i]`` and the email domain
    ``identity_domains[i]`` (None without one), decided once at ingest. The
    ids number only the identities that some record lists, in the order
    the records first list them. ``scripts`` and ``deprecated`` hold values
    only for the positions that have one, in position order. No name-keyed
    map is kept: ``position`` finds a name by binary search.
    """

    names: tuple[str, ...]
    versions: tuple[str, ...]
    last_modified: array
    dep_offsets: array
    dep_targets: array
    maint_offsets: array
    maint_ids: array
    identity_keys: tuple[str, ...]
    identity_domains: tuple[str | None, ...]
    contributor_counts: array
    exclusion_reasons: bytes
    runtime_flags: bytes
    scripts: dict[int, dict[str, str]]
    deprecated: dict[int, object]
    stats: IngestStats
    digest: str = ""

    def position(self, name: str) -> int:
        """The position of the record named ``name``; raises ``KeyError`` for a name outside the corpus."""
        names = self.names
        i = bisect_left(names, name)
        if i == len(names) or names[i] != name:
            raise KeyError(name)
        return i

    def maintainer_counts(self) -> array:
        """The number of maintainers each record lists, repeats counted, by position."""
        offsets = self.maint_offsets
        return array("i", map(sub, islice(offsets, 1, None), offsets))

    def subset(self, keep: Iterable[object]) -> Corpus:
        """The corpus of the records whose ``keep`` entry is true, in name order.

        A dependency on a record left out is dropped, and so is an identity
        that no kept record lists. The stats and digest stay those of the load.
        """
        rows = array("i", compress(range(len(self.names)), keep))
        position = array("i", [-1]) * len(self.names)
        for new, old in enumerate(rows):
            position[old] = new
        return _gather(self, rows, position, position, tuple(map(self.names.__getitem__, rows)), self.stats, self.digest)


class _Columns:
    """The columns of one load, one row per document, filled in file order.

    They have the names of the ``Corpus`` columns, but that a row's name,
    ``row_names``, and its dependencies, ``dep_targets``, are ids of
    ``leaves.names``. ``corpus`` sorts the rows by name and turns those ids
    into positions.
    """

    def __init__(self, leaves: _Leaves) -> None:
        self.leaves = leaves
        self.identity_keys = leaves.identity_keys
        self.identity_domains = leaves.identity_domains
        self.row_names = array("i")
        self.versions: list[str] = []
        self.last_modified = array("q")
        self.dep_offsets = array("i", [0])
        self.dep_targets = array("i")
        self.maint_offsets = array("i", [0])
        self.maint_ids = array("i")
        self.contributor_counts = array("i")
        self.exclusion_reasons = bytearray()
        self.runtime_flags = bytearray()
        self.scripts: dict[int, dict[str, str]] = {}
        self.deprecated: dict[int, object] = {}
        self._held = bytearray()  # 1 at the id of each name a row has
        self._repeated = False

    def holds(self, name: str) -> bool:
        """Whether a row has the name ``name``."""
        name_id = self.leaves.names.get(name)
        return name_id is not None and name_id < len(self._held) and self._held[name_id] == 1

    def append(self, fields: tuple) -> None:
        """Add the row of one ``_parse`` result."""
        name, version, last_modified, scripts, maintainers, contributors, dependencies, runtime, deprecated, reasons = fields
        ids = self.leaves.names
        number = ids.setdefault
        name_id = number(name, len(ids))
        held = self._held
        if name_id >= len(held):
            held.extend(bytes(name_id + 1024 - len(held)))  # grown in steps, not per row
        self._repeated = self._repeated or held[name_id] == 1
        held[name_id] = 1
        row = len(self.row_names)
        self.row_names.append(name_id)
        self.versions.append(version)
        self.last_modified.append(last_modified)
        targets = self.dep_targets
        targets.extend([number(dep, len(ids)) for dep in dependencies])
        self.dep_offsets.append(len(targets))
        listed = self.maint_ids
        listed.extend(maintainers)
        self.maint_offsets.append(len(listed))
        self.contributor_counts.append(contributors)
        self.exclusion_reasons.append(reasons)
        self.runtime_flags.append(runtime)
        if scripts:
            self.scripts[row] = scripts
        if deprecated is not None:
            self.deprecated[row] = deprecated

    def corpus(self, stats: IngestStats, digest: str) -> Corpus:
        """The corpus of the rows, sorted by name; raises ``ValueError`` when two rows share a name."""
        if self._repeated:
            raise ValueError("corpus records must have distinct names")
        ids = self.leaves.names
        table = list(ids)
        names = tuple(sorted(map(table.__getitem__, self.row_names)))
        del table
        position = array("i", [-1]) * len(ids)  # of each name id
        for pos, name in enumerate(names):
            position[ids[name]] = pos
        self.leaves.close()
        new_row = array("i", map(position.__getitem__, self.row_names))
        rows = array("i", bytes(new_row.itemsize * len(new_row)))
        for row, pos in enumerate(new_row):
            rows[pos] = row
        return _gather(self, rows, new_row, position, names, stats, digest)


def _gather(src, rows: array, new_row: array, new_target: array, names: tuple, stats: IngestStats, digest: str) -> Corpus:
    """The corpus of the rows ``rows`` of ``src``'s columns, in that order, named ``names``.

    ``new_row[r]`` is the position that row ``r`` takes, or -1, and
    ``new_target[t]`` the position of dependency ``t`` of ``src``, or -1
    to drop it. Identities are numbered again in the order the rows first
    list them; one that no row lists is dropped.
    """
    dep_offsets, targets = _rows(src.dep_offsets, src.dep_targets, rows)
    dep_targets = array("i", map(new_target.__getitem__, targets))
    del targets
    maint_offsets, maint_ids = _rows(src.maint_offsets, src.maint_ids, rows)
    if -1 in dep_targets:  # drop each dependency on a name outside the corpus
        dropped = array("i", accumulate(map((-1).__eq__, dep_targets), initial=0))
        dep_offsets = array("i", map(sub, dep_offsets, map(dropped.__getitem__, dep_offsets)))
        dep_targets = array("i", filter((-1).__ne__, dep_targets))
        del dropped
    kept = list(dict.fromkeys(maint_ids))  # the listed identities, in the order first listed
    renumbered = array("i", [-1]) * len(src.identity_keys)
    for new, ident in enumerate(kept):
        renumbered[ident] = new
    maint_ids = array("i", map(renumbered.__getitem__, maint_ids))
    return Corpus(
        names=names,
        versions=tuple(map(src.versions.__getitem__, rows)),
        last_modified=array("q", map(src.last_modified.__getitem__, rows)),
        dep_offsets=dep_offsets,
        dep_targets=dep_targets,
        maint_offsets=maint_offsets,
        maint_ids=maint_ids,
        identity_keys=tuple(map(src.identity_keys.__getitem__, kept)),
        identity_domains=tuple(map(src.identity_domains.__getitem__, kept)),
        contributor_counts=array("i", map(src.contributor_counts.__getitem__, rows)),
        exclusion_reasons=bytes(map(src.exclusion_reasons.__getitem__, rows)),
        runtime_flags=bytes(map(src.runtime_flags.__getitem__, rows)),
        scripts=_sparse(src.scripts, new_row),
        deprecated=_sparse(src.deprecated, new_row),
        stats=stats,
        digest=digest,
    )


def _rows(offsets: array, values: array, rows: array) -> tuple[array, array]:
    """The offsets and the values of the rows ``rows`` of compressed sparse rows, in that order.

    Each run of consecutive rows is copied as one slice: a subset of rows
    in order, or rows read in nearly sorted order, make few runs.
    """
    # A run starts at each row that does not follow the row before it.
    runs = [*compress(range(len(rows)), map(ne, rows, chain((-1,), map((1).__add__, rows)))), len(rows)]
    new_offsets, new_values = array("i", [0]), array("i")
    for start, end in zip(runs, islice(runs, 1, None)):
        first, last = rows[start], rows[end - 1] + 1
        shift = len(new_values) - offsets[first]
        new_values.extend(values[offsets[first] : offsets[last]])
        new_offsets.extend(map(shift.__add__, offsets[first + 1 : last + 1]))
    return new_offsets, new_values


def _sparse(values: dict[int, object], new_row: array) -> dict[int, object]:
    """``values`` keyed by the positions their rows take, in position order; a row without one is dropped."""
    return dict(sorted((new_row[row], value) for row, value in values.items() if new_row[row] >= 0))


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


def _install_scripts(raw: object, strings: dict[str, str], pattern: str) -> dict[str, str]:
    if not raw or not isinstance(raw, dict):
        return _EMPTY_MAP
    # Bodies are preserved byte-for-byte; empty keys and non-string bodies
    # are unrecognizable and dropped.
    intern = strings.setdefault
    scripts = {
        intern(k, k): v
        for k, v in raw.items()
        if isinstance(k, str) and k and isinstance(v, str) and is_install_key(k, pattern)
    }
    return scripts or _EMPTY_MAP


def _parse(item: object, leaves: _Leaves) -> tuple:
    """Normalize one registry document into the fields of its latest version, as a load's row.

    ``item`` is the document's bytes or text, or its decoded JSON tree. The
    latest version is the "latest" dist-tag (the registry's own notion of
    latest), or else the highest semver among the versions that are
    objects. Raises ParseError for a malformed document, one nested too
    deeply to decode among them, and NoVersionsError when no version is an
    object. The fields are: the trimmed name; the version; the last
    modification as UTC epoch microseconds; the scripts whose key matches
    the install pattern (``is_install_key``); the maintainers' identity ids
    of ``leaves``, as listed; the number of usable contributor entries; the
    names the scan's kinds declare, merged in first-declared order, each
    once, without the package itself; whether the runtime kind declares a
    name, whichever kinds the scan reads; the deprecation (None, a bool or
    the message as given); and the ``EXCLUSION_REASONS`` bits under the
    license denylist. ``leaves`` holds the scan's scope and shares equal
    strings with the other documents of a load.
    """
    if isinstance(item, (bytes, str)):
        try:
            text = item.decode("utf-8") if isinstance(item, bytes) else item
        except UnicodeDecodeError as exc:
            raise ParseError("malformed", f"not UTF-8: {exc}") from exc
        try:
            item = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ParseError("malformed", f"not JSON: {exc}") from exc
    if not isinstance(item, dict):
        raise ParseError("malformed", "document is not a JSON object")
    name = item.get("name")
    if not isinstance(name, str) or not name.strip():
        raise ParseError("no_name", "missing or empty name")
    name = name.strip()

    versions = item.get("versions")
    if not isinstance(versions, dict):
        versions = {}
    tags = item.get("dist-tags")
    latest = tags.get("latest") if isinstance(tags, dict) else None
    if isinstance(latest, str):
        vobj = versions.get(latest)
        if not isinstance(vobj, dict):
            raise ParseError("malformed", f"dist-tags latest {latest!r} not in versions")
        version = latest
    else:
        latest = None
        candidates = [key for key, value in versions.items() if isinstance(value, dict)]
        if not candidates:
            raise NoVersionsError(name)
        version = semver.max_version(candidates)
        vobj = versions[version]

    times = item.get("time")
    if not isinstance(times, dict):
        times = {}
    last_modified = parse_timestamp(times.get("modified"))
    if last_modified is None:
        # Documents missing time["modified"] use the max per-version
        # timestamp so every record has a defined last-modified.
        version_times = [
            ts
            for key, value in versions.items()
            if isinstance(value, dict) and (ts := parse_timestamp(times.get(key))) is not None
        ]
        if not version_times:
            raise ParseError("malformed", f"{name}: no usable timestamp")
        last_modified = max(version_times)

    maintainers = leaves.maintainers(vobj, item)
    contributors = leaves.people(vobj.get("contributors")) or leaves.people(item.get("contributors"))
    deprecated = vobj.get("deprecated")
    if not isinstance(deprecated, (str, bool)):
        deprecated = None
    # The exclusion reasons: a placeholder's description phrase or synthetic
    # "-security" "latest" tag; True or a deprecation message (an empty one
    # un-deprecates); no repository, and a license absent, blank or denylisted.
    reasons = DEPRECATED if deprecated else 0
    description = item.get("description")
    if (isinstance(description, str) and SECURITY_HOLDING_PHRASE in description.lower()) or (
        latest and _PLACEHOLDER_VERSION_RE.search(latest)
    ):
        reasons |= SECURITY_HOLDING
    if not _normalize_repository(vobj["repository"] if "repository" in vobj else item.get("repository")):
        license_value = _normalize_license(vobj["license"] if "license" in vobj else item.get("license"))
        if license_value is None or license_value.strip().upper() in leaves.license_denylist:
            reasons |= NO_REPO_NO_LICENSE
    intern = leaves.strings.setdefault
    runtime = vobj.get("dependencies")
    return (
        name,
        intern(version, version),
        epoch_us(last_modified),
        _install_scripts(vobj.get("scripts"), leaves.strings, leaves.install_key_pattern),
        maintainers,
        len(contributors),
        leaves.dependencies(vobj, name),
        isinstance(runtime, dict) and any(isinstance(k, str) and k for k in runtime),
        deprecated,
        reasons,
    )


def _is_bulk_tree(tree: object) -> bool:
    return isinstance(tree, dict) and "rows" in tree and "name" not in tree


def _wide_text_verdict(source: Path) -> str | None:
    """The layout of a file whose first line json.loads reads as UTF-16 or UTF-32; else None.

    Autodetection parses the first line's bytes, and json.loads detects
    those encodings in bytes. No registry export is written in them, and
    the first line of such a file is parsed whole, as json.loads does.
    """
    limit = 1 << 16  # enough to see past leading whitespace
    with open(source, "rb") as fh:
        line = fh.readline(limit)
        whole = line.endswith(b"\n") or len(line) < limit
        if json.detect_encoding((line.strip() if whole else line.lstrip())[:4]) in ("utf-8", "utf-8-sig"):
            return None
        if not whole:
            line += fh.readline()
    try:
        tree = json.loads(line.strip())
    except json.JSONDecodeError:
        return "bulk"
    return "bulk" if _is_bulk_tree(tree) else "ndjson"


_CHUNK = 1 << 20  # bytes read at a time from a bulk export
# A token that fails or ends this close to the end of the buffer may be cut
# short by it ("nul", "1e", "12" of "123"), and is decoded again with more
# text. "Unterminated string" errors point at the string's start instead.
_CUT = 32
_DECODER = json.JSONDecoder()
_JSON_WS = json.decoder.WHITESPACE.match
# What bytes.strip() drops from the ends of the first line before
# autodetection parses it, newline aside.
_LINE_WS = re.compile(r"[ \t\r\x0b\x0c]*").match
_NOT_JSON_WS = re.compile(r"[\x0b\x0c]").search
_BOM = "Unexpected UTF-8 BOM (decode using utf-8-sig)"


def _scan_key(text: str, idx: int) -> tuple[str, int]:
    return json.decoder.scanstring(text, idx + 1)


class _Verdict(Exception):
    """Autodetection found that the file being read is ndjson, not a bulk export."""


class _Reread(Exception):
    """A later top-level "rows" key voids the rows read so far."""

    def __init__(self, rows_key: int):
        super().__init__(rows_key)
        self.rows_key = rows_key


class _JsonText:
    """The UTF-8 text of a file, decoded in chunks behind a cursor.

    Only ``buf[pos:]`` is unread; each refill drops the text before the
    cursor. Errors carry the position in the whole file, as ``json.load``'s
    do. Decoding is strict but for encoded surrogates, which are kept and
    recorded in ``surrogate``: ``json.loads`` accepts them in bytes, which
    autodetection must match, while a strict read of the file does not.
    """

    def __init__(self, fh, digest):
        self._fh = fh
        self._digest = digest  # sees every byte read from the file
        self._undecoded = b""
        self._decoded = 0  # characters decoded so far
        self.buf = ""
        self.pos = 0
        self.base = 0  # file position of buf[0]
        self.eof = False
        self.first_nl: int | None = None  # file position of the first newline
        self._lines = 0  # newlines before buf
        self._last_nl = -1  # file position of the last newline before buf
        self.surrogate: UnicodeDecodeError | None = None
        self.invalid: UnicodeDecodeError | None = None  # no text after this

    def _decode(self, data: bytes) -> str:
        raw = self._undecoded + data
        try:
            text, used = codecs.utf_8_decode(raw, "strict", not data)
        except UnicodeDecodeError as exc:
            try:
                text, used = codecs.utf_8_decode(raw, "surrogatepass", not data)
                self.surrogate = self.surrogate or exc
            except UnicodeDecodeError as bad:
                text, used = codecs.utf_8_decode(raw[: bad.start], "surrogatepass", True)[0], len(raw)
                self.invalid = bad
        self._undecoded = raw[used:]
        if self.first_nl is None and (nl := text.find("\n")) >= 0:
            self.first_nl = self._decoded + nl
        self._decoded += len(text)
        return text

    def _more(self, size: int) -> str:
        """The next decoded text, "" at the end of the file or at a byte that is not UTF-8."""
        while not self.invalid:
            data = self._fh.read(size)
            self._digest.update(data)
            text = self._decode(data)
            if text or not (data or self.invalid):
                return text
        if self.first_nl is None:  # as json.loads of the first line fails; after it, ``items`` raises
            raise self.invalid
        return ""

    def fill(self) -> None:
        """Drop the text before the cursor and append more; set ``eof`` at the end."""
        buf, pos = self.buf, self.pos
        # Read at least what is still unread, so a long token is decoded
        # again a bounded number of times.
        text = self._more(max(_CHUNK, len(buf) - pos))
        self._lines += buf.count("\n", 0, pos)
        if (nl := buf.rfind("\n", 0, pos)) >= 0:
            self._last_nl = self.base + nl
        self.base += pos
        self.buf = buf[pos:] + text
        self.pos = 0
        self.eof = not text

    def next_char(self) -> str:
        """Skip JSON whitespace; the character at the cursor, "" at the end."""
        while True:
            self.pos = _JSON_WS(self.buf, self.pos).end()
            if self.pos < len(self.buf):
                return self.buf[self.pos]
            if self.eof:
                return ""
            self.fill()

    def line_rest(self) -> tuple[str, str]:
        """The run of line whitespace at the cursor and the character after it; the cursor stays."""
        while True:
            end = _LINE_WS(self.buf, self.pos).end()
            if end < len(self.buf) or self.eof:
                return self.buf[self.pos : end], self.buf[end : end + 1]
            self.fill()

    def token(self, scan):
        """Decode the value (or key) at the cursor with ``scan``; the cursor moves past it."""
        while True:
            try:
                value, end = scan(self.buf, self.pos)
            except json.JSONDecodeError as exc:
                if self.eof or not (exc.msg.startswith("Unterminated string") or exc.pos >= len(self.buf) - _CUT):
                    raise self.fail(exc.msg, exc.pos) from None
            else:
                if self.eof or end < len(self.buf) - _CUT:
                    self.pos = end
                    return value
            self.fill()

    def fail(self, msg: str, pos: int | None = None) -> ValueError:
        """The error a strict read of the whole file raises for a JSON error at ``pos`` of the buffer.

        That read decodes the file before it parses, so a byte anywhere in
        the file that is not strict UTF-8 wins over the JSON error.
        """
        return self.first_error(self.error(msg, pos))

    def error(self, msg: str, pos: int | None = None) -> json.JSONDecodeError:
        """A JSON error at ``pos`` of the buffer (default: the cursor), placed in the whole file."""
        pos = self.pos if pos is None else pos
        exc = json.JSONDecodeError(msg, self.buf, pos)
        nl = self.buf.rfind("\n", 0, pos)
        exc.pos = self.base + pos
        exc.lineno += self._lines
        exc.colno = pos - nl if nl >= 0 else exc.pos - self._last_nl
        exc.args = (f"{msg}: line {exc.lineno} column {exc.colno} (char {exc.pos})",)
        return exc

    def first_error(self, exc: Exception) -> Exception:
        try:
            while self._more(_CHUNK):
                pass
        except UnicodeDecodeError:
            pass
        return self.surrogate or self.invalid or exc


class _BulkReader:
    """The items of a bulk export, each decoded and handed on before the next.

    Gives what ``json.load`` of the whole file would: the rows of the last
    top-level "rows" list (each row's "doc" when it has one), the elements
    of a top-level list, or else the top-level value itself, and the same
    errors.

    With ``autodetect``, the reader also settles the layout from the first
    line and raises ``_Verdict`` when the file is not a bulk
    export after all. Rows are handed on before the verdict is in (for a
    one-line export it comes at the end), so that exception voids them.
    ``rows_key`` is the index of the "rows" key whose rows are handed on; a
    later "rows" key raises ``_Reread`` with its own index.
    """

    def __init__(self, fh, digest, autodetect: bool, rows_key: int):
        self.text = _JsonText(fh, digest)
        self._pending = autodetect
        self._rows_key = rows_key
        self._handed_on = False
        # The error a strict read raises on a file autodetection reads
        # leniently, as json.loads does the first line.
        self._doom: json.JSONDecodeError | None = None

    def _settle(self, layout: str) -> None:
        self._pending = False
        if layout == "ndjson":
            raise _Verdict
        if self._doom is not None:
            raise self.text.first_error(self._doom)

    def _doom_at_line_ws(self, run: str, msg: str) -> None:
        """``run`` starts at the cursor; a strict read fails at a vertical tab or form feed in it."""
        if self._doom is None and (bad := _NOT_JSON_WS(run)):
            self._doom = self.text.error(msg, self.text.pos + bad.start())

    def _past_first_line(self) -> None:
        nl = self.text.first_nl
        if self._pending and nl is not None and nl < self.text.base + self.text.pos:
            self._settle("bulk")

    def _lead_in(self) -> None:
        text = self.text
        run, ch = text.line_rest()
        if not self._pending:
            if not run and ch == "\ufeff":  # at the start of the file
                raise text.fail(_BOM, 0)
            return
        if ch in ("\n", ""):
            self._settle("ndjson")  # a blank first line
        self._doom_at_line_ws(run, "Expecting value")
        text.pos += len(run)
        if ch == "\ufeff":
            if self._doom is None:
                self._doom = text.error(_BOM if text.base + text.pos == 0 else "Expecting value")
            text.pos += 1

    def _first_line_ends(self, is_bulk_tree: bool) -> None:
        """Settle the verdict at the end of the top-level value."""
        self._past_first_line()
        if not self._pending:
            return
        run, ch = self.text.line_rest()
        if ch not in ("\n", ""):
            self._settle("bulk")  # more than one value on the first line
            return
        self._doom_at_line_ws(run, "Extra data")
        self._settle("bulk" if is_bulk_tree else "ndjson")

    def _array(self, emit: bool, unwrap: bool) -> Iterator[object]:
        """The elements of the array at the cursor; the cursor moves past it."""
        text = self.text
        text.pos += 1
        if text.next_char() == "]":
            text.pos += 1
            return
        while True:
            if self._pending:
                self._past_first_line()
            value = text.token(_DECODER.raw_decode)
            if emit:
                self._handed_on = True
                yield value["doc"] if unwrap and isinstance(value, dict) and "doc" in value else value
            ch = text.next_char()
            text.pos += 1
            if ch == "]":
                return
            if ch != ",":
                raise text.fail("Expecting ',' delimiter", text.pos - 1)
            text.next_char()

    def _object(self) -> Iterator[object]:
        """The rows of the object at the cursor; its other members go in ``self._fields``."""
        text = self.text
        fields = self._fields = {}
        rows_seen = 0
        text.pos += 1
        ch = text.next_char()
        if ch == "}":
            text.pos += 1
            return
        while True:
            if self._pending:
                self._past_first_line()
            if ch != '"':
                raise text.fail("Expecting property name enclosed in double quotes")
            key = text.token(_scan_key)
            if text.next_char() != ":":
                raise text.fail("Expecting ':' delimiter")
            text.pos += 1
            if key == "rows" and self._handed_on:
                raise _Reread(rows_seen)  # the last "rows" key wins
            if key == "rows" and text.next_char() == "[":
                yield from self._array(rows_seen >= self._rows_key, unwrap=True)
                fields[key] = _STREAMED
            else:
                text.next_char()
                fields[key] = text.token(_DECODER.raw_decode)
            rows_seen += key == "rows"
            ch = text.next_char()
            text.pos += 1
            if ch == "}":
                return
            if ch != ",":
                raise text.fail("Expecting ',' delimiter", text.pos - 1)
            ch = text.next_char()

    def items(self) -> Iterator[object]:
        try:
            yield from self._items()
        except RecursionError as exc:
            # json.load raises this for a value nested too deeply to decode.
            # While autodetection is pending that value is on the first
            # line, which then makes the file a bulk export, as a first line
            # json.loads cannot decode does; only an earlier strict error wins.
            raise self.text.first_error(self._doom or exc) from None

    def _items(self) -> Iterator[object]:
        text = self.text
        self._lead_in()
        ch = text.next_char()
        if ch == "{":
            yield from self._object()
            fields = self._fields
            self._first_line_ends(_is_bulk_tree(fields))
            rest = () if fields.get("rows") is _STREAMED else (fields,)
        elif ch == "[":
            yield from self._array(True, unwrap=False)
            self._first_line_ends(False)
            rest = ()
        else:
            rest = (text.token(_DECODER.raw_decode),)
            self._first_line_ends(False)
        if text.next_char():
            raise text.fail("Extra data")
        if text.surrogate or text.invalid:
            raise text.surrogate or text.invalid
        yield from rest


# Stands in for a top-level "rows" list that was read row by row.
_STREAMED = object()


def _iter_ndjson(fh, digest) -> Iterator[bytes]:
    for line in fh:
        digest.update(line)
        line = line.strip()
        if line:
            yield line


def _iter_dir(source: Path, digest) -> Iterator[bytes]:
    """Each ``.json`` file under ``source`` in path order; ``digest`` gets a "relpath:sha256hex" line for each."""
    for path in sorted(source.rglob("*.json")):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(source)}:{hashlib.sha256(data).hexdigest()}\n".encode())
        yield data


def _ingest(items: Iterable[object], leaves: _Leaves) -> tuple[_Columns, IngestStats]:
    total = 0
    skipped = 0
    by_error: dict[str, int] = {}
    columns = _Columns(leaves)
    for item in items:
        total += 1
        try:
            # Anything already decoded (dict, list, null, scalar) is a tree;
            # _parse rejects every non-object as malformed.
            fields = _parse(item, leaves)
        except ParseError as exc:
            reason = exc.reason
        except NoVersionsError:
            reason = "no_versions"
        else:
            if not columns.holds(fields[0]):
                columns.append(fields)
                continue
            reason = "duplicate_name"
        skipped += 1
        by_error[reason] = by_error.get(reason, 0) + 1
    return columns, IngestStats(total=total, parsed=total - skipped, skipped=skipped, by_error=by_error)


def load_corpus(
    source: str | Path,
    layout: str | None = None,
    *,
    dep_kinds: Iterable[str] = ("runtime",),
    install_key_pattern: str = "install",
    license_denylist: Iterable[str] = DEFAULT_LICENSE_DENYLIST,
) -> Corpus:
    """Stream all documents from a snapshot into an immutable corpus.

    One document is decoded at a time in every layout, and its fields go
    straight into the load's columns. Malformed documents are counted and
    skipped. The rows are sorted by package name once all are read; the
    first occurrence of a duplicate name in file order wins and later ones
    are counted under "duplicate_name". The digest hashes the bytes this
    read parsed.

    The corpus keeps the dependencies of ``dep_kinds`` on names in the
    corpus and the scripts whose key matches ``install_key_pattern``, and no
    others, and the exclusion reasons under ``license_denylist``. An empty
    or unknown kind raises ``ValueError`` before anything is read.
    """
    leaves = _Leaves(dep_kinds, install_key_pattern, license_denylist)
    source = Path(source)
    if not source.exists():
        raise OSError(f"snapshot not found: {source}")
    if layout not in (None, "bulk", "ndjson", "dir"):
        raise ValueError(f"unknown layout: {layout}")
    if layout is None:
        # None: the layout of a UTF-8 file is settled while it is read.
        layout = "dir" if source.is_dir() else _wide_text_verdict(source)
    rows_key = 0
    while True:
        # Each attempt reads from the start, so it hashes from the start.
        digest = hashlib.sha256()
        try:
            if layout == "dir":
                columns, stats = _ingest(_iter_dir(source, digest), leaves)
            else:
                with open(source, "rb") as fh:
                    if layout == "ndjson":
                        items = _iter_ndjson(fh, digest)
                    else:
                        items = _BulkReader(fh, digest, autodetect=layout is None, rows_key=rows_key).items()
                    columns, stats = _ingest(items, leaves)
            break
        except _Verdict:  # autodetection: the file is ndjson after all
            layout = "ndjson"
        except _Reread as again:
            rows_key = again.rows_key
    layout = layout or "bulk"
    logger.info("ingested %d/%d documents from %s (%s)", stats.parsed, stats.total, source, layout)
    return columns.corpus(stats, digest.hexdigest())
