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
import math
import os
import re
import sys
import threading
from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Iterator
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from functools import lru_cache
from itertools import accumulate, chain, compress, count, groupby, islice, repeat
from operator import itemgetter, ne, sub
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
    """The aware ``dt`` in UTC to the millisecond, the year in four digits: ``0999-03-04T05:06:07.891Z``."""
    return format_epoch_us(epoch_us(dt))


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_EPOCH_ORDINAL = _EPOCH.toordinal()
_MICROSECOND = timedelta(microseconds=1)
US_PER_DAY = 86_400_000_000


def epoch_us(dt: datetime) -> int:
    """An aware datetime as UTC epoch microseconds, exactly: a datetime holds whole microseconds."""
    return (dt - _EPOCH) // _MICROSECOND


def from_epoch_us(us: int) -> datetime:
    """The aware UTC datetime ``us`` UTC epoch microseconds name."""
    return _EPOCH + timedelta(microseconds=us)


@lru_cache(maxsize=1 << 12)
def _utc_date(day: int) -> str:
    """The ISO 8601 date, year in four digits, ``day`` days after 1970-01-01."""
    return date.fromordinal(_EPOCH_ORDINAL + day).isoformat()


def format_epoch_us(us: int) -> str:
    """The time ``us`` UTC epoch microseconds name, spelled as ``format_timestamp`` spells it."""
    # The report writer formats one or two per finding: arithmetic on the
    # integer and a date per day take half the time of building a datetime.
    day, ms = divmod(us // 1000, 86_400_000)
    return "%sT%02d:%02d:%02d.%03dZ" % (_utc_date(day), ms // 3_600_000, ms // 60_000 % 60, ms // 1000 % 60, ms % 1000)


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


class _Load:
    """One read of a snapshot: the scan's scope, the load's lookup tables and its rows in file order.

    The scope is the dependency kinds and the install-key pattern the scan
    reads, and the license denylist its exclusions apply; a row keeps
    nothing else of a document's dependencies, scripts, repository and
    license. Raises ``ValueError`` for an empty or unknown dependency kind.

    Registry documents repeat the same maintainers (however an entry spells
    them), versions, dependency names and script names across packages; the
    tables keep each distinct one once. ``names`` numbers each package and
    dependency name in the order it is first seen. ``identity_keys``
    numbers each maintainer identity, and ``identity_domains`` holds its
    email domain, or None, at the same index.

    The rows have the names of the ``Corpus`` columns, but that a row's
    name, ``row_names``, and its dependencies, ``dep_targets``, are ids of
    ``names``. Rows are only appended, also one whose name an earlier row
    has. ``corpus`` keeps the first row of each name, sorts the rows by
    name and turns those ids into positions.
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
        self.total = 0  # documents added
        self.skipped = 0
        self.by_error: Counter[str] = Counter()  # of the skipped documents, by reason

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

    def add(self, item: object) -> None:
        """Parse one document (``_parse``) and append its row, or count why it is skipped.

        A document is skipped as ``malformed`` or ``no_name`` (``ParseError``)
        or ``no_versions`` (``NoVersionsError``). Anything already decoded is
        a tree, and every tree but an object is malformed. A row whose name
        an earlier row has is appended too: ``corpus`` drops it.
        """
        self.total += 1
        try:
            fields = _parse(item, self)
        except ParseError as exc:
            reason = exc.reason
        except NoVersionsError:
            reason = "no_versions"
        else:
            self.append(fields)
            return
        self.skipped += 1
        self.by_error[reason] += 1

    def append(self, fields: tuple) -> None:
        """Add the row of one ``_parse`` result."""
        name, version, last_modified, scripts, maintainers, contributors, dependencies, runtime, deprecated, reasons = fields
        ids = self.names
        number = ids.setdefault
        row = len(self.row_names)
        self.row_names.append(number(name, len(ids)))
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

    def part(self) -> dict:
        """The rows, tables and counts ``fold`` reads of this load, as the load of a later range; a worker process sends it back.

        No person cache or lookup dict goes. The names and the identity keys,
        in id order, each go as one joined string and the lengths of its
        strings (``_joined``), which unpickle to two objects, not one per string.
        """
        part = dict(vars(self), names=_joined(self.names), identity_keys=_joined(self.identity_keys))
        for lookup in ("_people", "_identities", "strings"):
            del part[lookup]
        return part

    def fold(self, part: dict) -> None:
        """Append the rows of ``part``, the ``part()`` of the load of a later range, as this load would read them.

        The names of ``part`` are numbered here and its identities
        registered here, both in its id order, which is the order this load
        would first see them in; its versions, domains and script keys are
        interned here. Its counts are added to this load's. Its rows are
        appended whole, also those whose name an earlier row has.
        """
        ids = self.names
        number = ids.setdefault
        name_ids = array("i", [number(name, len(ids)) for name in _split(*part["names"])])
        identity_ids = array("i", map(self.identity, _split(*part["identity_keys"]), part["identity_domains"]))
        base = len(self.row_names)
        intern = self.strings.setdefault
        self.row_names.extend(map(name_ids.__getitem__, part["row_names"]))
        self.versions += [intern(version, version) for version in part["versions"]]
        self.last_modified += part["last_modified"]
        _append_rows(self.dep_offsets, self.dep_targets, part["dep_offsets"], part["dep_targets"], name_ids)
        _append_rows(self.maint_offsets, self.maint_ids, part["maint_offsets"], part["maint_ids"], identity_ids)
        self.contributor_counts += part["contributor_counts"]
        self.exclusion_reasons += part["exclusion_reasons"]
        self.runtime_flags += part["runtime_flags"]
        for row, scripts in part["scripts"].items():
            self.scripts[base + row] = {intern(key, key): body for key, body in scripts.items()}
        for row, deprecated in part["deprecated"].items():
            self.deprecated[base + row] = deprecated
        self.total += part["total"]
        self.skipped += part["skipped"]
        self.by_error.update(part["by_error"])

    def corpus(self, digest: str) -> Corpus:
        """The corpus of the rows, sorted by name, with the load's counts; the lookup tables are emptied, as the columns hold what they number.

        Of the rows that share a name, the first in file order is kept, and
        each other is counted as skipped under ``duplicate_name``.
        """
        ids = self.names
        row_names = self.row_names
        table = list(ids)
        names = tuple(map(itemgetter(0), groupby(sorted(map(table.__getitem__, row_names)))))  # each once
        del table
        repeats = len(row_names) - len(names)
        position = array("i", [-1]) * len(ids)  # of each name id
        for pos, name in enumerate(names):
            position[ids[name]] = pos
        for lookup in (self._people, ids, self._identities, self.strings):
            lookup.clear()
        new_row = array("i", map(position.__getitem__, row_names))
        rows = array("i", bytes(new_row.itemsize * len(names)))
        for row, pos in zip(range(len(new_row) - 1, -1, -1), reversed(new_row)):
            rows[pos] = row  # the last written, so kept, is the first in file order
        if repeats:  # the later rows of a name take no position
            for row in compress(count(), map(ne, map(rows.__getitem__, new_row), count())):
                new_row[row] = -1
            self.skipped += repeats
            self.by_error["duplicate_name"] = repeats
        parsed = self.total - self.skipped
        stats = IngestStats(total=self.total, parsed=parsed, skipped=self.skipped, by_error=dict(self.by_error))
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


def _append_rows(offsets: array, values: array, part_offsets: array, part_values: array, new_id: array) -> None:
    """Append the rows of other compressed sparse rows, each value ``v`` as ``new_id[v]``."""
    offsets.extend(map(len(values).__add__, islice(part_offsets, 1, None)))
    values.extend(map(new_id.__getitem__, part_values))


def _joined(strings: Iterable[str]) -> tuple[str, array]:
    """``strings`` as one string and the length of each, which ``_split`` turns back into them."""
    strings = list(strings)
    return "".join(strings), array("i", map(len, strings))


def _split(text: str, lengths: array) -> Iterator[str]:
    return map(text.__getitem__, map(slice, accumulate(lengths, initial=0), accumulate(lengths)))


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


def _parse(item: object, load: _Load) -> tuple:
    """Normalize one registry document into the fields of its latest version, as a load's row.

    ``item`` is the document's bytes or text, or its decoded JSON tree. The
    latest version is the "latest" dist-tag (the registry's own notion of
    latest), or else the highest semver among the versions that are
    objects. Raises ParseError for a malformed document, one nested too
    deeply to decode among them, and NoVersionsError when no version is an
    object. The fields are: the trimmed name; the version; the last
    modification as UTC epoch microseconds; the scripts whose key matches
    the install pattern (``is_install_key``); the maintainers' identity ids
    of ``load``, as listed; the number of usable contributor entries; the
    names the scan's kinds declare, merged in first-declared order, each
    once, without the package itself; whether the runtime kind declares a
    name, whichever kinds the scan reads; the deprecation (None, a bool or
    the message as given); and the ``EXCLUSION_REASONS`` bits under the
    license denylist. ``load`` holds the scan's scope and shares equal
    strings with the other documents it reads.
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

    maintainers = load.maintainers(vobj, item)
    contributors = load.people(vobj.get("contributors")) or load.people(item.get("contributors"))
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
        if license_value is None or license_value.strip().upper() in load.license_denylist:
            reasons |= NO_REPO_NO_LICENSE
    intern = load.strings.setdefault
    runtime = vobj.get("dependencies")
    return (
        name,
        intern(version, version),
        epoch_us(last_modified),
        _install_scripts(vobj.get("scripts"), load.strings, load.install_key_pattern),
        maintainers,
        len(contributors),
        load.dependencies(vobj, name),
        isinstance(runtime, dict) and any(isinstance(k, str) and k for k in runtime),
        deprecated,
        reasons,
    )


def _is_bulk_tree(tree: object) -> bool:
    return isinstance(tree, dict) and "rows" in tree and "name" not in tree


# What autodetection reads of a file first: enough to see past leading
# whitespace, and to settle most first lines.
_PROBE = 1 << 16


def _wide_text_verdict(source: Path) -> str | None:
    """The layout of a file whose first line json.loads reads as UTF-16 or UTF-32; else None.

    Autodetection parses the first line's bytes, and json.loads detects
    those encodings in bytes. No registry export is written in them, and
    the first line of such a file is parsed whole, as json.loads does.
    """
    with open(source, "rb") as fh:
        line = fh.readline(_PROBE)
        whole = line.endswith(b"\n") or len(line) < _PROBE
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


def _headroom() -> int:
    """The deepest nesting ``_DECODER`` decodes when the caller calls it through one frame, as ``_JsonText.token`` does.

    It probes upward from shallow values, so it never nests much deeper
    than decoding a row that deep would.
    """
    low, high = 0, 64
    while high <= sys.getrecursionlimit():
        try:
            _DECODER.raw_decode("[" * high + "]" * high)
        except RecursionError:
            break
        low, high = high, high * 2
    while high - low > 1:  # ``low`` decodes; ``high`` fails, or exceeds the limit
        mid = (low + high) // 2
        try:
            _DECODER.raw_decode("[" * mid + "]" * mid)
        except RecursionError:
            high = mid
        else:
            low = mid
    return low


class _Verdict(Exception):
    """Autodetection found that the file being read is ndjson, not a bulk export."""


class _JsonText:
    """The UTF-8 text of a file, decoded in chunks behind a cursor.

    Only ``buf[pos:]`` is unread; each refill drops the text before the
    cursor. Errors carry the position in the whole file, as ``json.load``'s
    do. Decoding is strict but for encoded surrogates, which are kept and
    recorded in ``surrogate``: ``json.loads`` accepts them in bytes, which
    autodetection must match, while a strict read of the file does not.
    """

    def __init__(self, fh, digest=None, first_read: int | None = None, size: int | None = None):
        self._fh = fh
        self._digest = digest  # when given, sees every byte read from the file
        self._first_read = first_read  # bytes of the first read, or None for ``_CHUNK``
        self._size = size  # bytes to read from the file's position, or None to its end
        self._read = 0  # bytes read so far
        self._undecoded = b""
        self._decoded = 0  # characters decoded so far
        self.buf = ""
        self.pos = 0
        self.base = 0  # file position of buf[0]
        self.eof = False
        self.first_nl: int | None = None  # text position of the first newline
        self._lines = 0  # newlines before buf
        self._last_nl = -1  # file position of the last newline before buf
        self.surrogate: UnicodeDecodeError | None = None
        self.invalid: UnicodeDecodeError | None = None  # no text after this
        # The byte offset whose text position ``mark`` is noted once decoded.
        self.mark_byte: int | None = None
        self.mark = math.inf

    def _decode(self, data: bytes) -> str:
        raw = self._undecoded + data
        try:
            text, used = codecs.utf_8_decode(raw, "strict", not data)
            valid = used
        except UnicodeDecodeError as exc:
            try:
                text, used = codecs.utf_8_decode(raw, "surrogatepass", not data)
                valid = used
                self.surrogate = self.surrogate or exc
            except UnicodeDecodeError as bad:
                text, used = codecs.utf_8_decode(raw[: bad.start], "surrogatepass", True)[0], len(raw)
                valid = bad.start
                self.invalid = bad
        self._undecoded = raw[used:]
        if self.mark_byte is not None and 0 <= (at := self.mark_byte - self._read + len(raw)) <= valid:
            self.mark = self._decoded + len(codecs.utf_8_decode(raw[:at], "surrogatepass", True)[0])
            self.mark_byte = None
        if self.first_nl is None and (nl := text.find("\n")) >= 0:
            self.first_nl = self._decoded + nl
        self._decoded += len(text)
        return text

    def _more(self, size: int) -> str:
        """The next decoded text, "" at the end of the file or at a byte that is not UTF-8."""
        while not self.invalid:
            if self._size is not None:
                size = min(size, self._size - self._read)
            data = self._fh.read(size)
            self._read += len(data)
            if self._digest is not None:
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
        text = self._more(max(self._first_read or _CHUNK, len(buf) - pos))
        self._first_read = None
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

    def place(self, offset: int) -> None:
        """Note the text position of byte ``offset`` of the file in ``mark``: now if it is decoded, else once it is."""
        if self.invalid:  # no text reaches past it
            return
        decoded = self._read - len(self._undecoded)
        if offset > decoded:
            self.mark_byte = offset
            return
        here = self._fh.tell()
        self._fh.seek(offset)
        rest = self._fh.read(decoded - offset)
        self._fh.seek(here)
        self.mark = self._decoded - len(codecs.utf_8_decode(rest, "surrogatepass", True)[0])

    def jump(self, offset: int, chars: int, newline: bool) -> None:
        """Move the cursor ``chars`` characters on, to byte ``offset`` of the file, over text that others decoded.

        That text is strict UTF-8 and holds a newline if ``newline``. Of its
        bytes, those this text has not read are read and hashed already
        (``_Split.join``). Positions after the jump are those of the whole
        file, but line numbers in errors are not.
        """
        at = self.base + self.pos + chars
        if newline and self.first_nl is None:
            self.first_nl = at - 1  # where in that text is not known, only that it is before the cursor
        if offset <= self._read:  # the text holds it already
            self.pos = at - self.base
            return
        self._read, self._undecoded, self._decoded = offset, b"", at
        self.buf, self.pos, self.base, self.eof = "", 0, at, False

    def tell(self) -> int:
        """The bytes read up to the cursor, for text that is strict UTF-8."""
        return self._read - len(self._undecoded) - len(self.buf[self.pos :].encode())

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
    """The items of a bulk export, each decoded and added to the ``split``'s load before the next.

    Adds what ``json.load`` of the whole file would give: the rows of the
    last top-level "rows" list (each row's "doc" when it has one), the
    elements of a top-level list, or else the top-level value itself, and
    raises the same errors.

    With ``autodetect``, the reader also settles the layout from the first
    line and raises ``_Verdict`` when the file is not a bulk
    export after all. Rows are added before the verdict is in (for a
    one-line export it comes at the end), so that exception voids them.
    A later top-level "rows" key voids the rows added so far in place: the
    split's load is replaced by an empty one, and the read goes on.

    The rows from the ``split``'s first cut on may be read by worker
    processes, and their loads folded into the split's load in place of
    the rows they read (``_Split.join``). An error after that is not
    placed as one read places it, so ``load_corpus`` then reads again.
    """

    def __init__(self, fh, digest, autodetect: bool, split: _Split):
        # Autodetection reads little first: a first line settles an ndjson
        # snapshot, and what the read decoded is then dropped.
        self.text = _JsonText(fh, digest, min(_PROBE, _CHUNK) if autodetect else None)
        self._pending = autodetect
        # The error a strict read raises on a file autodetection reads
        # leniently, as json.loads does the first line.
        self._doom: json.JSONDecodeError | None = None
        self._split = split
        self._unsplit = True  # no array has been read in ranges yet

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

    def _array(self, unwrap: bool) -> None:
        """Add the elements of the array at the cursor; the cursor moves past it.

        The first array with an element may be read in ranges.
        """
        text = self.text
        text.pos += 1
        if text.next_char() == "]":
            text.pos += 1
            return
        split = None
        if self._unsplit:
            self._unsplit = False
            if self._split.pick(_row_cuts):
                split = self._split
                text.place(split.cuts[0])
                split.start(_headroom(), unwrap)  # this frame adds the rows
        add = self._split.load.add
        while True:
            if self._pending:
                self._past_first_line()
            if split is not None and text.base + text.pos >= text.mark:
                # At the first cut a row starts; past it, the cut fell inside a row.
                jump = text.base + text.pos == text.mark and split.join()
                split = None
                if jump:
                    # Past the folded rows: at the "]", or at the first row of a range a worker could not read.
                    text.jump(*jump)
                    if text.next_char() != "]":
                        continue
                    text.pos += 1
                    return
            value = text.token(_DECODER.raw_decode)
            add(value["doc"] if unwrap and isinstance(value, dict) and "doc" in value else value)
            ch = text.next_char()
            text.pos += 1
            if ch == "]":
                return
            if ch != ",":
                raise text.fail("Expecting ',' delimiter", text.pos - 1)
            text.next_char()

    def _object(self) -> None:
        """Add the rows of the object at the cursor; its other members go in ``self._fields``."""
        text = self.text
        fields = self._fields = {}
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
            if key == "rows" and key in fields:  # the last "rows" key wins
                split = self._split
                split.load = _Load(*split.scope)
            if key == "rows" and text.next_char() == "[":
                self._array(unwrap=True)
                fields[key] = _STREAMED
            else:
                text.next_char()
                fields[key] = text.token(_DECODER.raw_decode)
            ch = text.next_char()
            text.pos += 1
            if ch == "}":
                return
            if ch != ",":
                raise text.fail("Expecting ',' delimiter", text.pos - 1)
            ch = text.next_char()

    def read(self) -> None:
        try:
            self._read()
        except RecursionError as exc:
            # json.load raises this for a value nested too deeply to decode.
            # While autodetection is pending that value is on the first
            # line, which then makes the file a bulk export, as a first line
            # json.loads cannot decode does; only an earlier strict error wins.
            raise self.text.first_error(self._doom or exc) from None

    def _read(self) -> None:
        text = self.text
        self._lead_in()
        ch = text.next_char()
        if ch == "{":
            self._object()
            fields = self._fields
            self._first_line_ends(_is_bulk_tree(fields))
            rest = () if fields.get("rows") is _STREAMED else (fields,)
        elif ch == "[":
            self._array(unwrap=False)
            self._first_line_ends(False)
            rest = ()
        else:
            rest = (text.token(_DECODER.raw_decode),)
            self._first_line_ends(False)
        if text.next_char():
            raise text.fail("Extra data")
        if text.surrogate or text.invalid:
            raise text.surrogate or text.invalid
        for item in rest:
            self._split.load.add(item)


# Stands in for a top-level "rows" list that was read row by row.
_STREAMED = object()


def _iter_ndjson(fh, end: int | None, digest=None) -> Iterator[bytes]:
    """The stripped nonblank lines of ``fh`` from its position to file position ``end``, where a line ends; None: to the end.

    ``digest``, when given, gets every byte read.
    """
    if end is None:
        end = os.fstat(fh.fileno()).st_size
    pos = fh.tell()
    while pos < end and (line := fh.readline()):
        pos += len(line)
        if digest is not None:
            digest.update(line)
        line = line.strip()
        if line:
            yield line


def _cuts(source: Path, size: int, n: int) -> list[int]:
    """The ``n - 1`` cuts between ``n`` ranges of whole lines of ``source``, a file of ``size`` bytes.

    Cut ``i`` is where the line that holds byte ``size * i // n - 1`` ends,
    so a range is empty when one line spans it.
    """
    cuts = []
    with open(source, "rb") as fh:
        for i in range(1, n):
            fh.seek(size * i // n - 1)
            fh.readline()
            cuts.append(fh.tell())
    return cuts


# An ndjson snapshot or a bulk export is read in ranges of at least this
# many bytes: a second range costs a worker process, its rows crossing a
# pipe, the fold and hashing the folded bytes. Loading seed-7 synth
# snapshots with 2 forked jobs against 1 on a 2-CPU host, GC off, interleaved
# in fresh interpreters (medians of 15), the ndjson split lost at 4.1 MB
# (0.155 s against 0.137 s) and was even at 6.3 and 8.4 MB (0.208 s against
# 0.210 s, 0.276 s against 0.279 s); the bulk one was even at 4.4 MB (0.145 s
# against 0.149 s) and won from 6.7 MB (0.227 s against 0.262 s). At 17 and
# 18 MB both won (ndjson 0.570 s against 0.685 s, bulk 0.547 s against
# 0.661 s).
# Spawned workers break even later still. So a range holds at least 4 MiB:
# a snapshot under 8 MiB is read in one process.
_MIN_RANGE_BYTES = 4 << 20


@contextmanager
def _workers(n: int) -> Iterator:
    """The ``map`` of a pool of ``n`` worker processes, which the block's end waits for."""
    import multiprocessing  # only a split read starts processes
    from concurrent.futures import ProcessPoolExecutor

    # A forked worker starts at once; a spawned one starts an interpreter,
    # which cost 0.3 s of wall and 0.5 s of CPU per 100k-package load. But
    # forking a process that runs other threads is unsafe, so then, and off
    # Linux, workers are spawned.
    method = "fork" if sys.platform == "linux" and threading.active_count() == 1 else "spawn"
    with ProcessPoolExecutor(n, mp_context=multiprocessing.get_context(method)) as pool:
        yield pool.map


# A bulk export is cut where a row may start: after a comma and JSON
# whitespace, at an object. The bytes are ASCII, so a match in UTF-8 bytes
# is one in the text. Each cut is the first of at most _CUT_TRIES such
# places that holds a row of at most _CHUNK bytes: a row is searched for
# only so long, as a large document nests many objects.
_CUT_RE = re.compile(rb",[ \t\n\r]*\{")
_CUT_TAIL_RE = re.compile(rb",[ \t\n\r]*\Z")
_CUT_TRIES = 256


def _is_row_at(fh, offset: int) -> bool:
    """True iff the value at byte ``offset`` of ``fh`` decodes, within ``_CHUNK`` bytes, to a row: an object with "doc", or with "name" and "versions"."""
    size = 1 << 12
    while True:
        fh.seek(offset)
        data = fh.read(size)
        text = codecs.utf_8_decode(data, "replace", False)[0]
        try:
            value = _DECODER.raw_decode(text)[0]
        except RecursionError:
            return False
        except json.JSONDecodeError as exc:
            # Decoded again with more text only when it may have been cut short, as ``_JsonText.token`` does.
            if len(data) < size or size >= _CHUNK or not (exc.msg.startswith("Unterminated string") or exc.pos >= len(text) - _CUT):
                return False
            size *= 4
            continue
        return isinstance(value, dict) and ("doc" in value or ("name" in value and "versions" in value))


def _next_cut(fh, start: int, end: int) -> int | None:
    """The first byte offset in ``start`` to ``end`` of ``fh`` that follows a comma and JSON whitespace and holds a row (``_is_row_at``); None without one."""
    offset, block = start, b""  # block: the bytes from offset not yet searched to the end
    tries = 0
    while offset + len(block) < end:
        fh.seek(offset + len(block))
        block += fh.read(min(_PROBE, end - offset - len(block)))
        for match in _CUT_RE.finditer(block):
            if _is_row_at(fh, offset + match.end() - 1):
                return offset + match.end() - 1
            tries += 1
            if tries == _CUT_TRIES:
                return None
        # A comma and whitespace at the end may precede a cut in the next block.
        keep = tail.start() if (tail := _CUT_TAIL_RE.search(block)) else len(block)
        offset, block = offset + keep, block[keep:]
    return None


def _row_cuts(source: Path, size: int, n: int) -> list[int]:
    """Up to ``n - 1`` ascending byte offsets of ``source`` where a row of a bulk export may start.

    Cut ``i`` is the first after byte ``size * i // n`` and after the cut
    before it, and before byte ``size * (i + 1) // n`` (``_next_cut``).
    Nothing is known yet of what holds it: it may be an object nested in a
    row, or text in a string of a malformed file; the read verifies it
    (``_Split``).
    """
    cuts: list[int] = []
    with open(source, "rb") as fh:
        for i in range(1, n):
            cut = _next_cut(fh, max(size * i // n, cuts[-1] + 1 if cuts else 0), size * (i + 1) // n)
            if cut is not None:
                cuts.append(cut)
    return cuts


def _load_range(source: Path, start: int, end: int | None, scope: tuple, headroom: int, unwrap: bool | None) -> tuple | None:
    """What a worker reads of ``source`` from byte ``start`` to byte ``end``; None where one read of the whole file would not read it so.

    ``end`` is the next range's start; None for the last range, which ends
    with the file, or for a bulk export at its rows' "]". With ``unwrap``
    None the range holds ndjson lines (``_iter_ndjson``). Else it holds rows
    of a bulk export and commas: values and commas to the end of the range,
    or for the last range to "]", each row's "doc" taken when ``unwrap``.
    This frame adds each document to a new load, and first moves the
    recursion limit so that it decodes as deep as the reader's adding frame
    does, ``headroom`` (``_headroom``). Returns the ``part()`` of the load
    and where the range ends: the byte offset, the characters of the range
    and whether they hold a newline (for ndjson, 0 and False). None when
    the headroom cannot be matched, when a row is not JSON or is nested
    deeper than ``headroom``, when the rows do not end where the range
    does, or when the range is not strict UTF-8, encoded surrogates among
    it: the reader then reads the range itself. A split read runs this in
    worker processes, so its arguments pickle.
    """
    load = _Load(*scope)
    limit = sys.getrecursionlimit()
    try:
        with open(source, "rb") as fh:
            fh.seek(start)
            if (room := _headroom()) != headroom:
                sys.setrecursionlimit(sys.getrecursionlimit() + headroom - room)
                if _headroom() != headroom:
                    raise RecursionError("recursion headroom differs from the reader's")
            if unwrap is None:
                for line in _iter_ndjson(fh, end):
                    load.add(line)
                return load.part(), fh.tell(), 0, False
            text = _JsonText(fh, size=None if end is None else end - start)
            while True:
                value = text.token(_DECODER.raw_decode)
                load.add(value["doc"] if unwrap and isinstance(value, dict) and "doc" in value else value)
                ch = text.next_char()
                if end is None and ch == "]":
                    break
                if ch != ",":
                    raise text.error("Expecting ',' delimiter")
                text.pos += 1
                if not text.next_char() and end is not None:
                    break  # at the end of the range, where the next row starts
    except (ValueError, RecursionError):  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        return None
    finally:
        sys.setrecursionlimit(limit)
    if text.surrogate or text.invalid:
        return None
    chars = text.base + text.pos
    return load.part(), start + text.tell(), chars, text.first_nl is not None and text.first_nl < chars


class _Split:
    """A snapshot read in up to ``jobs`` ranges of at least ``_MIN_RANGE_BYTES``, all but the first by worker processes.

    When the reader reaches its first row, it picks the cuts (``pick``):
    the line ends of an ndjson snapshot (``_cuts``), or guesses where a row
    of a bulk export starts (``_row_cuts``). It then starts the ranges
    (``start``) in a pool that closes with the split. Nothing is read for
    them, nor any process started, before: a file autodetection reads may
    turn out to be ndjson. The reader reads the rows before the first cut
    itself and joins the ranges there (``join``). A bulk export's reader
    joins them only when its cursor is at a row's start at the first cut:
    the range that starts at a row and reads its rows to the next cut
    verifies that cut as well. ``join`` folds the loads of the ranges into
    ``load`` in file order, up to the first range a worker could not read
    so. ``fh`` is the reader's file and ``digest`` hashes what it reads.
    """

    def __init__(self, source: Path, fh, digest, load: _Load, scope: tuple, jobs: int):
        self.source = source
        self.fh = fh
        self.digest = digest
        self.load = load
        self.scope = scope
        self.jobs = jobs
        self.workers = ExitStack()
        self.cuts: list[int] = []
        self.accepted = 0  # cuts whose range was folded
        self._results: Iterator | None = None

    def __enter__(self) -> _Split:
        return self

    def __exit__(self, *exc) -> None:
        if self.cuts:
            logger.debug("split read of %s: %d of %d cuts accepted", self.source, self.accepted, len(self.cuts))
        self.workers.close()

    def pick(self, cuts) -> bool:
        """Pick the cuts with ``cuts``, ``_cuts`` or ``_row_cuts``; False without one."""
        size = self.source.stat().st_size
        n = max(1, min(self.jobs, size // _MIN_RANGE_BYTES))
        self.cuts = cuts(self.source, size, n) if n > 1 else []
        return bool(self.cuts)

    def start(self, headroom: int, unwrap: bool | None) -> None:
        """Start reading the ranges (``_load_range``): ndjson lines, or rows of a bulk export unless ``unwrap`` is None.

        ``headroom`` is the ``_headroom()`` of the reader's frame that adds documents.
        """
        map_ranges = self.workers.enter_context(_workers(len(self.cuts)))
        ends = [*self.cuts[1:], None]
        self._results = map_ranges(
            _load_range, repeat(self.source), self.cuts, ends, repeat(self.scope), repeat(headroom), repeat(unwrap)
        )

    def join(self) -> tuple[int, int, bool] | None:
        """Fold in the ranges up to the first a worker could not read, and hash their bytes the reader has not read.

        Returns where the folded ranges end, as ``_load_range`` gives it for
        the last of them, but with the characters of all of them; the
        reader's file is then at that byte offset, or past it. None, with
        nothing folded, when the first range could not be read.
        """
        self.load._people.clear()  # it serves parsing only; this makes room for the parts
        fh, end, chars, newline = self.fh, 0, 0, False
        for result in self._results:
            if result is None:
                break
            part, end, range_chars, range_newline = result
            del result
            self.load.fold(part)
            del part  # a folded part is not kept while its bytes are read
            while (ahead := end - fh.tell()) > 0 and (block := fh.read(min(ahead, _CHUNK))):
                self.digest.update(block)
            chars += range_chars
            newline = newline or range_newline
            self.accepted += 1
        self._results = None
        return (end, chars, newline) if self.accepted else None


def load_corpus(
    source: str | Path,
    layout: str | None = None,
    *,
    dep_kinds: Iterable[str] = ("runtime",),
    install_key_pattern: str = "install",
    license_denylist: Iterable[str] = DEFAULT_LICENSE_DENYLIST,
    jobs: int = 1,
) -> Corpus:
    """Stream all documents from a snapshot into an immutable corpus.

    One document is decoded at a time in every layout, and its fields go
    straight into the load's rows. Malformed documents are counted and
    skipped. The rows are sorted by package name once all are read; the
    first occurrence of a duplicate name in file order wins and later ones
    are counted under "duplicate_name" (``_Load.corpus``). A later
    top-level "rows" key of a bulk export voids the rows read so far, and
    the read goes on in the same pass. The digest hashes the bytes of the
    file, or for a directory one "relpath:sha256hex" line per document.

    An ndjson snapshot or a bulk export of at least twice
    ``_MIN_RANGE_BYTES`` is read in up to ``jobs`` ranges: this process
    reads the first, one worker process each of the others, and the loads
    are folded in file order, which gives the corpus one read gives
    (``_Split``). An ndjson snapshot is cut where a line ends. A bulk
    export is cut where a row-like object follows a comma (``_row_cuts``);
    the cuts are verified by the read itself, which reads on in this
    process from the first it cannot verify. A read that fails after it
    has folded a range is read again in one range, so that it fails as one
    read does. A directory is read in this process.

    The corpus keeps the dependencies of ``dep_kinds`` on names in the
    corpus and the scripts whose key matches ``install_key_pattern``, and no
    others, and the exclusion reasons under ``license_denylist``. An empty
    or unknown kind, or ``jobs`` below 1, raises ``ValueError`` before
    anything is read.
    """
    # Tuples, so that a restarted or voided read can build its load from a
    # generator's items again, and a worker process from pickled ones.
    scope = (tuple(dep_kinds), install_key_pattern, tuple(license_denylist))
    load = _Load(*scope)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    source = Path(source)
    if not source.exists():
        raise OSError(f"snapshot not found: {source}")
    if layout not in (None, "bulk", "ndjson", "dir"):
        raise ValueError(f"unknown layout: {layout}")
    if layout is None:
        # None: the layout of a UTF-8 file is settled while it is read.
        layout = "dir" if source.is_dir() else _wide_text_verdict(source)
    while True:
        # Each attempt reads from the start, so it hashes from the start.
        digest = hashlib.sha256()
        split = None
        try:
            if layout == "dir":
                for path in sorted(source.rglob("*.json")):
                    data = path.read_bytes()
                    digest.update(f"{path.relative_to(source)}:{hashlib.sha256(data).hexdigest()}\n".encode())
                    load.add(data)
            else:
                with open(source, "rb") as fh, _Split(source, fh, digest, load, scope, jobs) as split:
                    if layout != "ndjson":
                        _BulkReader(fh, digest, layout is None, split).read()
                        load = split.load  # a later "rows" key replaces it
                    else:
                        if split.pick(_cuts):
                            # Workers read the lines from the first cut on; this frame adds the others.
                            split.start(_headroom(), None)
                            for line in _iter_ndjson(fh, split.cuts[0], digest):
                                load.add(line)
                            split.join()
                        for line in _iter_ndjson(fh, None, digest):
                            load.add(line)
            break
        except _Verdict:  # autodetection: the file is ndjson after all
            layout = "ndjson"
        except (ValueError, RecursionError):
            # Past a fold the reader's text does not place an error as one read's does.
            if split is None or not split.accepted:
                raise
            logger.debug("split read of %s: failed after a fold, so it starts over in one range", source)
            jobs = 1
        load = _Load(*scope)  # no table or row of a voided attempt is kept
    corpus = load.corpus(digest.hexdigest())
    logger.info("ingested %d/%d documents from %s (%s)", corpus.stats.parsed, corpus.stats.total, source, layout or "bulk")
    return corpus
