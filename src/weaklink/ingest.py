"""Registry snapshot ingestion.

Normalizes npm-style registry documents (one JSON tree per package) into
immutable ``PackageRecord`` values, each holding the latest version's
metadata that the analyzers read. Three snapshot layouts are supported:

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
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from datetime import datetime, timezone
from operator import attrgetter
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


# Every record without scripts holds this one dict, so no reader may write
# to a record's scripts: a write to it would reach all of those records.
_EMPTY_MAP: dict[str, str] = {}


class _Leaves:
    """What the records of one load share: the scan's scope and leaf values.

    The scope is the dependency kinds and the install-key pattern the scan
    reads, and the license denylist its exclusions apply; a record keeps
    nothing else of a document's dependencies, scripts, repository and
    license. Registry documents repeat the same maintainers (however an
    entry spells them), maintainer lists, versions, dependency names and
    script names across packages, and a package's name is a dependency
    name of the packages that declare it; each distinct one is kept once.
    ``email_domains`` maps each maintainer identity that has an email
    domain to it. Raises ``ValueError`` for an empty or unknown dependency
    kind.
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
        self._people: dict[tuple[str | None, str | None], tuple[str, str | None] | None] = {}
        self._lists: dict[tuple[str, ...], tuple[str, ...]] = {}
        self.email_domains: dict[str, str] = {}
        self.strings: dict[str, str] = {}

    def person(self, entry: object) -> tuple[str, str | None] | None:
        if not isinstance(entry, dict):
            return parse_person(entry)
        name, email = entry.get("name"), entry.get("email")
        key = (name if isinstance(name, str) else None, email if isinstance(email, str) else None)
        try:
            return self._people[key]
        except KeyError:
            person = self._people[key] = parse_person(entry)
            return person

    def people(self, raw: object) -> list[tuple[str, str | None]]:
        if isinstance(raw, dict) or isinstance(raw, str):
            raw = [raw]
        if not isinstance(raw, list):
            return []
        return [person for entry in raw if (person := self.person(entry)) is not None]

    def maintainers(self, version: dict, document: dict) -> tuple[str, ...]:
        """The identity keys of the version's maintainers, or else the document's; equal keys and lists are shared."""
        people = self.people(version.get("maintainers")) or self.people(document.get("maintainers"))
        domains, intern = self.email_domains, self.strings.setdefault
        keys = tuple([intern(key, key) for key, _ in people])
        for key, (_, domain) in zip(keys, people):
            if domain and key not in domains:
                domains[key] = intern(domain, domain)
        return self._lists.setdefault(keys, keys)

    def dependencies(self, vobj: dict, name: str) -> tuple[str, ...]:
        """The names the scan's kinds declare, merged in first-declared order, each once, without ``name``."""
        declared: dict = {}
        for key in self.dep_keys:
            raw = vobj.get(key)
            if raw and isinstance(raw, dict):
                declared.update(raw)  # a name declared before keeps its place
        intern = self.strings.setdefault
        return tuple([intern(k, k) for k in declared if isinstance(k, str) and k and k != name])


@dataclass(frozen=True, slots=True)
class PackageRecord:
    """Normalized latest-version metadata of one package, as one scan reads it.

    ``dependencies`` are the names that the scan's dependency kinds declare,
    merged in first-declared order, each once, without the package itself.
    ``has_runtime_dependencies`` records whether the runtime kind declares
    any name, whichever kinds the scan reads. ``scripts`` holds only the
    scripts whose key matches the scan's install pattern
    (``is_install_key``). ``exclusion_reasons`` holds the record's
    exclusion reasons as ``EXCLUSION_REASONS`` bits, decided by
    ``parse_record`` under the scan's license denylist.
    """

    name: str
    version: str
    last_modified: datetime
    scripts: dict[str, str]
    maintainers: tuple[str, ...]
    contributor_count: int
    dependencies: tuple[str, ...]
    has_runtime_dependencies: bool
    deprecated: object  # None, bool, or message string as given
    exclusion_reasons: int

    @property
    def package_id(self) -> str:
        """The registry's unique identifier "name@version".

        Scoped names keep their leading "@" because the version is appended
        with the final "@".
        """
        return f"{self.name}@{self.version}"


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
    """Immutable set of PackageRecords in stable name order.

    A record's position is its index in ``records``, so position order is
    name order. The indexes over a corpus hold positions, not names, and no
    name-keyed map of the records is kept: ``position`` finds a name by
    binary search. ``email_domains`` maps each maintainer identity key
    with an email domain to that domain, decided once at ingest.
    """

    records: tuple[PackageRecord, ...]
    stats: IngestStats
    email_domains: dict[str, str]
    digest: str = ""

    def position(self, name: str) -> int:
        """The position of the record named ``name``; raises ``KeyError`` for a name outside the corpus."""
        records = self.records
        i = bisect_left(records, name, key=attrgetter("name"))
        if i == len(records) or records[i].name != name:
            raise KeyError(name)
        return i


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


def parse_record(item: object, leaves: _Leaves | None = None) -> PackageRecord:
    """Normalize one registry document into the record of its latest version.

    ``item`` is the document's bytes or text, or its decoded JSON tree. The
    latest version is the "latest" dist-tag (the registry's own notion of
    latest), or else the highest semver among the versions that are
    objects. Raises ParseError for a malformed document, one nested too
    deeply to decode among them, and NoVersionsError when no version is an
    object. ``leaves`` holds the scan's dependency kinds, install pattern
    and license denylist (default: runtime, "install" and
    ``DEFAULT_LICENSE_DENYLIST``), shares equal maintainer lists and strings
    with the other records of a load, and collects their maintainers' email
    domains.
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
    if leaves is None:
        leaves = _Leaves()

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
    strings = leaves.strings
    intern = strings.setdefault
    runtime = vobj.get("dependencies")
    return PackageRecord(
        name=intern(name, name),
        version=intern(version, version),
        last_modified=last_modified,
        scripts=_install_scripts(vobj.get("scripts"), strings, leaves.install_key_pattern),
        maintainers=maintainers,
        contributor_count=len(contributors),
        dependencies=leaves.dependencies(vobj, name),
        has_runtime_dependencies=isinstance(runtime, dict) and any(isinstance(k, str) and k for k in runtime),
        deprecated=deprecated,
        exclusion_reasons=reasons,
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


def _ingest(items: Iterable[object], leaves: _Leaves) -> tuple[dict[str, PackageRecord], IngestStats]:
    total = 0
    skipped = 0
    by_error: dict[str, int] = {}
    records: dict[str, PackageRecord] = {}
    for item in items:
        total += 1
        try:
            # Anything already decoded (dict, list, null, scalar) is a tree;
            # parse_record rejects every non-object as malformed.
            record = parse_record(item, leaves)
        except ParseError as exc:
            reason = exc.reason
        except NoVersionsError:
            reason = "no_versions"
        else:
            if record.name not in records:
                records[record.name] = record
                continue
            reason = "duplicate_name"
        skipped += 1
        by_error[reason] = by_error.get(reason, 0) + 1
    return records, IngestStats(total=total, parsed=total - skipped, skipped=skipped, by_error=by_error)


def load_corpus(
    source: str | Path,
    layout: str | None = None,
    *,
    dep_kinds: Iterable[str] = ("runtime",),
    install_key_pattern: str = "install",
    license_denylist: Iterable[str] = DEFAULT_LICENSE_DENYLIST,
) -> Corpus:
    """Stream all documents from a snapshot into an immutable corpus.

    One document is decoded at a time in every layout. Malformed documents
    are counted and skipped. Records are merged in stable order by package
    name; the first occurrence of a duplicate name wins and later ones are
    counted under "duplicate_name". The digest hashes the bytes this read parsed.

    Each record keeps the dependencies of ``dep_kinds`` and the scripts
    whose key matches ``install_key_pattern``, and no others, and its
    exclusion reasons under ``license_denylist``. An empty or unknown kind
    raises ``ValueError`` before anything is read.
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
                records, stats = _ingest(_iter_dir(source, digest), leaves)
            else:
                with open(source, "rb") as fh:
                    if layout == "ndjson":
                        items = _iter_ndjson(fh, digest)
                    else:
                        items = _BulkReader(fh, digest, autodetect=layout is None, rows_key=rows_key).items()
                    records, stats = _ingest(items, leaves)
            break
        except _Verdict:  # autodetection: the file is ndjson after all
            layout = "ndjson"
        except _Reread as again:
            rows_key = again.rows_key
    layout = layout or "bulk"
    ordered = tuple(records[name] for name in sorted(records))
    logger.info("ingested %d/%d documents from %s (%s)", stats.parsed, stats.total, source, layout)
    return Corpus(records=ordered, stats=stats, email_domains=leaves.email_domains, digest=digest.hexdigest())
