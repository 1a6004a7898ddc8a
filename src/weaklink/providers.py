"""Pluggable providers for domain availability and download counts.

Each provider has a fixture-replay mode (deterministic, offline; the whole
scan pipeline passes acceptance with no network access) and a live mode.

Live domain checks use a DNS NS/MX-evidence heuristic: a domain that DNS
says does not exist (NXDOMAIN) is reported as a candidate for
registration. That verdict is advisory; registrar truth requires manual
verification, so the method is recorded alongside the status and provider
errors always degrade to "unknown", never to "available".
"""

from __future__ import annotations

import json
import logging
import secrets
import socket
import struct
import threading
import time
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import islice
from operator import lt
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Protocol, Sequence

from .errors import FixtureError

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

USER_AGENT = "weaklink-scanner/0.1 (registry metadata research)"

STATUS_AVAILABLE = "available"
STATUS_REGISTERED = "registered"
STATUS_UNKNOWN = "unknown"

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class DomainStatus:
    domain: str
    status: str  # available | registered | unknown
    checked_at: datetime
    source: str  # live | fixture
    method: str = ""


class DomainStatusProvider(Protocol):
    warnings: int  # lookups that degraded to unknown

    def check(self, domain: str) -> DomainStatus: ...


class DownloadsProvider(Protocol):
    # False when the provider holds no count at all: ranking by its
    # downloads would tie every package at zero.
    has_data: bool
    warnings: int
    # The count of each package it was built for, in name order; -1 unknown.
    counts: Sequence[int]

    def downloads(self, package: str) -> int | None: ...


class RateLimiter:
    """Min-interval limiter: callers never exceed ``per_second`` requests/s."""

    def __init__(self, per_second: float):
        if not per_second > 0:  # fails NaN too
            raise ValueError(f"rate must be positive, got {per_second!r}")
        self._interval = 1.0 / per_second
        self._lock = threading.Lock()
        self._next_at = 0.0

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = time.monotonic()
                if now >= self._next_at:
                    self._next_at = now + self._interval
                    return
                wait = self._next_at - now
            time.sleep(wait)


def _iter_jsonl(path: Path) -> Iterator[tuple[int, dict]]:
    """Yield ``(lineno, row)`` for each non-blank line, one line at a time."""
    if not path.exists():
        raise FixtureError(f"fixture not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FixtureError(f"{path}:{lineno}: bad JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise FixtureError(f"{path}:{lineno}: fixture row is not an object: {row!r}")
            yield lineno, row


class FixtureDomainProvider:
    """Exact-match lookup in a JSONL fixture; misses come back unknown."""

    def __init__(self, path: str | Path):
        path = Path(path)
        self._statuses: dict[str, str] = {}
        for lineno, row in _iter_jsonl(path):
            domain = str(row.get("domain", "")).lower()
            status = str(row.get("status", "")).lower()
            if not domain or status not in (STATUS_AVAILABLE, STATUS_REGISTERED, STATUS_UNKNOWN):
                raise FixtureError(f"{path}:{lineno}: bad domain fixture row: {row!r}")
            self._statuses[domain] = status
        self.warnings = 0

    def check(self, domain: str) -> DomainStatus:
        status = self._statuses.get(domain.lower(), STATUS_UNKNOWN)
        return DomainStatus(domain=domain.lower(), status=status, checked_at=_EPOCH, source="fixture", method="fixture")


class EmptyDomainProvider:
    """No data source configured: everything is unknown."""

    warnings = 0

    def check(self, domain: str) -> DomainStatus:
        return DomainStatus(domain=domain.lower(), status=STATUS_UNKNOWN, checked_at=_EPOCH, source="fixture", method="none")


def _encode_dns_query(domain: str, qtype: int, txn_id: int) -> bytes:
    """The query's wire form; raises OSError, before anything is sent, for a name DNS cannot carry."""
    try:  # the IDNA codec rejects an empty label, a label over 63 octets and one it cannot encode
        labels = domain.strip(".").encode("idna").split(b".")
    except UnicodeError as exc:
        raise OSError(f"name not encodable for DNS: {exc}") from None
    qname = b"".join(bytes((len(label),)) + label for label in labels) + b"\x00"
    if not labels[0] or len(qname) > 255:
        raise OSError(f"DNS name empty or over 255 octets: {domain!r}")
    return struct.pack(">HHHHHH", txn_id, 0x0100, 1, 0, 0, 0) + qname + struct.pack(">HH", qtype, 1)


RCODE_NOERROR = 0
RCODE_NXDOMAIN = 3
# A DNS query whose reply timed out is sent again at most this many times.
DNS_TIMEOUT_RETRIES = 2


def _dns_query(domain: str, qtype: int, server: tuple[str, int], timeout: float) -> tuple[int, int]:
    """The RCODE and answer count of the reply for (domain, qtype); raises OSError on failure.

    A reply that cannot be trusted is a failure: a wrong transaction id, a
    truncated reply (TC set), or a question section that is not the query's
    own name, type and class. So is any RCODE but NOERROR and NXDOMAIN.
    """
    txn_id = secrets.randbits(16)
    query = _encode_dns_query(domain, qtype, txn_id)
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.settimeout(timeout)
        sock.sendto(query, server)
        data, _addr = sock.recvfrom(4096)
    if len(data) < 12:
        raise OSError("short DNS response")
    rid, flags, qdcount, ancount, _ns, _ar = struct.unpack(">HHHHHH", data[:12])
    if rid != txn_id:
        raise OSError("DNS transaction id mismatch")
    if flags & 0x0200:
        raise OSError("truncated DNS response")
    # The question follows the header: the name compares case-insensitively,
    # the type and class (its last four bytes) exactly.
    end = len(query)
    name_matches = data[12 : end - 4].lower() == query[12 : end - 4].lower()
    if qdcount != 1 or not name_matches or data[end - 4 : end] != query[end - 4 :]:
        raise OSError("DNS response question does not match the query")
    rcode = flags & 0x000F
    if rcode not in (RCODE_NOERROR, RCODE_NXDOMAIN):
        raise OSError(f"DNS rcode {rcode}")
    return rcode, ancount


class LiveDnsDomainProvider:
    """DNS-evidence heuristic for domain availability.

    A domain whose NS and MX queries both come back NXDOMAIN, with no
    answers, does not exist, so it is a candidate for registration (status
    "available", method "dns-ns-mx") -- an advisory signal, not registrar
    ground truth. Any other trusted reply means the name exists, so it is
    "registered": NOERROR with no answers (NODATA) is what a subdomain of
    a registered domain gets. A query whose reply does not come in time is
    sent again, at most ``DNS_TIMEOUT_RETRIES`` times; each attempt waits
    for the rate limiter and has a fresh transaction id. Any other lookup
    failure, and a query still unanswered after its retries, yields
    "unknown".
    """

    QTYPE_NS = 2
    QTYPE_MX = 15

    def __init__(self, resolver: tuple[str, int], timeout: float = 3.0, limiter: RateLimiter | None = None):
        self._resolver = resolver
        self._timeout = timeout
        self._limiter = limiter
        self.warnings = 0

    def _query(self, domain: str, qtype: int) -> tuple[int, int]:
        for attempt in range(DNS_TIMEOUT_RETRIES + 1):
            if self._limiter is not None:
                self._limiter.acquire()
            try:
                return _dns_query(domain, qtype, self._resolver, self._timeout)
            except TimeoutError:
                if attempt == DNS_TIMEOUT_RETRIES:
                    raise
                logger.info("DNS query for %s timed out; retrying", domain)

    def check(self, domain: str) -> DomainStatus:
        domain = domain.lower()
        now = datetime.now(timezone.utc)
        try:
            ns = self._query(domain, self.QTYPE_NS)
            mx = self._query(domain, self.QTYPE_MX)
        except OSError as exc:
            logger.warning("DNS lookup failed for %s: %s", domain, exc)
            self.warnings += 1
            return DomainStatus(domain=domain, status=STATUS_UNKNOWN, checked_at=now, source="live", method="dns-ns-mx")
        nonexistent = (RCODE_NXDOMAIN, 0)
        status = STATUS_AVAILABLE if ns == mx == nonexistent else STATUS_REGISTERED
        return DomainStatus(domain=domain, status=status, checked_at=now, source="live", method="dns-ns-mx")


# The largest count an ``array('q')`` holds; a larger one is no count.
_MAX_COUNT = (1 << 63) - 1


class DownloadCounts:
    """Download counts of sorted, distinct names, in an ``array('q')`` aligned with them.

    A lookup is a binary search of the names. An unknown count is stored
    as -1 and reads None. Built for the names of a corpus's records,
    ``counts`` is aligned with the record positions too.
    """

    def __init__(self, names: Sequence[str], counts: array, has_data: bool, warnings: int = 0):
        self._names = names
        self.counts = counts
        self.has_data = has_data
        self.warnings = warnings

    def downloads(self, package: str) -> int | None:
        names = self._names
        i = bisect_left(names, package)
        if i < len(names) and names[i] == package and (count := self.counts[i]) >= 0:
            return count
        return None


class FixtureDownloadsProvider(DownloadCounts):
    """The 12-month download counts of ``names`` from a JSONL fixture, read once.

    Every row is validated, also one for a name outside ``names``, and the
    last row for a name wins. ``has_data`` is True when the fixture has at
    least one row. A sequence of strictly ascending names, such as
    ``Corpus.names``, is kept as given; other names are sorted first.
    """

    def __init__(self, path: str | Path, names: Iterable[str]):
        path = Path(path)
        if not isinstance(names, Sequence) or not all(map(lt, names, islice(names, 1, None))):
            names = sorted(names)
        counts = array("q", [-1]) * len(names)
        rows = 0
        for lineno, row in _iter_jsonl(path):
            package = row.get("package")
            count = row.get("downloads")
            # A bool is no count, and neither is one the store cannot hold.
            if not isinstance(package, str) or type(count) is not int or not 0 <= count <= _MAX_COUNT:
                raise FixtureError(f"{path}:{lineno}: bad downloads fixture row: {row!r}")
            rows += 1
            i = bisect_left(names, package)
            if i < len(names) and names[i] == package:
                counts[i] = count
        super().__init__(names, counts, has_data=rows > 0)


class LiveDownloadsProvider:
    """One GET per package against the point-downloads endpoint shape,
    rate limited with bounded retries; failures come back unknown.

    Only this provider imports ``requests``: a scan without live downloads
    never loads it.
    """

    has_data = True  # counts are unknown until fetched; rank by them

    def __init__(
        self,
        base_url: str,
        rate_limit: float,
        window: str = "last-year",
        timeout: float = 10.0,
        retries: int = 2,
        session: requests.Session | None = None,
    ):
        import requests

        self._base_url = base_url.rstrip("/")
        self._window = window
        self._limiter = RateLimiter(rate_limit)
        self._timeout = timeout
        self._retries = retries
        self._session = session or requests.Session()
        self._session.headers["User-Agent"] = USER_AGENT
        self.warnings = 0
        self._lock = threading.Lock()

    def downloads(self, package: str) -> int | None:
        import requests

        url = f"{self._base_url}/downloads/point/{self._window}/{package}"
        for _attempt in range(self._retries + 1):
            self._limiter.acquire()
            try:
                resp = self._session.get(url, timeout=self._timeout)
            except requests.RequestException as exc:
                logger.warning("downloads fetch failed for %s: %s", package, exc)
                continue
            if resp.status_code == 404:
                return None
            if resp.status_code != 200:
                continue
            try:
                body = resp.json()
            except ValueError:
                continue
            count = body.get("downloads") if isinstance(body, dict) else None
            if type(count) is int and 0 <= count <= _MAX_COUNT:
                return count
        with self._lock:
            self.warnings += 1
        return None

    def fetch_many(self, packages: Iterable[str], concurrency: int) -> DownloadCounts:
        """Fetch the counts of many packages with bounded in-flight requests.

        The shared rate limiter still applies across workers, so concurrency
        raises overlap, never the request rate. The counts come back as one
        store; its ``has_data`` is True when any count is known.
        """
        from concurrent.futures import ThreadPoolExecutor

        ordered = sorted(set(packages))
        with ThreadPoolExecutor(max_workers=max(1, concurrency)) as pool:
            counts = array("q", [-1 if count is None else count for count in pool.map(self.downloads, ordered)])
        return DownloadCounts(ordered, counts, has_data=max(counts, default=-1) >= 0, warnings=self.warnings)
