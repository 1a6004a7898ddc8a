"""Provider behavior: fixtures, one check per domain, rate limiting, live stubs."""

from __future__ import annotations

import json
import re
import socket
import struct
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from weaklink import providers
from weaklink.errors import FixtureError
from weaklink.ingest import parse_person
from weaklink.pipeline import ScanOptions, _make_providers
from weaklink.providers import (
    DomainStatus,
    DownloadCounts,
    FixtureDomainProvider,
    FixtureDownloadsProvider,
    LiveDnsDomainProvider,
    LiveDownloadsProvider,
    RateLimiter,
    STATUS_AVAILABLE,
    STATUS_REGISTERED,
    STATUS_UNKNOWN,
)
from weaklink.reach import build_maintainer_index
from weaklink.signals import AnalyzerConfig, analyze_w1

from conftest import REF, findings_of, make_corpus, make_record


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return path


# --- fixture providers -----------------------------------------------------


def test_domain_fixture_echo_and_miss(tmp_path):
    path = write_jsonl(tmp_path / "domains.jsonl", [{"domain": "oldsite.io", "status": "available"}])
    provider = FixtureDomainProvider(path)
    assert provider.check("oldsite.io").status == STATUS_AVAILABLE
    assert provider.check("OLDSITE.IO").status == STATUS_AVAILABLE
    assert provider.check("unknown.example").status == STATUS_UNKNOWN


def test_domain_fixture_validation(tmp_path):
    path = tmp_path / "bad.jsonl"
    rows = [
        {"domain": "x.io", "status": "sold-out"},
        # A domain or status that is not a string is no name, not its str().
        {"domain": None, "status": "available"},
        {"domain": 5, "status": "available"},
        {"domain": ["x"], "status": "available"},
        {"domain": "none", "status": None},
        {"domain": "x.io", "status": 5},
        {"domain": "x.io", "status": ["available"]},
    ]
    for row in rows:
        write_jsonl(path, [row])
        with pytest.raises(FixtureError, match=rf"^{re.escape(str(path))}:1: bad domain fixture row: "):
            FixtureDomainProvider(path)
    with pytest.raises(FixtureError):
        FixtureDomainProvider(tmp_path / "missing.jsonl")


def test_downloads_fixture(tmp_path):
    path = write_jsonl(tmp_path / "dl.jsonl", [{"package": "left-pad", "downloads": 1_000_000}])
    provider = FixtureDownloadsProvider(path, ["left-pad", "ghost"])
    assert provider.downloads("left-pad") == 1_000_000
    assert provider.downloads("ghost") is None
    assert provider.downloads("not-a-name") is None
    assert provider.has_data is True


def test_downloads_fixture_store(tmp_path):
    rows = [
        {"package": "b", "downloads": 5},
        {"package": "outside", "downloads": 9},
        {"package": "b", "downloads": 0},  # the last row for a name wins
        {"package": "a", "downloads": 2**63 - 1},
    ]
    path = write_jsonl(tmp_path / "dl.jsonl", rows)
    names = ["d", "b", "c", "a"]  # the names come in any order
    provider = FixtureDownloadsProvider(path, names)
    assert [provider.downloads(name) for name in names] == [None, 0, None, 2**63 - 1]
    assert provider.downloads("outside") is None
    assert provider.downloads("") is provider.downloads("zzz") is None
    # Strictly ascending names, as a corpus holds them, are kept as given, not copied.
    ordered = ("a", "b", "c", "d")
    for given in (ordered, iter(names), ["a", "b", "b", "d"]):
        provider = FixtureDownloadsProvider(path, given)
        assert [provider.downloads(name) for name in names] == [None, 0, None, 2**63 - 1]
    assert FixtureDownloadsProvider(path, ordered)._names is ordered
    # A row for a name outside the names is still read: it sets has_data ...
    path = write_jsonl(tmp_path / "dl.jsonl", [{"package": "outside", "downloads": 1}])
    provider = FixtureDownloadsProvider(path, names)
    assert provider.has_data is True
    assert [provider.downloads(name) for name in names] == [None] * 4
    # ... and is validated.
    path = write_jsonl(tmp_path / "dl.jsonl", [{"package": "outside", "downloads": -1}])
    with pytest.raises(FixtureError, match=":1: bad downloads fixture row: "):
        FixtureDownloadsProvider(path, names)
    path.write_text("\n")
    provider = FixtureDownloadsProvider(path, names)
    assert provider.has_data is False
    assert FixtureDownloadsProvider(path, []).downloads("a") is None


def test_downloads_fixture_validation(tmp_path):
    # bool is a subclass of int, yet true is no download count; a count
    # must fit the store's signed 64 bits.
    for count in (-3, True, False, 1.0, "7", None, 2**63):
        rows = [{"package": "ok", "downloads": 1}, {"package": "x", "downloads": count}]
        path = write_jsonl(tmp_path / "dl.jsonl", rows)
        with pytest.raises(FixtureError, match=rf"^{re.escape(str(path))}:2: bad downloads fixture row: "):
            FixtureDownloadsProvider(path, ["ok", "x"])


@pytest.mark.parametrize(
    "provider",
    [FixtureDomainProvider, lambda path: FixtureDownloadsProvider(path, ["x"])],
    ids=["FixtureDomainProvider", "FixtureDownloadsProvider"],
)
def test_fixture_errors_name_the_line(tmp_path, provider):
    good = {"domain": "x.io", "status": "available", "package": "x", "downloads": 1}
    path = tmp_path / "fixture.jsonl"
    path.write_text(json.dumps(good) + "\n\n" + json.dumps(good) + "\n{not json\n")
    with pytest.raises(FixtureError, match=rf"^{re.escape(str(path))}:4: bad JSON: "):
        provider(path)
    # Rows are checked as they are read: a bad row before a bad line wins.
    path.write_text(json.dumps(good) + "\n" + json.dumps({"domain": "", "downloads": -1}) + "\n{not json\n")
    with pytest.raises(FixtureError, match=rf"^{re.escape(str(path))}:2: bad .* fixture row: "):
        provider(path)
    path.write_text(json.dumps(good) + "\n[1, 2]\n")
    with pytest.raises(FixtureError, match=rf"^{re.escape(str(path))}:2: fixture row is not an object: \[1, 2\]$"):
        provider(path)
    # A line nested too deeply to decode is bad JSON, and names its line too.
    path.write_text(json.dumps(good) + "\n" + "[" * 100_000 + "]" * 100_000 + "\n")
    with pytest.raises(FixtureError, match=rf"^{re.escape(str(path))}:2: bad JSON: "):
        provider(path)


def test_empty_downloads_provider():
    # A scan with no downloads source holds the empty store.
    _domains, provider = _make_providers(ScanOptions(input_path="snapshot.ndjson"), ["a", "b"])
    assert type(provider) is DownloadCounts
    assert provider.downloads("anything") is None
    assert provider.has_data is False
    assert provider.warnings == 0
    assert len(provider.counts) == 0


class CountingProvider:
    warnings = 0

    def __init__(self):
        self.calls = Counter()

    def check(self, domain):
        self.calls[domain] += 1
        return DomainStatus(domain=domain, status=STATUS_AVAILABLE, checked_at=REF, source="fixture")


def test_w1_checks_each_lowercased_domain_once():
    emails = [
        ["ann@x.example", "Bob@X.Example"],
        ["ANN@x.EXAMPLE", "cy@y.example"],
        ["bob@x.example", "dee@Y.example", "eve@Z.Example"],
        ["no-domain"],
    ]
    people = [[parse_person({"name": "p", "email": e}) for e in row] for row in emails]
    records = [make_record(f"pkg-{i}", maintainers=[key for key, _ in row]) for i, row in enumerate(people)]
    corpus = make_corpus(records, email_domains={key: domain for row in people for key, domain in row if domain})
    provider = CountingProvider()
    rows, histogram = analyze_w1(corpus, build_maintainer_index(corpus), provider, AnalyzerConfig(reference_time=REF))
    findings = findings_of(corpus, rows)
    assert provider.calls == {"x.example": 1, "y.example": 1, "z.example": 1}
    assert histogram == {"x.example": 4, "y.example": 2, "z.example": 1}
    assert {f.subject_id for f in findings} == {"pkg-0", "pkg-1", "pkg-2"}


# --- rate limiter -------------------------------------------------------------


def test_rate_limiter_enforces_interval():
    limiter = RateLimiter(per_second=50)
    start = time.monotonic()
    for _ in range(10):
        limiter.acquire()
    elapsed = time.monotonic() - start
    assert elapsed >= 9 / 50 - 0.005


def test_rate_limiter_under_concurrency():
    limiter = RateLimiter(per_second=100)
    stamps = []
    lock = threading.Lock()

    def worker():
        for _ in range(5):
            limiter.acquire()
            with lock:
                stamps.append(time.monotonic())

    threads = [threading.Thread(target=worker) for _ in range(4)]
    start = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(stamps) == 20
    assert time.monotonic() - start >= 19 / 100 - 0.01
    # No burst: every successive acquisition respects the interval within
    # scheduler tolerance.
    stamps.sort()
    gaps = [b - a for a, b in zip(stamps, stamps[1:])]
    assert min(gaps) >= 0.0

    for rate in (0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="^rate must be positive"):
            RateLimiter(rate)


# --- live DNS against a local stub resolver ---------------------------------------


class StubResolver:
    """Tiny UDP DNS server answering from a canned (name, qtype) -> count map.

    ``mode`` spoils every reply: "truncated" sets the TC bit, "other_name"
    and "other_type" answer a question other than the one asked.
    "upper_name" echoes the asked name in upper case, which spoils nothing.
    The first ``drop`` queries get no reply at all. Each query's
    transaction id is recorded in ``txn_ids``.
    """

    def __init__(self, answers, mode=None, drop=0):
        self.answers = answers
        self.mode = mode
        self.drop = drop
        self.txn_ids = []
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.addr = self.sock.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._stop = False

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        # Closing the socket does not wake a thread blocked reading it; a
        # datagram does, and the thread then sees the stop flag and ends.
        self._stop = True
        self.sock.sendto(b"", self.addr)
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()
        self.sock.close()

    def _serve(self):
        while True:
            try:
                data, addr = self.sock.recvfrom(4096)
            except OSError:
                return
            if self._stop:
                return
            txn = data[:2]
            self.txn_ids.append(txn)
            if len(self.txn_ids) <= self.drop:
                continue
            # Decode qname labels.
            labels = []
            pos = 12
            while data[pos]:
                length = data[pos]
                labels.append(data[pos + 1 : pos + 1 + length].decode())
                pos += 1 + length
            qtype = struct.unpack(">H", data[pos + 1 : pos + 3])[0]
            name = ".".join(labels)
            count = self.answers.get((name, qtype), 0)
            nxdomain = (name, "nxdomain") in self.answers
            flags = 0x8183 if nxdomain else 0x8180
            # Echo the question section; answers are counted from the header
            # only, so no RR bodies are needed.
            question = data[12 : pos + 5]
            if self.mode == "truncated":
                flags |= 0x0200
            elif self.mode == "other_name":
                question = b"\x05other" + question[1 + data[12] :]
            elif self.mode == "other_type":
                question = question[:-4] + struct.pack(">HH", 1, 1)  # an A query
            elif self.mode == "upper_name":
                question = question[:-4].upper() + question[-4:]
            header = txn + struct.pack(">HHHHH", flags, 1, count, 0, 0)
            self.sock.sendto(header + question, addr)


NS, MX = LiveDnsDomainProvider.QTYPE_NS, LiveDnsDomainProvider.QTYPE_MX


def test_live_dns_registered_domain():
    with StubResolver({("solid.example", NS): 2, ("solid.example", MX): 1}) as stub:
        provider = LiveDnsDomainProvider(resolver=stub.addr, timeout=2.0)
        status = provider.check("solid.example")
    assert status.status == STATUS_REGISTERED
    assert status.source == "live"
    assert status.method == "dns-ns-mx"


# The stub answers NXDOMAIN for a name mapped to "nxdomain".
LAPSED = {("lapsed.example", "nxdomain"): True}


def test_live_dns_nxdomain_is_available():
    with StubResolver(LAPSED) as stub:
        provider = LiveDnsDomainProvider(resolver=stub.addr, timeout=2.0)
        status = provider.check("lapsed.example")
    assert status.status == STATUS_AVAILABLE
    assert provider.warnings == 0
    assert len(stub.txn_ids) == 2


def test_live_dns_nodata_is_registered():
    # NOERROR with no NS and no MX answers: the name exists, as a mail
    # subdomain of a registered domain does, so it cannot be registered.
    with StubResolver({("mail.solid.example", NS): 0, ("mail.solid.example", MX): 0}) as stub:
        provider = LiveDnsDomainProvider(resolver=stub.addr, timeout=2.0)
        status = provider.check("mail.solid.example")
    assert status.status == STATUS_REGISTERED
    assert provider.warnings == 0


def test_live_dns_nxdomain_with_an_answer_is_registered():
    # An NXDOMAIN reply that carries an answer (an alias whose target does
    # not exist) names a record that exists.
    with StubResolver({("alias.example", "nxdomain"): True, ("alias.example", NS): 1}) as stub:
        provider = LiveDnsDomainProvider(resolver=stub.addr, timeout=2.0)
        assert provider.check("alias.example").status == STATUS_REGISTERED


def test_live_dns_name_case_in_the_echoed_question_is_ignored():
    with StubResolver(LAPSED, mode="upper_name") as stub:
        provider = LiveDnsDomainProvider(resolver=stub.addr, timeout=2.0)
        assert provider.check("lapsed.example").status == STATUS_AVAILABLE
    assert provider.warnings == 0


@pytest.mark.parametrize("mode", ["truncated", "other_name", "other_type"])
def test_live_dns_untrusted_reply_degrades_to_unknown(mode):
    # Without the spoiling, these NXDOMAIN replies would read "available".
    with StubResolver(LAPSED, mode=mode) as stub:
        provider = LiveDnsDomainProvider(resolver=stub.addr, timeout=2.0)
        status = provider.check("lapsed.example")
    assert status.status == STATUS_UNKNOWN
    assert provider.warnings == 1
    assert len(stub.txn_ids) == 1  # only a timed-out query is sent again


class CountingLimiter:
    def __init__(self):
        self.acquired = 0

    def acquire(self):
        self.acquired += 1


def _dns_run(answers, domain, monkeypatch, drop=0):
    """The verdict, warnings, transaction ids seen and limiter waits of one check."""
    ids = iter(range(1, 100))
    monkeypatch.setattr(providers.secrets, "randbits", lambda bits: next(ids))
    limiter = CountingLimiter()
    with StubResolver(answers, drop=drop) as stub:
        provider = LiveDnsDomainProvider(resolver=stub.addr, timeout=0.3, limiter=limiter)
        status = provider.check(domain)
    txn_ids = [struct.unpack(">H", txn)[0] for txn in stub.txn_ids]
    return status.status, provider.warnings, txn_ids, limiter.acquired


@pytest.mark.parametrize(
    "answers, domain, verdict",
    [
        (LAPSED, "lapsed.example", STATUS_AVAILABLE),
        ({("solid.example", NS): 2, ("solid.example", MX): 1}, "solid.example", STATUS_REGISTERED),
    ],
    ids=["available", "registered"],
)
def test_live_dns_query_that_timed_out_is_sent_again(answers, domain, verdict, monkeypatch):
    assert _dns_run(answers, domain, monkeypatch) == (verdict, 0, [1, 2], 2)
    # The dropped NS query is sent again; the retry waits for the limiter
    # and carries a fresh transaction id.
    assert _dns_run(answers, domain, monkeypatch, drop=1) == (verdict, 0, [1, 2, 3], 3)


def test_live_dns_gives_up_after_the_retries(monkeypatch):
    status, warnings, txn_ids, acquired = _dns_run(LAPSED, "lapsed.example", monkeypatch, drop=99)
    assert (status, warnings) == (STATUS_UNKNOWN, 1)
    # The NS query is sent 1 + DNS_TIMEOUT_RETRIES times; the MX query never.
    assert txn_ids == list(range(1, providers.DNS_TIMEOUT_RETRIES + 2))
    assert acquired == providers.DNS_TIMEOUT_RETRIES + 1


def test_live_dns_transaction_ids_are_not_derived_from_the_name():
    with StubResolver({("solid.example", NS): 2, ("solid.example", MX): 1}) as stub:
        provider = LiveDnsDomainProvider(resolver=stub.addr, timeout=2.0)
        for _ in range(4):
            assert provider.check("solid.example").status == STATUS_REGISTERED
    assert len(stub.txn_ids) == 8
    assert len(set(stub.txn_ids)) > 1


# With its length octets and the root's zero, this name is 255 octets on the
# wire, the most DNS carries; one more octet is too long.
LONGEST_NAME = ".".join(["a" * 63] * 3 + ["a" * 61])


@pytest.mark.parametrize(
    "domain",
    ["x" * 300 + ".com", "\u00e9" * 70 + ".com", "\udcff.com", "ex..com", LONGEST_NAME + "a"],
    ids=["long_label", "idna_too_long", "lone_surrogate", "empty_label", "long_name"],
)
def test_live_dns_unencodable_name_degrades_to_unknown(domain):
    with StubResolver({}) as stub:
        provider = LiveDnsDomainProvider(resolver=stub.addr, timeout=2.0)
        status = provider.check(domain)
    assert status.status == STATUS_UNKNOWN
    assert provider.warnings == 1
    assert stub.txn_ids == []


def test_live_dns_longest_name_is_queried():
    with StubResolver({(LONGEST_NAME, "nxdomain"): True}) as stub:
        provider = LiveDnsDomainProvider(resolver=stub.addr, timeout=2.0)
        assert provider.check(LONGEST_NAME).status == STATUS_AVAILABLE
    assert provider.warnings == 0
    assert len(stub.txn_ids) == 2


def test_live_dns_failure_degrades_to_unknown():
    provider = LiveDnsDomainProvider(resolver=("127.0.0.1", 1), timeout=0.2)
    status = provider.check("whatever.example")
    assert status.status == STATUS_UNKNOWN
    assert provider.warnings == 1


# --- live downloads against a local HTTP stub ---------------------------------------


class StubDownloads(BaseHTTPRequestHandler):
    hits = []

    def do_GET(self):
        StubDownloads.hits.append((time.monotonic(), self.path))
        if "missing" in self.path:
            self.send_response(404)
            self.end_headers()
            return
        if "flaky" in self.path:
            self.send_response(500)
            self.end_headers()
            return
        if "boolean" in self.path:
            reply = {"downloads": True}
        elif "listed" in self.path:
            reply = [53_000]
        else:
            reply = {"downloads": 53_000, "package": self.path.rsplit("/", 1)[-1]}
        body = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_stub():
    StubDownloads.hits = []
    server = HTTPServer(("127.0.0.1", 0), StubDownloads)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


def test_live_downloads_success(http_stub):
    provider = LiveDownloadsProvider(http_stub, rate_limit=200)
    assert provider.downloads("left-pad") == 53_000
    assert provider.warnings == 0


def test_live_downloads_404_is_unknown(http_stub):
    provider = LiveDownloadsProvider(http_stub, rate_limit=200)
    assert provider.downloads("missing-pkg") is None
    assert provider.warnings == 0


def test_live_downloads_error_exhausts_retries(http_stub):
    provider = LiveDownloadsProvider(http_stub, rate_limit=200, retries=2)
    assert provider.downloads("flaky-pkg") is None
    assert provider.warnings == 1
    assert len([h for h in StubDownloads.hits if "flaky" in h[1]]) == 3


@pytest.mark.parametrize("package", ["boolean-pkg", "listed-pkg"])
def test_live_downloads_reply_without_a_count_exhausts_retries(http_stub, package):
    # {"downloads": true} and a JSON list are failed replies, never a count.
    provider = LiveDownloadsProvider(http_stub, rate_limit=200, retries=2)
    assert provider.downloads(package) is None
    assert provider.warnings == 1
    assert len([h for h in StubDownloads.hits if package in h[1]]) == 3


def test_live_downloads_rate_limited(http_stub):
    provider = LiveDownloadsProvider(http_stub, rate_limit=50)
    start = time.monotonic()
    for i in range(8):
        provider.downloads(f"pkg{i}")
    assert time.monotonic() - start >= 7 / 50 - 0.005


def test_fetch_many_bounded_and_rate_limited(http_stub):
    provider = LiveDownloadsProvider(http_stub, rate_limit=100)
    start = time.monotonic()
    counts = provider.fetch_many([f"pkg{i}" for i in range(10)] + ["pkg0"], concurrency=4)
    elapsed = time.monotonic() - start
    assert [counts.downloads(f"pkg{i}") for i in range(10)] == [53_000] * 10
    assert counts.downloads("pkg10") is None
    assert counts.has_data is True and counts.warnings == 0
    # Deduplicated to 10 requests, still spaced by the shared limiter.
    assert elapsed >= 9 / 100 - 0.005
    assert len(StubDownloads.hits) == 10
    # Strictly ascending names, as a corpus holds them, are kept as given.
    ordered = ("pkg0", "pkg1", "pkg2")
    assert provider.fetch_many(ordered, concurrency=2)._names is ordered


def test_fetch_many_keeps_unknown_counts_unknown(http_stub):
    provider = LiveDownloadsProvider(http_stub, rate_limit=200, retries=0)
    counts = provider.fetch_many(["missing-pkg", "left-pad", "flaky-pkg"], concurrency=2)
    assert [counts.downloads(name) for name in ("flaky-pkg", "left-pad", "missing-pkg")] == [None, 53_000, None]
    assert counts.has_data is True
    assert counts.warnings == 1  # the flaky reply; a 404 is an answer
    counts = provider.fetch_many(["missing-pkg", "flaky-pkg"], concurrency=2)
    assert counts.has_data is False
    assert counts.downloads("missing-pkg") is None


def test_live_downloads_sends_agent_string(http_stub):
    captured = {}

    class Capture(StubDownloads):
        def do_GET(self):
            captured["ua"] = self.headers.get("User-Agent")
            super().do_GET()

    server = HTTPServer(("127.0.0.1", 0), Capture)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        provider = LiveDownloadsProvider(f"http://127.0.0.1:{server.server_port}", rate_limit=200)
        provider.downloads("x")
    finally:
        server.shutdown()
    assert captured["ua"].startswith("weaklink-scanner/")
