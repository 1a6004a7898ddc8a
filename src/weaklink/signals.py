"""The six weak-link signal analyzers.

Each analyzer is a pure function over an immutable corpus plus shared
indexes: same inputs give the same findings. An analyzer returns its
findings as ``SignalRows``: the flagged subjects in ascending order and
one typed evidence column per key of ``EVIDENCE_SCHEMAS``. W2-W5 flag
record positions; W1 and W6 flag identity ids, whose packages the
maintainer index holds. Thresholds are never hard-coded; everything
tunable lives in ``AnalyzerConfig``.

Evidence is typed: counts are ``int``, shares, averages and ratios are
unrounded ``float``, timestamps are the corpus's or the maintainer index's
own UTC epoch microseconds (``int``), flags are ``bool`` and script keys a
tuple. Only the report writer (``pipeline.write_reports``) turns it into
strings. Code that decides from evidence (the attack pipelines) reads the
unrounded values.

Signals:
  W1  maintainer email domain available for registration (account takeover)
  W2  package runs an install-time lifecycle script
  W3  unmaintained: inactive package / inactive maintainers / stale deprecation
  W4  unusually many maintainers (top percentile by maintainer count)
  W5  maintainer-to-contributor imbalance (bottom percentile by ratio)
  W6  overloaded maintainer (top percentile by maintainer reach)
"""

from __future__ import annotations

import re
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from enum import Enum
from functools import cached_property, lru_cache
from itertools import chain, compress, repeat
from operator import lt
from typing import TYPE_CHECKING

from .ingest import (
    DEFAULT_LICENSE_DENYLIST,
    DEPRECATED,
    US_PER_DAY,
    Corpus,
    epoch_us,
    format_timestamp,
    from_epoch_us,
    parse_timestamp,
)
from .reach import DependentsIndex, MaintainerIndex, maintainer_reach, top_percent

if TYPE_CHECKING:
    from .providers import DomainStatusProvider

DEFAULT_SUSPICIOUS_TOKENS = (
    "curl",
    "wget",
    "nc",
    "dig",
    "/etc/shadow",
    "/etc/passwd",
    ".ssh",
    "chmod +x",
    "rm -rf",
    "bash -i",
    "/dev/tcp",
)

# Fixed per-signal evidence keys, sorted: an analyzer's rows hold one
# evidence column per key, in this order.
EVIDENCE_SCHEMAS: dict[str, tuple[str, ...]] = {
    "W1": ("domain", "maintainer_key"),
    "W2": ("has_suspicious_tokens", "script_key"),
    "W3_inactive_pkg": ("age_days", "last_modified"),
    "W3_inactive_maintainer": ("last_modified", "latest_maintainer_activity", "maintainer_count"),
    "W3_deprecated": ("deprecated", "last_modified"),
    "W4": ("maintainer_count", "registry_avg"),
    "W5": ("contributors", "maintainers", "ratio"),
    "W6": ("dependency_using_share", "inactive_owned_share", "maintainer_key", "owned_count", "reach"),
}


@dataclass(frozen=True)
class AnalyzerConfig:
    """All analysis thresholds, externalized.

    ``reference_time`` defaults to the corpus's max last-modified (not wall
    clock) so archived snapshots yield reproducible findings.
    """

    inactivity_days: int = 730
    reference_time: datetime | None = None
    top_percent: float = 1.0
    install_key_pattern: str = "install"
    suspicious_tokens: tuple[str, ...] = DEFAULT_SUSPICIOUS_TOKENS
    license_denylist: tuple[str, ...] = DEFAULT_LICENSE_DENYLIST

    def __post_init__(self):
        if not 0 < self.inactivity_days <= timedelta.max.days:  # the longest window a timedelta holds
            raise ValueError(f"inactivity_days must be in [1, {timedelta.max.days}]")
        if not 0 < self.top_percent <= 100:
            raise ValueError("top_percent must be in (0, 100]")
        # A blank pattern is in every script key, and a blank token matches between any two non-word characters.
        if not self.install_key_pattern.strip():
            raise ValueError(f"install_key_pattern must not be blank, got {self.install_key_pattern!r}")
        for token in self.suspicious_tokens:
            if not token.strip():
                raise ValueError(f"suspicious_tokens must not hold a blank token, got {token!r}")

    @cached_property
    def inactive_before(self) -> int:
        """The UTC epoch microsecond before which a last modification is inactive.

        A time ``t`` is before it exactly when ``reference_time - t``
        exceeds ``inactivity_days`` days, since both count whole microseconds.
        """
        return epoch_us(self.reference_time) - self.inactivity_days * US_PER_DAY

    def resolved(self, corpus: Corpus) -> "AnalyzerConfig":
        """Fill in reference_time from the corpus when unset; an empty corpus leaves it None."""
        if self.reference_time is not None or not corpus.names:
            return self
        return replace(self, reference_time=from_epoch_us(max(corpus.last_modified)))

    def to_dict(self) -> dict:
        return {
            "inactivity_days": self.inactivity_days,
            "reference_time": format_timestamp(self.reference_time) if self.reference_time else None,
            "top_percent": self.top_percent,
            "install_key_pattern": self.install_key_pattern,
            "suspicious_tokens": list(self.suspicious_tokens),
            "license_denylist": list(self.license_denylist),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AnalyzerConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        known = {}
        if "inactivity_days" in data:
            days = data["inactivity_days"]
            if not (type(days) is int or type(days) is float and days.is_integer()):  # a bool is no number
                raise ValueError(f"inactivity_days must be an integral number, got {days!r}")
            known["inactivity_days"] = int(days)
        if data.get("reference_time") is not None:  # null leaves it unset
            ref = parse_timestamp(data["reference_time"])
            if ref is None:
                raise ValueError(f"bad reference_time: {data['reference_time']!r}")
            known["reference_time"] = ref
        if "top_percent" in data:
            percent = data["top_percent"]
            if type(percent) not in (int, float) or not 0 < percent <= 100:  # exact for any int; fails NaN
                raise ValueError(f"top_percent must be a finite number in (0, 100], got {percent!r}")
            known["top_percent"] = float(percent)
        if "install_key_pattern" in data:
            if not isinstance(data["install_key_pattern"], str):
                raise ValueError(f"install_key_pattern must be a string, got {data['install_key_pattern']!r}")
            known["install_key_pattern"] = data["install_key_pattern"]
        for key in ("suspicious_tokens", "license_denylist"):
            if key in data:
                values = data[key]
                if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
                    raise ValueError(f"{key} must be a list of strings, got {values!r}")
                known[key] = tuple(values)
        return cls(**known)


@dataclass(frozen=True, slots=True)
class SignalRows:
    """The findings of one signal, as typed columns with one row per flagged subject.

    ``subjects`` ascend. For a package signal they are record positions,
    one package finding each. For W1 and W6 they are the flagged identity
    ids, and ``owners`` is the maintainer index the analyzer read: identity
    ``i`` stands for one package finding per package it owns
    (``owners.owned(i)``), and in W6 also for one maintainer finding.
    ``columns`` holds one typed evidence sequence per key of
    ``EVIDENCE_SCHEMAS[signal]``, in that order, aligned with ``subjects``.
    """

    signal: str
    subjects: array
    columns: tuple
    owners: MaintainerIndex | None = None

    def __len__(self) -> int:
        """The number of findings, one report line each."""
        if self.owners is None:
            return len(self.subjects)
        offsets = self.owners.offsets
        packages = sum(offsets[ident + 1] - offsets[ident] for ident in self.subjects)
        return packages + len(self.subjects) * self.maintainer_findings

    @property
    def maintainer_findings(self) -> bool:
        """Whether each flagged identity is a maintainer finding as well (W6)."""
        return self.signal == "W6"

    def column(self, key: str) -> Sequence:
        """The typed evidence under ``key``, by row; a key outside the schema raises ``ValueError``."""
        return self.columns[EVIDENCE_SCHEMAS[self.signal].index(key)]

    def packages(self) -> Sequence[int]:
        """The positions of the packages this signal flags, ascending, each once."""
        if self.owners is None:
            return self.subjects
        return sorted(set(chain.from_iterable(map(self.owners.owned, self.subjects))))


def _rows(signal: str, rows: Iterable[tuple], typecodes: str, owners: MaintainerIndex | None = None) -> SignalRows:
    """The ``SignalRows`` of ``(subject, *evidence)`` tuples in subject order; ``typecodes`` types the columns.

    A column whose type code is a space is a tuple of its values.
    """
    subjects, *columns = list(zip(*rows)) or [()] * (len(typecodes) + 1)
    typed = tuple(column if code == " " else array(code, column) for code, column in zip(typecodes, columns))
    return SignalRows(signal, array("i", subjects), typed, owners)


class Findings:
    """A scan's findings: the ``SignalRows`` of each signal, by signal.

    Its length is the number of findings, and it iterates the rows in
    signal order, which is report order; a signal without rows has none.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[SignalRows]) -> None:
        self.rows = {signal_rows.signal: signal_rows for signal_rows in rows}

    def __len__(self) -> int:
        return sum(map(len, self.rows.values()))

    def __iter__(self) -> Iterator[SignalRows]:
        return map(self.rows.__getitem__, sorted(self.rows))

    def packages(self, signal: str) -> Sequence[int]:
        """The positions ``signal`` flags, ascending; none for a signal without rows."""
        signal_rows = self.rows.get(signal)
        return signal_rows.packages() if signal_rows else ()


# --- script pattern classification -----------------------------------------


class ScriptCategory(Enum):
    REVERSE_SHELL = "reverse_shell"
    DATA_EXFILTRATION = "data_exfiltration"
    DOWNLOAD_AND_RUN = "download_and_run"
    DESTRUCTIVE_DELETE = "destructive_delete"
    NONE = "none"


@dataclass(frozen=True)
class ScriptPattern:
    category: ScriptCategory
    matched_tokens: tuple[str, ...]


def _word(token: str) -> str:
    # Word/path-boundary aware so "wget" never matches inside an identifier
    # like "wget2" or "node-wgetter", but does match "/usr/bin/wget".
    return rf"(?<![\w-]){re.escape(token)}(?![\w-])"


def _phrase(token: str) -> str:
    parts = [re.escape(p) for p in token.split()]
    return r"(?<![\w-])" + r"\s+".join(parts) + r"(?![\w-])"


def token_regex(token: str) -> re.Pattern[str]:
    if " " in token:
        return re.compile(_phrase(token))
    return re.compile(_word(token))


_NETWORK_TOKENS = ("curl", "wget", "nc", "dig")
_SENSITIVE_TOKENS = ("/etc/shadow", "/etc/passwd", ".ssh", "hostname")
_DOWNLOAD_TOKENS = ("curl", "wget")

_NETWORK_RES = {tok: token_regex(tok) for tok in _NETWORK_TOKENS}
_SENSITIVE_RES = {tok: token_regex(tok) for tok in _SENSITIVE_TOKENS}
_DEV_TCP_RE = token_regex("/dev/tcp")
_SHELL_I_RE = re.compile(r"(?<![\w-])(?:ba|da|z)?sh\s+-i(?![\w-])")
_NC_EXEC_RE = re.compile(r"(?<![\w-])nc(?![\w-])[^;|&\n]*\s-[A-Za-z]*e(?![\w-])")
_MKFIFO_RE = token_regex("mkfifo")
_NC_RE = _NETWORK_RES["nc"]
_CHMOD_X_RE = token_regex("chmod +x")
_PIPE_SHELL_RE = re.compile(r"\|\s*(?:ba|da|z)?sh(?![\w-])")
_RUN_LOCAL_RE = re.compile(r"(?:^|&&|\|\||[;&])\s*(?:\./\S+|(?:ba)?sh\s+\S+|node\s+\S+)")
_RM_RF_RE = re.compile(r"(?<![\w-])rm\s+(?P<flags>(?:-{1,2}[A-Za-z]+\s+)+)(?P<target>[^\s;&|]+)")


def classify_script(body: str) -> ScriptPattern:
    """Rule-based classification of a lifecycle script body.

    Rules are evaluated in severity order and the first satisfied rule
    names the category; later satisfied rules still contribute their hits
    to ``matched_tokens`` so reports lose nothing. Token matching is
    word/path-boundary aware.
    """
    hits: list[str] = []
    category = ScriptCategory.NONE

    def satisfied(cat: ScriptCategory, tokens: list[str]) -> None:
        nonlocal category
        for tok in tokens:
            if tok not in hits:
                hits.append(tok)
        if category is ScriptCategory.NONE:
            category = cat

    # 1. Reverse shell: /dev/tcp redirection, interactive shell flags, or
    #    nc in a connect-and-execute form.
    shell_hits = []
    if _DEV_TCP_RE.search(body):
        shell_hits.append("/dev/tcp")
    m = _SHELL_I_RE.search(body)
    if m:
        shell_hits.append(re.sub(r"\s+", " ", m.group(0)))
    if _NC_EXEC_RE.search(body):
        shell_hits.append("nc -e")
    elif _NC_RE.search(body) and _MKFIFO_RE.search(body):
        shell_hits.append("nc+mkfifo")
    if shell_hits:
        satisfied(ScriptCategory.REVERSE_SHELL, shell_hits)

    # 2. Data exfiltration: network tool plus a sensitive data source.
    net_hits = [tok for tok, rx in _NETWORK_RES.items() if rx.search(body)]
    sens_hits = [tok for tok, rx in _SENSITIVE_RES.items() if rx.search(body)]
    if net_hits and sens_hits:
        satisfied(ScriptCategory.DATA_EXFILTRATION, net_hits + sens_hits)

    # 3. Download and run: fetch tool plus execution of the payload.
    dl_hits = [tok for tok in _DOWNLOAD_TOKENS if _NETWORK_RES[tok].search(body)]
    exec_hits = []
    if _CHMOD_X_RE.search(body):
        exec_hits.append("chmod +x")
    if _PIPE_SHELL_RE.search(body):
        exec_hits.append("| sh")
    m = _RUN_LOCAL_RE.search(body)
    if m:
        exec_hits.append(m.group(0).lstrip("&|; \t"))
    if dl_hits and exec_hits:
        satisfied(ScriptCategory.DOWNLOAD_AND_RUN, dl_hits + exec_hits)

    # 4. Destructive delete: rm with both -r and -f aimed at a path. Benign
    #    build-directory cleanup matches too; the target rides along so
    #    consumers can judge.
    m = _RM_RF_RE.search(body)
    if m:
        flags = set("".join(ch for ch in m.group("flags") if ch.isalpha()).lower())
        if {"r", "f"} <= flags:
            satisfied(ScriptCategory.DESTRUCTIVE_DELETE, [f"rm -rf {m.group('target')}"])

    return ScriptPattern(category=category, matched_tokens=tuple(hits))


@lru_cache(maxsize=8)
def _token_regexes(tokens: tuple[str, ...]) -> tuple[tuple[str, re.Pattern[str]], ...]:
    # A scan asks for one tuple of tokens once per script body.
    return tuple((tok, token_regex(tok)) for tok in tokens)


def find_suspicious_tokens(body: str, tokens: tuple[str, ...]) -> list[str]:
    """Boundary-aware scan for configured tokens; returns hits in list order."""
    return [tok for tok, regex in _token_regexes(tokens) if regex.search(body)]


# --- per-signal analyzers ---------------------------------------------------


def analyze_w1(
    corpus: Corpus,
    mindex: MaintainerIndex,
    domains: "DomainStatusProvider",
    cfg: AnalyzerConfig,
) -> tuple[SignalRows, dict[str, int]]:
    """Expired maintainer domains.

    Flags each identity whose domain is available; it stands for one
    package finding per owned package. Also returns an unordered
    domain-frequency histogram counting how often each domain appears
    across (package, maintainer) entries. An identity's domain is the one
    ingest decided (``Corpus.identity_domains``): a name-only maintainer
    has none, however its name reads.
    """
    identity_domains = corpus.identity_domains
    histogram: dict[str, int] = {}
    for ident in corpus.maint_ids:
        if domain := identity_domains[ident]:
            histogram[domain] = histogram.get(domain, 0) + 1

    available: set[str] = set()
    for domain in sorted(histogram):
        status = domains.check(domain)
        if status.status == "available":
            available.add(domain)

    keys = corpus.identity_keys
    flagged = ((ident, domain, keys[ident]) for ident, domain in enumerate(identity_domains) if domain in available)
    return _rows("W1", flagged, "  ", mindex), histogram


def analyze_w2(corpus: Corpus, cfg: AnalyzerConfig) -> SignalRows:
    """Install scripts: flag any package with a script key containing the
    install pattern. Records keep only those scripts (ingest applies the
    scan's pattern). The token scan enriches evidence but never gates the
    flag."""
    tokens = cfg.suspicious_tokens
    return _rows(
        "W2",
        (
            (pos, any(find_suspicious_tokens(body, tokens) for body in scripts.values()), tuple(sorted(scripts)))
            for pos, scripts in corpus.scripts.items()
        ),
        "  ",
    )


def is_inactive(last_modified: int, cfg: AnalyzerConfig) -> bool:
    """Whether a last modification, in UTC epoch microseconds, is older than the window allows."""
    return last_modified < cfg.inactive_before


def analyze_w3(corpus: Corpus, mindex: MaintainerIndex, cfg: AnalyzerConfig) -> tuple[SignalRows, SignalRows, SignalRows]:
    """Unmaintained packages: the rows of W3_inactive_pkg, W3_inactive_maintainer and W3_deprecated.

    W3_inactive_pkg: no modification within the window. W3_inactive_maintainer:
    every maintainer's registry-wide last activity violates the window (a
    package with one maintainer active elsewhere does not qualify).
    W3_deprecated: retained deprecated packages whose deprecation predates
    the window, using last-modified as the deprecation time. Both are
    inactive packages.
    """
    if not corpus.names:  # without records the reference time may be unset
        return _rows("W3_inactive_pkg", (), "qq"), _rows("W3_inactive_maintainer", (), "qqi"), _rows("W3_deprecated", (), " q")
    before, reference = cfg.inactive_before, epoch_us(cfg.reference_time)
    last_modified = corpus.last_modified
    inactive = array("i", compress(range(len(last_modified)), map(lt, last_modified, repeat(before))))
    times = array("q", map(last_modified.__getitem__, inactive))
    ages = array("q", ((reference - time) // US_PER_DAY for time in times))

    activity = mindex.last_activity  # each listed identity is in the index, built over the same corpus
    stale = bytes(last < before for last in activity)
    listed, ids, reasons = corpus.maint_offsets, corpus.maint_ids, corpus.exclusion_reasons
    unmaintained, deprecated = [], []
    for pos, time in zip(inactive, times):
        maintainers = ids[listed[pos] : listed[pos + 1]]
        if maintainers and all(map(stale.__getitem__, maintainers)):
            unmaintained.append((pos, time, max(map(activity.__getitem__, maintainers)), len(maintainers)))
        if reasons[pos] & DEPRECATED:
            deprecated.append((pos, corpus.deprecated[pos], time))
    return (
        SignalRows("W3_inactive_pkg", inactive, (ages, times)),
        _rows("W3_inactive_maintainer", unmaintained, "qqi"),
        _rows("W3_deprecated", deprecated, " q"),
    )


def mean_maintainers(corpus: Corpus) -> float:
    if not corpus.names:
        return 0.0
    return len(corpus.maint_ids) / len(corpus.names)


def analyze_w4(corpus: Corpus, cfg: AnalyzerConfig) -> SignalRows:
    """Too many maintainers: top percentile by maintainer count (closed ties).

    Ranked over packages that list maintainers at all; a degenerate ranking
    (every count equal) still emits, by the closed-tie rule.
    """
    counts = corpus.maintainer_counts()
    population = array("i", compress(range(len(counts)), counts))
    registry_avg = mean_maintainers(corpus)
    counts = array("i", filter(None, counts))
    ranked = sorted(top_percent(population, counts, cfg.top_percent))  # position order
    return _rows("W4", ((pos, count, registry_avg) for pos, count in ranked), "id")


def analyze_w5(corpus: Corpus, cfg: AnalyzerConfig) -> SignalRows:
    """Maintainer-to-contributor imbalance.

    Restricted to packages that list contributors at all; the lowest
    maintainers/contributors ratios are the riskiest, so the bottom
    percentile is selected.
    """
    contributors = corpus.contributor_counts
    maintainers = corpus.maintainer_counts()
    population = array("i", compress(range(len(contributors)), contributors))
    neg_ratios = array("d", (-(maintainers[pos] / contributors[pos]) for pos in population))
    ranked = sorted(top_percent(population, neg_ratios, cfg.top_percent))  # position order
    return _rows(
        "W5",
        ((pos, contributors[pos], maintainers[pos], maintainers[pos] / contributors[pos]) for pos, _ in ranked),
        "iid",
    )


def analyze_w6(
    corpus: Corpus,
    mindex: MaintainerIndex,
    dindex: DependentsIndex,
    cfg: AnalyzerConfig,
) -> SignalRows:
    """Overloaded maintainers: top percentile by maintainer reach.

    Flags identities; each one is a maintainer finding and stands for one
    package finding per owned package, all with the same ownership evidence.
    """
    keys = corpus.identity_keys
    if not keys:  # without records the reference time may be unset
        return _rows("W6", (), "dd qq", mindex)
    before, last_modified, runtime = cfg.inactive_before, corpus.last_modified, corpus.runtime_flags
    reaches = array("q", (maintainer_reach(mindex.owned(ident), dindex) for ident in range(len(keys))))
    flagged = []
    for ident, reach in sorted(top_percent(range(len(keys)), reaches, cfg.top_percent)):  # identity order
        owned = mindex.owned(ident)
        inactive_owned = sum(1 for pos in owned if last_modified[pos] < before)
        with_deps = sum(map(runtime.__getitem__, owned))
        flagged.append((ident, with_deps / len(owned), inactive_owned / len(owned), keys[ident], len(owned), reach))
    return _rows("W6", flagged, "dd qq", mindex)
