"""The six weak-link signal analyzers.

Each analyzer is a pure function over an immutable corpus plus shared
indexes: same inputs give the same findings. Analyzers promise no order;
the pipeline sorts all findings once, with ``sort_findings``, into report
order (``WeakLinkFinding.sort_key``). Thresholds are never hard-coded;
everything tunable lives in ``AnalyzerConfig``.

Evidence is typed: counts are ``int``, shares, averages and ratios are
unrounded ``float``, timestamps are the record's or the maintainer index's
own ``datetime``, flags are ``bool`` and script keys a tuple. Only
``WeakLinkFinding.to_dict`` and the sort tie-break turn it into strings,
through ``EVIDENCE_FORMATS``: integers as decimal strings, shares and the
average to 4 decimals, the W5 ratio to 6. Code that decides from evidence
(the attack pipelines) reads the unrounded values. A finding holds its
evidence values as one tuple, in the key order of ``EVIDENCE_SCHEMAS``, and
``WeakLinkFinding.value`` reads one of them by key.

Signals:
  W1  maintainer email domain available for registration (account takeover)
  W2  package runs an install-time lifecycle script
  W3  unmaintained: inactive package / inactive maintainers / stale deprecation
  W4  unusually many maintainers (top percentile by maintainer count)
  W5  maintainer-to-contributor imbalance (bottom percentile by ratio)
  W6  overloaded maintainer (top percentile by maintainer reach)
"""

from __future__ import annotations

import json
import re
from array import array
from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from enum import Enum
from operator import attrgetter
from typing import TYPE_CHECKING, Callable

from .ingest import DEFAULT_LICENSE_DENYLIST, DEPRECATED, Corpus, format_timestamp, parse_timestamp
from .reach import DependentsIndex, MaintainerIndex, maintainer_reach, top_percent

if TYPE_CHECKING:
    from .providers import DomainStatusProvider

# json.dumps(value, sort_keys=True) without building an encoder per call; the
# report lines and the findings' sort key are written with it.
canonical_json = json.JSONEncoder(sort_keys=True).encode

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

# Fixed per-signal evidence keys, sorted: a finding holds its evidence
# values in this order, and evidence with a missing or unknown key is rejected.
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


def _flag(value: bool | str) -> str:
    # A deprecation message is written as is; a bare flag as JSON spells it.
    if isinstance(value, str):
        return value
    return "true" if value else "false"


# How the writer spells each evidence key. A key means the same thing in
# every signal that carries it, so one table serves all of them.
EVIDENCE_FORMATS: dict[str, Callable[[object], str]] = {
    "domain": str,
    "maintainer_key": str,
    "script_key": ",".join,
    "has_suspicious_tokens": _flag,
    "deprecated": _flag,
    "last_modified": format_timestamp,
    "latest_maintainer_activity": format_timestamp,
    "age_days": str,
    "maintainer_count": str,
    "maintainers": str,
    "contributors": str,
    "owned_count": str,
    "reach": str,
    "registry_avg": "{:.4f}".format,
    "inactive_owned_share": "{:.4f}".format,
    "dependency_using_share": "{:.4f}".format,
    "ratio": "{:.6f}".format,
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

    @property
    def inactivity_window(self) -> timedelta:
        return timedelta(days=self.inactivity_days)

    def resolved(self, corpus: Corpus) -> "AnalyzerConfig":
        """Fill in reference_time from the corpus when unset; an empty corpus leaves it None."""
        if self.reference_time is not None or not corpus.records:
            return self
        ref = max(rec.last_modified for rec in corpus.records)
        return replace(self, reference_time=ref)

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
class WeakLinkFinding:
    subject_kind: str  # "package" | "maintainer"
    subject_id: str
    signal: str
    values: tuple  # typed evidence values in EVIDENCE_SCHEMAS[signal] order; see EVIDENCE_FORMATS

    def __post_init__(self):
        schema = EVIDENCE_SCHEMAS.get(self.signal)
        if schema is None:
            raise ValueError(f"unknown signal: {self.signal}")
        if len(self.values) != len(schema):
            raise ValueError(f"{self.signal} evidence needs {len(schema)} values, got {len(self.values)}")
        if self.subject_kind not in ("package", "maintainer"):
            raise ValueError(f"bad subject_kind: {self.subject_kind}")

    @classmethod
    def of(cls, subject_kind: str, subject_id: str, signal: str, evidence: dict[str, object]) -> "WeakLinkFinding":
        """A finding whose evidence is given by key; every schema key, and no other, is required."""
        schema = EVIDENCE_SCHEMAS.get(signal)
        if schema is None:
            raise ValueError(f"unknown signal: {signal}")
        if evidence.keys() != set(schema):
            raise ValueError(f"{signal} evidence keys must be {list(schema)}, got {sorted(evidence)}")
        return cls(subject_kind, subject_id, signal, tuple(map(evidence.__getitem__, schema)))

    def value(self, key: str) -> object:
        """The typed evidence value under ``key``; a key outside the schema raises ``ValueError``."""
        schema = EVIDENCE_SCHEMAS[self.signal]
        if key not in schema:
            raise ValueError(f"no evidence key {key!r} for {self.signal}")
        return self.values[schema.index(key)]

    def written_evidence(self) -> dict[str, str]:
        """The evidence as the report spells it, in key order."""
        return {key: EVIDENCE_FORMATS[key](value) for key, value in zip(EVIDENCE_SCHEMAS[self.signal], self.values)}

    def to_dict(self) -> dict:
        """The report line, but for the scan's ``observed_at``, which the writer adds."""
        return {
            "subject_kind": self.subject_kind,
            "subject_id": self.subject_id,
            "signal": self.signal,
            "evidence": self.written_evidence(),
        }

    def sort_key(self) -> tuple:
        # The tie-break is the serialized written evidence: a tuple of the
        # typed values would order escaped characters (below '"',
        # non-ASCII) differently and change the report bytes.
        return (self.signal, self.subject_id, canonical_json(self.written_evidence()))


def sort_findings(findings: list[WeakLinkFinding]) -> None:
    """Sort in place by ``WeakLinkFinding.sort_key``.

    Two stable sorts, by subject and then by signal, order the findings by
    (signal, subject_id) and key them only by strings they already hold.
    Only runs of findings that tie on both reach the evidence tie-break, so
    only they have their evidence formatted here; the others are formatted
    once, by the writer.
    """
    findings.sort(key=attrgetter("subject_id"))
    findings.sort(key=attrgetter("signal"))
    tied = []  # (start, end) of each run longer than one
    start, current = 0, None
    for i, key in enumerate(map(attrgetter("signal", "subject_id"), findings)):
        if key != current:
            if i - start > 1:
                tied.append((start, i))
            start, current = i, key
    if len(findings) - start > 1:
        tied.append((start, len(findings)))
    for start, end in tied:
        findings[start:end] = sorted(findings[start:end], key=WeakLinkFinding.sort_key)


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


def find_suspicious_tokens(body: str, tokens: tuple[str, ...]) -> list[str]:
    """Boundary-aware scan for configured tokens; returns hits in list order."""
    return [tok for tok in tokens if token_regex(tok).search(body)]


# --- per-signal analyzers ---------------------------------------------------


def analyze_w1(
    corpus: Corpus,
    mindex: MaintainerIndex,
    domains: "DomainStatusProvider",
    cfg: AnalyzerConfig,
) -> tuple[list[WeakLinkFinding], dict[str, int]]:
    """Expired maintainer domains.

    Emits one package finding per (available-domain maintainer, owned
    package) pair, plus an unordered domain-frequency histogram counting
    how often each domain appears across (package, maintainer) entries.
    An identity's domain is the one ingest decided
    (``Corpus.email_domains``): a name-only maintainer has none, however
    its name reads.
    """
    email_domains = corpus.email_domains
    histogram: dict[str, int] = {}
    for rec in corpus.records:
        for key in rec.maintainers:
            if domain := email_domains.get(key):
                histogram[domain] = histogram.get(domain, 0) + 1

    available: set[str] = set()
    for domain in sorted(histogram):
        status = domains.check(domain)
        if status.status == "available":
            available.add(domain)

    records = corpus.records
    findings = []
    for key, info in mindex.items():
        domain = email_domains.get(key)
        if domain not in available:
            continue
        # Every package the maintainer owns shares the first finding's evidence tuple.
        first, *rest = info.owned_packages
        finding = WeakLinkFinding.of("package", records[first].name, "W1", {"domain": domain, "maintainer_key": key})
        findings.append(finding)
        findings.extend(WeakLinkFinding("package", records[pos].name, "W1", finding.values) for pos in rest)
    return findings, histogram


def analyze_w2(corpus: Corpus, cfg: AnalyzerConfig) -> list[WeakLinkFinding]:
    """Install scripts: flag any package with a script key containing the
    install pattern. Records keep only those scripts (ingest applies the
    scan's pattern). The token scan enriches evidence but never gates the
    flag."""
    findings = []
    for rec in corpus.records:
        keys = sorted(rec.scripts)
        if not keys:
            continue
        has_tokens = any(find_suspicious_tokens(rec.scripts[k], cfg.suspicious_tokens) for k in keys)
        findings.append(
            WeakLinkFinding.of(
                subject_kind="package",
                subject_id=rec.name,
                signal="W2",
                evidence={"script_key": tuple(keys), "has_suspicious_tokens": has_tokens},
            )
        )
    return findings


def is_inactive(last_modified: datetime, cfg: AnalyzerConfig) -> bool:
    return (cfg.reference_time - last_modified) > cfg.inactivity_window


def analyze_w3(corpus: Corpus, mindex: MaintainerIndex, cfg: AnalyzerConfig) -> list[WeakLinkFinding]:
    """Unmaintained packages.

    W3_inactive_pkg: no modification within the window. W3_inactive_maintainer:
    every maintainer's registry-wide last activity violates the window (a
    package with one maintainer active elsewhere does not qualify).
    W3_deprecated: retained deprecated packages whose deprecation predates
    the window, using last-modified as the deprecation time.
    """
    stale_maintainers = {key for key, info in mindex.items() if is_inactive(info.last_activity, cfg)}
    findings = []
    for rec in corpus.records:
        if not is_inactive(rec.last_modified, cfg):
            continue
        age = (cfg.reference_time - rec.last_modified).days
        findings.append(
            WeakLinkFinding.of(
                subject_kind="package",
                subject_id=rec.name,
                signal="W3_inactive_pkg",
                evidence={"last_modified": rec.last_modified, "age_days": age},
            )
        )
        keys = rec.maintainers  # each one is in the index, built over the same corpus
        if keys and stale_maintainers.issuperset(keys):
            findings.append(
                WeakLinkFinding.of(
                    subject_kind="package",
                    subject_id=rec.name,
                    signal="W3_inactive_maintainer",
                    evidence={
                        "last_modified": rec.last_modified,
                        "maintainer_count": len(rec.maintainers),
                        "latest_maintainer_activity": max(mindex[k].last_activity for k in keys),
                    },
                )
            )
        if rec.exclusion_reasons & DEPRECATED:
            findings.append(
                WeakLinkFinding.of(
                    subject_kind="package",
                    subject_id=rec.name,
                    signal="W3_deprecated",
                    evidence={"deprecated": rec.deprecated, "last_modified": rec.last_modified},
                )
            )
    return findings


def mean_maintainers(corpus: Corpus) -> float:
    if not corpus.records:
        return 0.0
    return sum(len(rec.maintainers) for rec in corpus.records) / len(corpus.records)


def analyze_w4(corpus: Corpus, cfg: AnalyzerConfig) -> list[WeakLinkFinding]:
    """Too many maintainers: top percentile by maintainer count (closed ties).

    Ranked over packages that list maintainers at all; a degenerate ranking
    (every count equal) still emits, by the closed-tie rule.
    """
    records = corpus.records
    population = array("i", (pos for pos, rec in enumerate(records) if rec.maintainers))
    registry_avg = mean_maintainers(corpus)
    counts = array("i", (len(records[pos].maintainers) for pos in population))
    return [
        WeakLinkFinding.of(
            subject_kind="package",
            subject_id=records[pos].name,
            signal="W4",
            evidence={"maintainer_count": count, "registry_avg": registry_avg},
        )
        for pos, count in top_percent(population, counts, cfg.top_percent)
    ]


def analyze_w5(corpus: Corpus, cfg: AnalyzerConfig) -> list[WeakLinkFinding]:
    """Maintainer-to-contributor imbalance.

    Restricted to packages that list contributors at all; the lowest
    maintainers/contributors ratios are the riskiest, so the bottom
    percentile is selected.
    """
    records = corpus.records
    population = array("i", (pos for pos, rec in enumerate(records) if rec.contributor_count))
    neg_ratios = array("d", (-(len(records[pos].maintainers) / records[pos].contributor_count) for pos in population))
    findings = []
    for pos, _neg_ratio in top_percent(population, neg_ratios, cfg.top_percent):
        rec = records[pos]
        findings.append(
            WeakLinkFinding.of(
                subject_kind="package",
                subject_id=rec.name,
                signal="W5",
                evidence={
                    "maintainers": len(rec.maintainers),
                    "contributors": rec.contributor_count,
                    "ratio": len(rec.maintainers) / rec.contributor_count,
                },
            )
        )
    return findings


def analyze_w6(
    corpus: Corpus,
    mindex: MaintainerIndex,
    dindex: DependentsIndex,
    cfg: AnalyzerConfig,
) -> list[WeakLinkFinding]:
    """Overloaded maintainers: top percentile by maintainer reach.

    Emits one maintainer-subject finding per flagged identity plus one
    package-subject finding per owned package, all carrying the same
    ownership evidence.
    """
    records = corpus.records
    reaches = array("q", (maintainer_reach(info.owned_packages, dindex) for info in mindex.values()))
    findings = []
    for key, reach in top_percent(mindex.keys(), reaches, cfg.top_percent):
        owned = mindex[key].owned_packages
        inactive_owned = sum(1 for pos in owned if is_inactive(records[pos].last_modified, cfg))
        with_deps = sum(1 for pos in owned if records[pos].has_runtime_dependencies)
        evidence = {
            "owned_count": len(owned),
            "reach": reach,
            "inactive_owned_share": inactive_owned / len(owned),
            "dependency_using_share": with_deps / len(owned),
            "maintainer_key": key,
        }
        maintainer = WeakLinkFinding.of(subject_kind="maintainer", subject_id=key, signal="W6", evidence=evidence)
        findings.append(maintainer)
        # The package findings share the maintainer finding's evidence tuple.
        findings.extend(WeakLinkFinding("package", records[pos].name, "W6", maintainer.values) for pos in owned)
    return findings
