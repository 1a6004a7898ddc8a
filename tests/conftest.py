"""Shared builders for hand-made corpora used across the test suite."""

from __future__ import annotations

import json
import random
from collections.abc import Iterable
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from weaklink import ingest
from weaklink.ingest import (
    DEFAULT_LICENSE_DENYLIST,
    Corpus,
    epoch_us,
    extract_email_domain,
    format_timestamp,
    from_epoch_us,
    is_install_key,
    load_corpus,
)
from weaklink.signals import EVIDENCE_SCHEMAS, SignalRows

from ingest_reference import reason_mask, reference_reasons

REF = datetime(2024, 5, 15, 12, 0, 0, tzinfo=timezone.utc)
DEPENDENCY_KEYS = ("dependencies", "devDependencies", "peerDependencies", "optionalDependencies")


@dataclass(frozen=True, slots=True)
class Record:
    """The fields of one package's latest version as a scan keeps them, one value each.

    A hand-made corpus is built from these, and a test reads a corpus back
    as these (``corpus_records``) or parses one document into one
    (``parse_record``). ``maintainers`` are identity keys, as listed, and
    ``last_modified`` is an aware UTC datetime; the other fields are those
    of ``ingest._parse``.
    """

    name: str
    version: str
    last_modified: datetime
    scripts: dict[str, str]
    maintainers: tuple[str, ...]
    contributor_count: int
    dependencies: tuple[str, ...]
    has_runtime_dependencies: bool
    deprecated: object
    exclusion_reasons: int

    @property
    def package_id(self) -> str:
        return f"{self.name}@{self.version}"


def parse_record(item: object, load: ingest._Load | None = None) -> Record:
    """The record of one document, as ingest parses it: every name it declares is a dependency.

    ``load`` is an ``ingest._Load``: it holds the scan's scope (default:
    runtime, "install" and ``DEFAULT_LICENSE_DENYLIST``) and numbers the
    maintainers' identities. The record is not added to its rows.
    """
    if load is None:
        load = ingest._Load()
    name, version, last_modified, scripts, maintainers, contributors, dependencies, runtime, deprecated, reasons = (
        ingest._parse(item, load)
    )
    keys = tuple(map(load.identity_keys.__getitem__, maintainers))
    return Record(
        name, version, from_epoch_us(last_modified), scripts, keys, contributors, tuple(dependencies), runtime, deprecated, reasons
    )


def corpus_records(corpus: Corpus) -> list[Record]:
    """The record at each position of ``corpus``, read from its columns."""
    deps, people = corpus.dep_offsets, corpus.maint_offsets
    return [
        Record(
            name=corpus.names[pos],
            version=corpus.versions[pos],
            last_modified=from_epoch_us(corpus.last_modified[pos]),
            scripts=corpus.scripts.get(pos, ingest._EMPTY_MAP),
            maintainers=tuple(map(corpus.identity_keys.__getitem__, corpus.maint_ids[people[pos] : people[pos + 1]])),
            contributor_count=corpus.contributor_counts[pos],
            dependencies=tuple(map(corpus.names.__getitem__, corpus.dep_targets[deps[pos] : deps[pos + 1]])),
            has_runtime_dependencies=bool(corpus.runtime_flags[pos]),
            deprecated=corpus.deprecated.get(pos),
            exclusion_reasons=corpus.exclusion_reasons[pos],
        )
        for pos in range(len(corpus.names))
    ]


def person(email: str | None = None, name: str | None = None) -> str:
    """The identity key ingest gives a maintainer with this email, or with only this name."""
    if email:
        return email.lower()
    assert name
    return "name:" + name.lower()


def make_record(
    name: str,
    *,
    version: str = "1.0.0",
    last_modified: datetime = REF,
    scripts: dict | None = None,
    maintainers: tuple = (),
    contributor_count: int = 0,
    dependencies: tuple = (),
    dev_dependencies: tuple = (),
    dep_kinds: tuple = ("runtime",),
    repository_present: bool = True,
    license_value: str | None = "MIT",
    deprecated: object = None,
    security_holding: bool = False,
    license_denylist: tuple = DEFAULT_LICENSE_DENYLIST,
) -> Record:
    """A record as a scan of ``dep_kinds`` keeps it.

    ``dependencies`` and ``dev_dependencies`` are the names the runtime and
    dev kinds declare; the record holds those of ``dep_kinds`` merged, each
    once, without ``name``, as ingest merges them. Of ``scripts`` it keeps
    the install hooks, the keys that contain "install", as ingest does by
    the default pattern. Its exclusion reasons are those the reference
    predicates (``ingest_reference.reference_reasons``) give the
    repository, license, deprecation and security-holding arguments.
    """
    declared = {"runtime": dependencies, "dev": dev_dependencies}
    merged = dict.fromkeys(dep for kind in dep_kinds for dep in declared.get(kind, ()) if dep != name)
    return Record(
        name=name,
        version=version,
        last_modified=last_modified,
        scripts={key: body for key, body in (scripts or {}).items() if is_install_key(key, "install")},
        maintainers=tuple(maintainers),
        contributor_count=contributor_count,
        dependencies=tuple(merged),
        has_runtime_dependencies=bool(dependencies),
        deprecated=deprecated,
        exclusion_reasons=reason_mask(
            reference_reasons(
                repository_present=repository_present,
                license_value=license_value,
                deprecated=deprecated,
                security_holding=security_holding,
                denylist=license_denylist,
            )
        ),
    )


def make_corpus(records, email_domains: dict[str, str] | None = None) -> Corpus:
    """A corpus of ``records`` in name order, built from the columns ``load_corpus`` fills.

    Its ``email_domains`` default to the domain of each listed key that
    ``person`` made from an email: every key but the "name:" ones. As in a
    loaded corpus, a dependency on a name outside ``records`` is dropped.
    Raises ``ValueError`` when two records share a name.
    """
    records = list(records)
    if len({rec.name for rec in records}) < len(records):
        raise ValueError("corpus records must have distinct names")
    if email_domains is None:
        keys = {key for rec in records for key in rec.maintainers if not key.startswith("name:")}
        email_domains = {key: domain for key in keys if (domain := extract_email_domain(key))}
    load = ingest._Load()
    for rec in records:
        maintainers = [load.identity(key, email_domains.get(key)) for key in rec.maintainers]
        load.append(
            (
                rec.name,
                rec.version,
                epoch_us(rec.last_modified),
                rec.scripts,
                maintainers,
                rec.contributor_count,
                rec.dependencies,
                rec.has_runtime_dependencies,
                rec.deprecated,
                rec.exclusion_reasons,
            )
        )
    load.total = len(records)
    return load.corpus("test")


def email_domains(table) -> dict[str, str]:
    """The identity keys of a corpus, or of an ``ingest._Load``, that have an email domain, mapped to it."""
    return {key: domain for key, domain in zip(table.identity_keys, table.identity_domains) if domain}


def owned_by_key(corpus: Corpus, mindex) -> dict:
    """The positions the maintainer index of ``corpus`` gives each identity key, in id order."""
    return {key: mindex.owned(ident) for ident, key in enumerate(corpus.identity_keys)}


def load_documents(directory: Path, versions: dict[str, dict], **load_kwargs) -> Corpus:
    """The corpus ``load_corpus`` reads from one ndjson document per name.

    ``versions[name]`` is the latest version object of that name's
    document, but that a list of dependency names stands for the object
    that maps each of them to a range.
    """
    lines = []
    for name, vobj in versions.items():
        vobj = {key: dict.fromkeys(value, "^1.0.0") if key in DEPENDENCY_KEYS else value for key, value in vobj.items()}
        tree = {
            "name": name,
            "dist-tags": {"latest": "1.0.0"},
            "versions": {"1.0.0": vobj},
            "time": {"modified": "2024-01-01T00:00:00.000Z"},
            "repository": "github:example/" + name,
        }
        lines.append(json.dumps(tree) + "\n")
    snapshot = directory / "snapshot.ndjson"
    snapshot.write_text("".join(lines), encoding="utf-8")
    return load_corpus(snapshot, layout="ndjson", **load_kwargs)


def random_corpus(seed: int, size: int = 120, dep_kinds: tuple = ("runtime",)) -> Corpus:
    """A messy random corpus for brute-force oracle equivalence tests: ``make_corpus`` of ``random_records``."""
    return make_corpus(random_records(seed, size, dep_kinds))


def random_records(seed: int, size: int = 120, dep_kinds: tuple = ("runtime",)) -> list[Record]:
    """The records of a messy random corpus, before a corpus drops their dependencies outside it.

    Includes self-dependencies, dependencies on unknown names, shared and
    name-only maintainers, zero-maintainer packages and assorted exclusion
    triggers. Dev dependencies, which overlap the runtime ones, are drawn
    from a second generator, so a corpus differs across ``dep_kinds`` only
    in what its records keep of them.
    """
    rng = random.Random(seed)
    dev_rng = random.Random(-1 - seed)
    names = [f"r{seed}-pkg-{i}" for i in range(size)]
    maintainer_pool = [person(email=f"m{j}@pool{j % 7}.example") for j in range(max(3, size // 4))]
    maintainer_pool += [person(name=f"anon{j}") for j in range(3)]
    records = []
    for i, name in enumerate(names):
        deps = {}  # a dict keeps each name once, in first-drawn order
        for _ in range(rng.randrange(0, 4)):
            target = rng.choice(names + ["external-dep", name])
            deps[target] = None
        dev_deps = dev_rng.sample([*deps, *names[:8], "external-dev", name], dev_rng.randrange(0, 3))
        maints = tuple(rng.sample(maintainer_pool, rng.randrange(0, 4)))
        contributor_count = rng.choice((0, 0, 0, 1, 2, 40))
        age_days = rng.randrange(0, 1600)
        deprecated = rng.choice((None, None, None, "old", True, ""))
        records.append(
            make_record(
                name,
                last_modified=REF - timedelta(days=age_days),
                scripts={"postinstall": "node x.js"} if rng.random() < 0.1 else {},
                maintainers=maints,
                contributor_count=contributor_count,
                dependencies=tuple(deps),
                dev_dependencies=tuple(dev_deps),
                dep_kinds=dep_kinds,
                repository_present=rng.random() < 0.8,
                license_value=rng.choice(("MIT", None, "", "UNLICENSED", "XYZ")),
                security_holding=rng.choice((False, False, True)),
                deprecated=deprecated,
            )
        )
    return records


def _flag(value) -> str:
    return value if isinstance(value, str) else ("true" if value else "false")


# How the report spells each evidence key: the reference the writer's line
# templates are checked against. Integers in decimal, shares and the average
# to 4 decimals, the W5 ratio to 6, timestamps as ``format_timestamp``.
WRITTEN = {
    "domain": str,
    "maintainer_key": str,
    "script_key": ",".join,
    "has_suspicious_tokens": _flag,
    "deprecated": _flag,
    "last_modified": lambda us: format_timestamp(from_epoch_us(us)),
    "latest_maintainer_activity": lambda us: format_timestamp(from_epoch_us(us)),
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


def canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True)


@dataclass(frozen=True, slots=True)
class Finding:
    """One finding of an analyzer, as the tests read it: one line of ``findings.jsonl``.

    ``values`` are the typed evidence values in the key order of
    ``EVIDENCE_SCHEMAS[signal]``; ``findings_of`` builds these from the
    analyzers' ``SignalRows``.
    """

    subject_kind: str
    subject_id: str
    signal: str
    values: tuple

    def value(self, key: str) -> object:
        """The typed value under ``key``; a key outside the schema raises ``ValueError``."""
        return self.values[EVIDENCE_SCHEMAS[self.signal].index(key)]

    def to_dict(self) -> dict:
        """The report line but for its ``observed_at``, spelled by ``WRITTEN``."""
        evidence = {key: WRITTEN[key](value) for key, value in zip(EVIDENCE_SCHEMAS[self.signal], self.values)}
        return {"subject_kind": self.subject_kind, "subject_id": self.subject_id, "signal": self.signal, "evidence": evidence}

    def line(self, observed_at: str) -> str:
        """The ``findings.jsonl`` line of this finding."""
        return canonical_json({**self.to_dict(), "observed_at": observed_at}) + "\n"


def findings_of(corpus: Corpus, *parts: SignalRows | Iterable[SignalRows]) -> list[Finding]:
    """The findings that analyzers' rows over ``corpus`` stand for, in report order.

    Each part is one analyzer's ``SignalRows``, or several (``analyze_w3``,
    a ``Findings``). Report order is by signal, subject and written
    evidence (its ``canonical_json``), and a maintainer finding comes
    before a package finding of the same identity.
    """
    found = []
    for rows in (rows for part in parts for rows in ((part,) if isinstance(part, SignalRows) else part)):
        for row, subject in enumerate(rows.subjects):
            values = tuple(column[row] for column in rows.columns)
            if rows.owners is None:
                found.append(Finding("package", corpus.names[subject], rows.signal, values))
                continue
            if rows.maintainer_findings:
                found.append(Finding("maintainer", corpus.identity_keys[subject], rows.signal, values))
            found.extend(Finding("package", corpus.names[pos], rows.signal, values) for pos in rows.owners.owned(subject))
    # A stable sort: a maintainer finding precedes its identity's package ones.
    found.sort(key=lambda f: (f.signal, f.subject_id, canonical_json(f.to_dict()["evidence"])))
    return found


@pytest.fixture
def reference_time() -> datetime:
    return REF
