"""Shared builders for hand-made corpora used across the test suite."""

from __future__ import annotations

import random
from datetime import datetime, timedelta, timezone

import pytest

from weaklink.ingest import SECURITY_HOLDING_PHRASE, Corpus, IngestStats, PackageRecord, PersonRef

REF = datetime(2024, 5, 15, 12, 0, 0, tzinfo=timezone.utc)


def person(email: str | None = None, name: str | None = None) -> PersonRef:
    if email:
        domain = email.rsplit("@", 1)[1].lower() if "@" in email else None
        return PersonRef(name=name, email=email, email_domain=domain, identity_key=email.lower())
    assert name
    return PersonRef(name=name, email=None, email_domain=None, identity_key="name:" + name.lower())


def make_record(
    name: str,
    *,
    version: str = "1.0.0",
    last_modified: datetime = REF,
    created: datetime | None = None,
    scripts: dict | None = None,
    maintainers: tuple = (),
    contributors: tuple = (),
    dependencies: dict | None = None,
    dev_dependencies: dict | None = None,
    repository_present: bool = True,
    license_value: str | None = "MIT",
    description: str | None = None,
    deprecated: object = None,
    security_holding: bool | None = None,
) -> PackageRecord:
    if security_holding is None:
        # As ingest marks it from the description.
        security_holding = bool(description and SECURITY_HOLDING_PHRASE in description.lower())
    return PackageRecord(
        package_id=f"{name}@{version}",
        name=name,
        version=version,
        last_modified=last_modified,
        created=created or (last_modified - timedelta(days=30)),
        scripts=scripts or {},
        maintainers=tuple(maintainers),
        contributors=tuple(contributors),
        dependencies=dependencies or {},
        dev_dependencies=dev_dependencies or {},
        peer_dependencies={},
        optional_dependencies={},
        repository_present=repository_present,
        license_value=license_value,
        description=description,
        deprecated=deprecated,
        security_holding=security_holding,
        unpacked_size_bytes=None,
        file_count=None,
    )


def make_corpus(records) -> Corpus:
    records = tuple(sorted(records, key=lambda r: r.name))
    stats = IngestStats(total=len(records), parsed=len(records), skipped=0, by_error={})
    return Corpus(records=records, stats=stats, digest="test")


def random_corpus(seed: int, size: int = 120) -> Corpus:
    """A messy random corpus for brute-force oracle equivalence tests.

    Includes self-dependencies, dependencies on unknown names, shared and
    name-only maintainers, zero-maintainer packages and assorted exclusion
    triggers.
    """
    rng = random.Random(seed)
    names = [f"r{seed}-pkg-{i}" for i in range(size)]
    maintainer_pool = [person(email=f"m{j}@pool{j % 7}.example") for j in range(max(3, size // 4))]
    maintainer_pool += [person(name=f"anon{j}") for j in range(3)]
    records = []
    for i, name in enumerate(names):
        deps = {}
        for _ in range(rng.randrange(0, 4)):
            target = rng.choice(names + ["external-dep", name])
            deps[target] = "^1.0.0"
        maints = tuple(rng.sample(maintainer_pool, rng.randrange(0, 4)))
        contribs = tuple(person(email=f"c{i}x{j}@people.example") for j in range(rng.choice((0, 0, 0, 1, 2, 40))))
        age_days = rng.randrange(0, 1600)
        deprecated = rng.choice((None, None, None, "old", True, ""))
        records.append(
            make_record(
                name,
                last_modified=REF - timedelta(days=age_days),
                scripts={"postinstall": "node x.js"} if rng.random() < 0.1 else {},
                maintainers=maints,
                contributors=contribs,
                dependencies=deps,
                repository_present=rng.random() < 0.8,
                license_value=rng.choice(("MIT", None, "", "UNLICENSED", "XYZ")),
                description=rng.choice((None, "a tool", "security holding package")),
                deprecated=deprecated,
            )
        )
    return make_corpus(records)


@pytest.fixture
def reference_time() -> datetime:
    return REF
