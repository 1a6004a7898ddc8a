"""Reverse indexes and popularity metrics.

Builds the two indexes the analyzers share (package -> direct dependents,
maintainer identity -> owned packages), computes maintainer reach (unique
dependents across a maintainer's packages) and ranks subjects by score.
Transitive dependents are out of scope; edges are name-level.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from datetime import datetime
from typing import Sequence

from .errors import EmptyInputError, UnknownMaintainerError
from .ingest import Corpus

DependentsIndex = dict[str, tuple[str, ...]]

# The one value of every index entry with no dependents.
NO_DEPENDENTS: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class MaintainerInfo:
    owned_packages: tuple[str, ...]  # in name order, each once
    last_activity: datetime


MaintainerIndex = dict[str, MaintainerInfo]


def names_with_dependents(corpus: Corpus) -> set[str]:
    """The names some other record declares: the non-empty keys of ``build_dependents_index``."""
    names: set[str] = set()
    for rec in corpus.records:
        names.update(rec.dependencies)
    return names


def build_dependents_index(corpus: Corpus) -> DependentsIndex:
    """Map each depended-upon name to the packages that declare it.

    Each value is a tuple of dependent names in corpus order, each once:
    a record lists each dependency once and never itself. Names not present
    in the corpus are still indexed (a package may depend on something
    outside the snapshot). Corpus packages nobody depends on map to the
    shared empty ``NO_DEPENDENTS``. Keys come in corpus order, then external
    names in the order they are first declared.
    """
    index: dict[str, tuple[str, ...] | list[str]] = dict.fromkeys((rec.name for rec in corpus.records), NO_DEPENDENTS)
    for rec in corpus.records:
        name = rec.name
        for dep_name in rec.dependencies:
            deps = index.get(dep_name)
            if deps:
                deps.append(name)
            else:  # absent, or still NO_DEPENDENTS
                index[dep_name] = [name]
    for dep_name, deps in index.items():
        if deps:
            index[dep_name] = tuple(deps)
    return index


def build_maintainer_index(corpus: Corpus) -> MaintainerIndex:
    """Group packages by maintainer identity with each identity's last activity."""
    owned: dict[str, list[str]] = {}
    activity: dict[str, datetime] = {}
    for rec in corpus.records:
        for person in rec.maintainers:
            key = person.identity_key
            names = owned.get(key)
            if names is None:
                owned[key] = [rec.name]
            elif names[-1] != rec.name:  # a record may list one identity twice
                names.append(rec.name)
            prev = activity.get(key)
            if prev is None or rec.last_modified > prev:
                activity[key] = rec.last_modified
    # Each list is dropped as soon as it is copied, so no maintainer's names
    # are held twice.
    return {
        key: MaintainerInfo(owned_packages=tuple(owned.pop(key)), last_activity=activity[key]) for key in list(owned)
    }


def maintainer_reach(key: str, mindex: MaintainerIndex, dindex: DependentsIndex) -> int:
    """Unique dependents across all packages a maintainer owns.

    Dependents that happen to be the maintainer's own packages are counted
    too (the literal reading of "unique dependents").
    """
    info = mindex.get(key)
    if info is None:
        raise UnknownMaintainerError(key)
    union: set[str] = set()
    for pkg in info.owned_packages:
        union.update(dindex.get(pkg, ()))
    return len(union)


def top_n(subjects: Sequence[tuple[str, float]], n: int) -> list[tuple[str, float]]:
    """Top n by numeric score, descending, with a closed cutoff.

    Ties are broken lexicographically on the subject id; every subject tied
    with the n-th score is included, so the result can be longer than n.
    Only the subjects that reach the n-th score are sorted.
    """
    if not subjects:
        raise EmptyInputError("no subjects to rank")
    cutoff = heapq.nlargest(n, (score for _, score in subjects))[-1]
    return sorted((item for item in subjects if item[1] >= cutoff), key=lambda item: (-item[1], item[0]))


def top_percent(subjects: Sequence[tuple[str, float]], percent: float) -> list[tuple[str, float]]:
    """Top ``percent`` of subjects by score with closed-cutoff tie handling."""
    if not 0 < percent <= 100:
        raise ValueError(f"percent must be in (0, 100], got {percent}")
    if not subjects:
        raise EmptyInputError("no subjects to rank")
    # At least one: a tiny percent must not underflow to an empty ranking.
    k = max(1, math.ceil(len(subjects) * percent / 100.0))
    return top_n(subjects, k)
