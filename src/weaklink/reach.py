"""Reverse indexes and popularity metrics.

Builds the two indexes the analyzers share (package -> direct dependents,
maintainer identity -> owned packages), computes maintainer reach (unique
dependents across a maintainer's packages) and ranks subjects by score.
Both indexes hold record positions (indexes into ``Corpus.records``), not
names, and position order is name order. Only the corpus's own records are indexed: a
dependency on a name outside the corpus (excluded, or not in the snapshot)
is no edge. Transitive dependents are out of scope; edges are name-level.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass
from datetime import datetime
from itertools import accumulate, compress, islice, repeat
from operator import attrgetter, ge, sub
from typing import Collection, Sequence

from .ingest import Corpus


@dataclass(frozen=True, slots=True)
class DependentsIndex:
    """The direct dependents of each record of a corpus, as compressed sparse rows of positions.

    The dependents of the record at position ``p`` are
    ``targets[offsets[p]:offsets[p + 1]]``: ascending, each once.
    ``offsets`` has one entry per record and one more. Both are
    ``array("i")``, so an index holds fewer than 2**31 edges.
    """

    offsets: array
    targets: array

    def dependents(self, pos: int) -> array:
        return self.targets[self.offsets[pos] : self.offsets[pos + 1]]

    def count(self, pos: int) -> int:
        return self.offsets[pos + 1] - self.offsets[pos]

    def counts(self) -> array:
        """The number of dependents of each record, by position."""
        offsets = self.offsets
        return array("i", map(sub, islice(offsets, 1, None), offsets))


@dataclass(frozen=True, slots=True)
class MaintainerInfo:
    """A maintainer identity's packages and the latest modification among them.

    ``owned_packages`` is an ``array("i")`` of record positions, ascending,
    each once, so a position costs 4 bytes and no int object.
    """

    owned_packages: array
    last_activity: datetime


MaintainerIndex = dict[str, MaintainerInfo]


def names_with_dependents(corpus: Corpus) -> set[str]:
    """The names some other record declares; over a whole snapshot, names outside it too."""
    names: set[str] = set()
    for rec in corpus.records:
        names.update(rec.dependencies)
    return names


def build_dependents_index(corpus: Corpus) -> DependentsIndex:
    """Index the records that declare each record's name.

    A record lists each dependency once and never itself, so each dependent
    is listed once. A dependency on a name outside the corpus is no edge:
    only the corpus's records are indexed. Each edge is looked up once, in
    a map of the corpus's names to the dependents collected so far, which
    is then flattened in position order. Raises ``ValueError`` when two
    records share a name.
    """
    rows: dict[str, tuple | list[int]] = dict.fromkeys(map(attrgetter("name"), corpus.records), ())
    if len(rows) != len(corpus.records):
        raise ValueError("corpus records must have distinct names")
    for src, rec in enumerate(corpus.records):
        for dep in rec.dependencies:
            row = rows.get(dep)
            if row:
                row.append(src)
            elif row is not None:  # the first dependent of a corpus name
                rows[dep] = [src]
    offsets = array("i", accumulate(map(len, rows.values()), initial=0))
    targets = array("i")
    for row in filter(None, rows.values()):
        targets.fromlist(row)
    return DependentsIndex(offsets, targets)


def build_maintainer_index(corpus: Corpus) -> MaintainerIndex:
    """Group packages by maintainer identity with each identity's last activity.

    Identities come in the order they are first listed.
    """
    owned: dict[str, list[int]] = {}
    activity: dict[str, datetime] = {}
    for pos, rec in enumerate(corpus.records):
        for key in rec.maintainers:
            packages = owned.get(key)
            if packages is None:
                owned[key] = [pos]
            elif packages[-1] != pos:  # a record may list one identity twice
                packages.append(pos)
            prev = activity.get(key)
            if prev is None or rec.last_modified > prev:
                activity[key] = rec.last_modified
    # Each list is dropped as soon as it is copied, so no maintainer's
    # packages are held twice.
    return {
        key: MaintainerInfo(owned_packages=array("i", owned.pop(key)), last_activity=activity[key]) for key in list(owned)
    }


def maintainer_reach(owned: Sequence[int], dindex: DependentsIndex) -> int:
    """Unique dependents across all packages a maintainer owns, given by position.

    Dependents that happen to be the maintainer's own packages are counted
    too (the literal reading of "unique dependents").
    """
    union: set[int] = set()
    for pos in owned:
        union.update(dindex.dependents(pos))
    return len(union)


def top_n(subjects: Collection, scores: Sequence[float], n: int) -> list[tuple]:
    """The (subject, score) pairs of the top n scores, best first, with a closed cutoff.

    ``scores[i]`` is the score of the i-th subject. Ties are broken on the
    subject: a name, or a position, whose order is name order. Every
    subject tied with the n-th score is included, so the result can be
    longer than n. Only the subjects that reach the n-th score are paired
    and sorted. No subjects rank as ``[]``.
    """
    if len(subjects) != len(scores):
        raise ValueError(f"{len(subjects)} subjects but {len(scores)} scores")
    if not scores:
        return []
    cutoff = heapq.nlargest(n, scores)[-1]
    winners = compress(zip(subjects, scores), map(ge, scores, repeat(cutoff)))
    return sorted(winners, key=lambda item: (-item[1], item[0]))


def top_percent(subjects: Collection, scores: Sequence[float], percent: float) -> list[tuple]:
    """Top ``percent`` of subjects by score with closed-cutoff tie handling."""
    if not 0 < percent <= 100:
        raise ValueError(f"percent must be in (0, 100], got {percent}")
    # At least one: a tiny percent must not underflow to an empty ranking.
    k = max(1, math.ceil(len(scores) * percent / 100.0))
    return top_n(subjects, scores, k)
