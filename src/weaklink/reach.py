"""Reverse indexes and popularity metrics.

Builds the two indexes the analyzers share (package -> direct dependents,
maintainer identity -> owned packages), computes maintainer reach (unique
dependents across a maintainer's packages) and ranks subjects by score.
Both indexes hold record positions (indexes into ``Corpus.names``), not
names, and position order is name order, and both are counting sorts of
the corpus's own compressed sparse rows. Only the corpus's own records are
indexed: a dependency on a name outside the corpus (excluded, or not in
the snapshot) is no edge. Transitive dependents are out of scope; edges
are name-level.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass
from itertools import accumulate, compress, islice, repeat
from operator import ge, sub
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
class MaintainerIndex:
    """The packages of each maintainer identity of a corpus, as compressed sparse rows by identity id.

    The ids are the corpus's (``Corpus.identity_keys``), so the index has a
    row for each identity the corpus lists. Identity ``i`` owns the
    positions ``packages[offsets[i]:offsets[i + 1]]``, ascending, each
    once, and ``last_activity[i]`` is the latest last modification among
    them, in UTC epoch microseconds.
    """

    offsets: array
    packages: array
    last_activity: array

    def owned(self, ident: int) -> array:
        return self.packages[self.offsets[ident] : self.offsets[ident + 1]]

    def __len__(self) -> int:
        return len(self.last_activity)


def _transpose(offsets: array, values: array, width: int) -> tuple[array, array]:
    """The rows that list each value below ``width``, by a counting sort, as compressed sparse rows.

    Row ``r`` lists ``values[offsets[r]:offsets[r + 1]]``, each value at
    most once. The rows that list value ``v`` are
    ``rows[starts[v]:starts[v + 1]]``, ascending.
    """
    counts = array("i", bytes(4 * width))
    for value in values:
        counts[value] += 1
    starts = array("i", accumulate(counts, initial=0))
    del counts
    cursor = starts[:-1]
    rows = array("i", bytes(4 * len(values)))
    for row in range(len(offsets) - 1):
        for value in values[offsets[row] : offsets[row + 1]]:
            at = cursor[value]
            rows[at] = row
            cursor[value] = at + 1
    return starts, rows


def build_dependents_index(corpus: Corpus) -> DependentsIndex:
    """Index the records that declare each record's name.

    A corpus holds each record's dependencies as positions, each once,
    never its own and none outside the corpus, so the index is their
    transpose.
    """
    return DependentsIndex(*_transpose(corpus.dep_offsets, corpus.dep_targets, len(corpus.names)))


def build_maintainer_index(corpus: Corpus) -> MaintainerIndex:
    """Group packages by maintainer identity with each identity's last activity.

    A record that lists one identity twice is one of its packages once.
    """
    listed, ids = corpus.maint_offsets, corpus.maint_ids
    offsets, distinct = array("i", [0]), array("i")  # each record's identities, each once
    for pos in range(len(corpus.names)):
        row = ids[listed[pos] : listed[pos + 1]]
        distinct.extend(row if len(row) < 2 else dict.fromkeys(row))
        offsets.append(len(distinct))
    width = len(corpus.identity_keys)
    starts, packages = _transpose(offsets, distinct, width)
    del offsets, distinct
    times = corpus.last_modified.__getitem__
    last_activity = array("q", (max(map(times, packages[starts[i] : starts[i + 1]])) for i in range(width)))
    return MaintainerIndex(starts, packages, last_activity)


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
