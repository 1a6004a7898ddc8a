"""Index construction and reach metrics against brute-force oracles."""

from __future__ import annotations

import gc
import math
import tracemalloc
from array import array

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from weaklink.exclusions import apply_exclusions
from weaklink.ingest import from_epoch_us, load_corpus
from weaklink.synth import GenerationPlan, generate
from weaklink.signals import AnalyzerConfig, analyze_w6
from weaklink.reach import (
    build_dependents_index,
    build_maintainer_index,
    maintainer_reach,
    top_n,
    top_percent,
)

from conftest import corpus_records, load_documents, make_corpus, make_record, owned_by_key, person, random_corpus, random_records


def dependents_by_name(corpus, index):
    """The index as the brute-force oracles spell it: each corpus name to its dependents' names."""
    names = list(corpus.names)
    return {name: tuple(names[dep] for dep in index.dependents(pos)) for pos, name in enumerate(names)}


def owned_names(corpus, owned):
    return tuple(corpus.names[pos] for pos in owned)


def test_single_edge():
    corpus = make_corpus([make_record("a", dependencies=("b",)), make_record("b")])
    index = dependents_by_name(corpus, build_dependents_index(corpus))
    assert index["b"] == ("a",)
    assert index["a"] == ()


def test_self_edge_dropped():
    corpus = make_corpus([make_record("a", dependencies=("a",))])
    index = dependents_by_name(corpus, build_dependents_index(corpus))
    assert index["a"] == ()


def test_unknown_dependee_is_not_indexed():
    corpus = make_corpus([make_record("a", dependencies=("ghost",))])
    index = build_dependents_index(corpus)
    assert dependents_by_name(corpus, index) == {"a": ()}
    assert list(index.offsets) == [0, 0]
    assert len(index.targets) == 0


def test_corpus_position_is_the_index_of_a_name():
    corpus = random_corpus(seed=3, size=150)
    for pos, rec in enumerate(corpus_records(corpus)):
        assert corpus.position(rec.name) == pos
    for name in ("external-dep", "", "zzz", corpus.names[0] + "-"):
        with pytest.raises(KeyError):
            corpus.position(name)


def test_index_rejects_a_corpus_with_a_repeated_name():
    with pytest.raises(ValueError, match="distinct names"):
        build_dependents_index(make_corpus([make_record("a"), make_record("a", dependencies=("b",))]))


def test_dep_kinds_selectable(tmp_path):
    versions = {"a": {"dependencies": ["b"], "devDependencies": ["c"]}, "b": {}, "c": {}}
    runtime = load_documents(tmp_path, versions)
    assert dependents_by_name(runtime, build_dependents_index(runtime))["c"] == ()
    both = load_documents(tmp_path, versions, dep_kinds=("runtime", "dev"))
    assert dependents_by_name(both, build_dependents_index(both))["c"] == ("a",)


def test_a_name_declared_under_two_kinds_lists_its_dependent_once(tmp_path):
    versions = {
        "a": {"dependencies": ["lib", "b"], "devDependencies": ["b", "lib"]},
        "b": {"devDependencies": ["lib"]},
        "c": {"dependencies": ["lib"], "devDependencies": ["lib"]},
        "lib": {},
    }
    corpus = load_documents(tmp_path, versions, dep_kinds=("runtime", "dev"))
    index = dependents_by_name(corpus, build_dependents_index(corpus))
    assert index == {"a": (), "b": ("a",), "c": (), "lib": ("a", "b", "c")}
    assert index == brute_force_index(corpus)


def brute_force_index(corpus):
    # Each corpus name maps to the names of the records that declare it, in
    # corpus order, each once; a declared name outside the corpus is no key.
    index = dict.fromkeys(corpus.names, ())
    for rec in corpus_records(corpus):
        for dep in dict.fromkeys(rec.dependencies):
            if dep != rec.name and dep in index:
                index[dep] += (rec.name,)
    return index


ALL_KINDS = ("runtime", "dev", "peer", "optional")


def test_index_matches_brute_force_on_random_corpora():
    for seed in range(10):
        for kinds in (("runtime",), ("runtime", "dev")):
            corpus = random_corpus(seed=seed, size=150, dep_kinds=kinds)
            assert dependents_by_name(corpus, build_dependents_index(corpus)) == brute_force_index(corpus)


def test_index_rows_are_compact_and_aligned_with_positions():
    for seed in range(10):
        corpus = random_corpus(seed=seed, size=150)
        index = build_dependents_index(corpus)
        offsets, targets = index.offsets, index.targets
        assert (offsets.typecode, targets.typecode) == ("i", "i")
        assert len(offsets) == len(corpus.names) + 1
        assert offsets[0] == 0 and offsets[-1] == len(targets)
        counts = index.counts()
        assert list(counts) == [index.count(pos) for pos in range(len(corpus.names))]
        assert all(count >= 0 for count in counts)
        for pos in range(len(corpus.names)):
            row = list(index.dependents(pos))
            assert row == sorted(set(row)), (seed, pos)  # ascending, each once
        assert 0 in counts  # some record nobody depends on


def test_dependencies_outside_the_filtered_corpus_are_no_edges():
    # Random corpora declare names outside the snapshot ("external-dep",
    # "external-dev") and names that exclusions drop.
    dropped = 0
    for seed in range(10):
        for kinds in (("runtime",), ("runtime", "dev")):
            records = random_records(seed=seed, size=150, dep_kinds=kinds)
            filtered, _ = apply_exclusions(make_corpus(records))
            kept = set(filtered.names)
            index = build_dependents_index(filtered)
            assert dependents_by_name(filtered, index) == brute_force_index(filtered)
            declared = [dep for rec in records if rec.name in kept for dep in rec.dependencies]
            assert len(index.targets) == sum(dep in kept for dep in declared)
            dropped += sum(dep not in kept for dep in declared)
    assert dropped  # the records do declare such names


def test_the_dependents_index_peaks_at_a_few_bytes_per_edge_and_record(tmp_path):
    # A counting sort over the corpus's int arrays: the result holds 4 B per
    # edge and per record, and the fill adds 4 B per record of counts and 4
    # of cursors. A map from each name to a list of its dependents held
    # several times that.
    snapshot = generate(GenerationPlan(seed=1, package_count=5_000)).write_snapshot(
        tmp_path / "snapshot.ndjson", layout="ndjson"
    )
    corpus = load_corpus(snapshot)
    records, edges = len(corpus.names), len(corpus.dep_targets)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        index = build_dependents_index(corpus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert edges > records // 2
    assert len(index.targets) == edges
    assert peak - start <= 4 * edges + 16 * records


def test_self_edges_are_never_indexed(tmp_path):
    versions = {"a": {"dependencies": ["a", "b"]}, "b": {"dependencies": ["b"], "devDependencies": ["a", "b"]}}
    corpus = load_documents(tmp_path, versions, dep_kinds=ALL_KINDS)
    assert dependents_by_name(corpus, build_dependents_index(corpus)) == {"a": ("b",), "b": ("a",)}
    for seed in range(10):
        corpus = random_corpus(seed=seed, size=150, dep_kinds=("runtime", "dev"))
        index = build_dependents_index(corpus)
        assert not any(pos in index.dependents(pos) for pos in range(len(corpus.names))), seed


def test_edge_count_invariant():
    for seed in (2, 7):
        corpus = random_corpus(seed=seed, size=100)
        index = build_dependents_index(corpus)
        names = set(corpus.names)
        edges = sum(1 for rec in corpus_records(corpus) for dep in rec.dependencies if dep != rec.name and dep in names)
        assert len(index.targets) == edges
        assert sum(index.counts()) == edges


def test_the_dependents_bit_marks_the_nonempty_index_rows():
    outside = set()
    for seed in range(10):
        for kinds in (("runtime",), ("runtime", "dev"), ALL_KINDS):
            records = random_records(seed=seed, size=150, dep_kinds=kinds)
            corpus = make_corpus(records)
            index = dependents_by_name(corpus, build_dependents_index(corpus))
            _, verdicts = apply_exclusions(corpus)
            marked = {name for name, verdict in zip(verdicts.names, verdicts) if verdict.had_dependents}
            assert marked == {name for name, deps in index.items() if deps}, (seed, kinds)
            # A name outside the corpus has no position, so nothing marks it.
            declared = {dep for rec in records for dep in rec.dependencies}
            assert marked == declared & index.keys()
            outside |= declared - index.keys()
    assert outside == {"external-dep", "external-dev"}


def test_a_name_only_its_own_record_lists_has_no_dependents(tmp_path):
    versions = {"a": {"dependencies": ["a", "b"]}, "b": {"devDependencies": ["b"], "peerDependencies": ["b"]}}
    _, verdicts = apply_exclusions(load_documents(tmp_path, versions, dep_kinds=ALL_KINDS))
    assert [name for name, verdict in zip(verdicts.names, verdicts) if verdict.had_dependents] == ["b"]


def test_exclusions_read_names_declared_under_the_scanned_kinds(tmp_path):
    # "noise" is deprecated and nobody depends on it; "noise-dev" is
    # deprecated and only a dev dependency of "user".
    versions = {
        "noise": {"deprecated": "gone", "dependencies": ["kept", "ext-lib"]},
        "kept": {"dependencies": ["shared"]},
        "user": {"dependencies": ["kept", "shared"], "devDependencies": ["noise-dev"]},
        "noise-dev": {"deprecated": "gone"},
    }
    for kinds, excluded in ((("runtime",), {"noise", "noise-dev"}), (("runtime", "dev"), {"noise"})):
        corpus = load_documents(tmp_path, versions, dep_kinds=kinds)
        filtered, verdicts = apply_exclusions(corpus)
        assert {name for name, v in zip(verdicts.names, verdicts) if v.excluded} == excluded
        assert list(filtered.names) == sorted(set(corpus.names) - excluded)


def test_maintainer_index_and_reach():
    m = person(email="m@x.io")
    corpus = make_corpus(
        [
            make_record("b", maintainers=(m,)),
            make_record("a", dependencies=("b",)),
            make_record("c", dependencies=("b",)),
        ]
    )
    owned = owned_by_key(corpus, build_maintainer_index(corpus))
    dindex = build_dependents_index(corpus)
    assert owned_names(corpus, owned["m@x.io"]) == ("b",)
    assert maintainer_reach(owned["m@x.io"], dindex) == 2


def test_maintainer_listed_twice_owns_each_package_once():
    m = person(email="m@x.io")
    corpus = make_corpus([make_record("a", maintainers=(m, m)), make_record("b", maintainers=(m,))])
    owned = owned_by_key(corpus, build_maintainer_index(corpus))["m@x.io"]
    assert tuple(owned) == (0, 1)
    assert owned.typecode == "i"


def test_addresses_differing_in_case_own_a_package_once():
    corpus = make_corpus(
        [
            make_record("b", maintainers=(person(email="A@dead.io"), person(email="a@dead.io"))),
            make_record("a", maintainers=(person(email="a@dead.io"),)),
        ]
    )
    assert owned_names(corpus, owned_by_key(corpus, build_maintainer_index(corpus))["a@dead.io"]) == ("a", "b")


def test_maintainer_index_matches_brute_force_on_random_corpora():
    for seed in range(10):
        corpus = random_corpus(seed=seed, size=150)
        oracle = {}
        for rec in corpus_records(corpus):
            for key in dict.fromkeys(rec.maintainers):
                oracle[key] = oracle.get(key, ()) + (rec.name,)
        owned = owned_by_key(corpus, build_maintainer_index(corpus))
        assert {key: owned_names(corpus, positions) for key, positions in owned.items()} == oracle
        assert list(owned) == list(oracle)


def test_reach_unique_union():
    m = person(email="m@x.io")
    corpus = make_corpus(
        [
            make_record("b", maintainers=(m,)),
            make_record("d", maintainers=(m,)),
            make_record("a", dependencies=("b", "d")),
        ]
    )
    owned = owned_by_key(corpus, build_maintainer_index(corpus))
    dindex = build_dependents_index(corpus)
    assert maintainer_reach(owned["m@x.io"], dindex) == 1


def test_reach_counts_own_dependents():
    m = person(email="m@x.io")
    corpus = make_corpus(
        [
            make_record("b", maintainers=(m,)),
            make_record("d", maintainers=(m,), dependencies=("b",)),
            make_record("a", dependencies=("b",)),
        ]
    )
    owned = owned_by_key(corpus, build_maintainer_index(corpus))
    dindex = build_dependents_index(corpus)
    assert maintainer_reach(owned["m@x.io"], dindex) == 2


def brute_force_reach(corpus):
    # Name-level: the unique dependent names across each identity's packages.
    index = brute_force_index(corpus)
    owners = {}
    for rec in corpus_records(corpus):
        for key in rec.maintainers:
            owners.setdefault(key, set()).add(rec.name)
    return {key: len({dep for pkg in pkgs for dep in index[pkg]}) for key, pkgs in owners.items()}


def test_reach_matches_brute_force_and_bounds():
    for seed in range(10):
        corpus = random_corpus(seed=seed, size=150)
        owned = owned_by_key(corpus, build_maintainer_index(corpus))
        dindex = build_dependents_index(corpus)
        index = brute_force_index(corpus)
        oracle = brute_force_reach(corpus)
        assert owned.keys() == oracle.keys()
        for key, positions in owned.items():
            got = maintainer_reach(positions, dindex)
            assert got == oracle[key]
            sizes = [len(index[pkg]) for pkg in owned_names(corpus, positions)]
            assert got <= sum(sizes)
            assert got >= max(sizes)


def test_w6_ties_between_maintainer_keys_break_on_the_key():
    # At 50% most flagged maintainers tie (many reach nothing), so the
    # string tie-break orders much of the ranking.
    tied = 0
    for seed in range(10):
        corpus = random_corpus(seed=seed, size=150)
        for percent in (10.0, 50.0):
            cfg = AnalyzerConfig(top_percent=percent).resolved(corpus)
            findings = analyze_w6(corpus, build_maintainer_index(corpus), build_dependents_index(corpus), cfg)
            flagged = [(f.subject_id, f.value("reach")) for f in findings if f.subject_kind == "maintainer"]
            reaches = brute_force_reach(corpus)
            assert flagged == independent_top_percent(list(reaches.items()), percent), (seed, percent)
            tied += len(flagged) - len({reach for _, reach in flagged})
    assert tied


def test_maintainer_last_activity_is_max():
    from datetime import timedelta

    from conftest import REF

    m = person(email="m@x.io")
    corpus = make_corpus(
        [
            make_record("old", maintainers=(m,), last_modified=REF - timedelta(days=900)),
            make_record("new", maintainers=(m,), last_modified=REF),
        ]
    )
    mindex = build_maintainer_index(corpus)
    assert len(mindex) == 1 and corpus.identity_keys == ("m@x.io",)
    assert from_epoch_us(mindex.last_activity[0]) == REF


# --- top_percent / top_n ------------------------------------------------------
#
# The rankings take subjects and the scores aligned with them; the oracles
# below rank (subject, score) pairs.


def split(pairs):
    return [subject for subject, _ in pairs], [score for _, score in pairs]


def test_top_percent_distinct_scores():
    subjects = [(f"s{i:03d}", i) for i in range(100)]
    flagged = top_percent(*split(subjects), 1)
    assert [name for name, _ in flagged] == ["s099"]


def test_top_percent_closed_ties():
    subjects = [("a", 5), ("b", 5), ("c", 5)] + [(f"x{i}", 1) for i in range(97)]
    flagged = top_percent(*split(subjects), 1)
    assert sorted(name for name, _ in flagged) == ["a", "b", "c"]


def test_top_percent_validation():
    assert top_percent([], array("q"), 1) == []
    assert top_n([], [], 3) == []
    with pytest.raises(ValueError):
        top_percent(["a"], [1], 0)
    with pytest.raises(ValueError):
        top_percent(["a"], [1], 101)
    with pytest.raises(ValueError):
        top_n(["a", "b"], [1], 1)  # the scores are not aligned with the subjects


def test_top_n_tie_break_lexicographic():
    subjects = [("b", 2), ("a", 2), ("c", 1)]
    assert [name for name, _ in top_n(*split(subjects), 1)] == ["a", "b"]


def test_top_n_ranks_positions_in_name_order():
    # Position subjects break ties as their names would, since position
    # order is name order.
    corpus = make_corpus([make_record(name) for name in ("b", "a", "d", "c")])
    scores = array("q", [3, 5, 5, 1])  # a, b, c, d
    winners = top_n(range(4), scores, 2)
    assert winners == [(1, 5), (2, 5)]
    assert [corpus.names[pos] for pos, _ in winners] == ["b", "c"]


def independent_top_percent(subjects, percent):
    # Sort-based oracle with an explicit tie walk.
    import math

    ranked = sorted(subjects, key=lambda s: (-s[1], s[0]))
    k = math.ceil(len(subjects) * percent / 100)
    cutoff = ranked[k - 1][1] if k <= len(ranked) else None
    out = ranked[:k]
    for item in ranked[k:]:
        if item[1] == cutoff:
            out.append(item)
        else:
            break
    return out


@given(
    st.lists(st.tuples(st.text("ab", min_size=1, max_size=4), st.integers(0, 50)), min_size=1, max_size=60),
    st.sampled_from([1, 5, 10, 50, 100]),
)
def test_top_percent_matches_oracle_and_permutation_invariant(items, percent):
    subjects = [(f"{name}-{i}", score) for i, (name, score) in enumerate(items)]
    got = top_percent(*split(subjects), percent)
    assert got == independent_top_percent(subjects, percent)
    shuffled = list(reversed(subjects))
    assert top_percent(*split(shuffled), percent) == got


def brute_force_top_n(subjects, n):
    # Every subject scoring at least the n-th best score, best first, ties by id.
    scores = sorted((score for _, score in subjects), reverse=True)
    cutoff = scores[min(n, len(scores)) - 1]
    kept = sorted((item for item in subjects if item[1] >= cutoff), key=lambda item: item[0])
    return sorted(kept, key=lambda item: item[1], reverse=True)


# Few distinct values so that ties are common; W5 ranks negative ratios.
SCORES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([-1.0, -0.5, -1 / 3, -0.25, -0.0, 0.0, 0.25, 2.5]),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(st.lists(SCORES, min_size=1, max_size=40), st.integers(1, 45))
@example([-0.25, -0.5, -0.5, -1.0], 2)  # ties at the n-th score
@example([3, 1, 2], 5)  # n >= len
def test_top_n_matches_brute_force_closed_cutoff(scores, n):
    subjects = [(f"s{i:02d}", score) for i, score in enumerate(scores)]
    want = brute_force_top_n(subjects, n)
    assert top_n(*split(subjects), n) == want
    assert top_n(*split(subjects[::-1]), n) == want


@given(st.lists(SCORES, min_size=1, max_size=40), st.floats(0, 100, exclude_min=True))
@example([0, 1], 5e-324)  # the product underflows to zero; the top subject still counts
def test_top_percent_matches_brute_force_closed_cutoff(scores, percent):
    subjects = [(f"s{i:02d}", score) for i, score in enumerate(scores)]
    k = max(1, math.ceil(len(subjects) * percent / 100))
    assert top_percent(*split(subjects), percent) == brute_force_top_n(subjects, k)


# The pipeline's rankings: position subjects (a range or an int array) with
# scores in an array, as W4, W5 and popular_sample pass them.
ARRAY_SCORES = st.one_of(
    st.lists(st.integers(-3, 3), min_size=1, max_size=40).map(lambda xs: array("q", xs)),
    st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=40).map(lambda xs: array("i", xs)),
    st.lists(st.sampled_from([-1.0, -0.5, -1 / 3, -0.0, 0.0, 2.5]), min_size=1, max_size=40).map(lambda xs: array("d", xs)),
)


@given(ARRAY_SCORES, st.integers(1, 45), st.booleans())
@example(array("d", [-0.0, 0.0, -0.5]), 1, True)  # -0.0 and 0.0 tie
def test_aligned_top_n_matches_brute_force_on_positions(scores, n, as_range):
    subjects = range(len(scores)) if as_range else array("i", range(len(scores)))
    assert top_n(subjects, scores, n) == brute_force_top_n(list(zip(range(len(scores)), scores)), n)


@given(ARRAY_SCORES, st.floats(0, 100, exclude_min=True))
def test_aligned_top_percent_matches_oracle_on_positions(scores, percent):
    pairs = list(zip(range(len(scores)), scores))
    got = top_percent(range(len(scores)), scores, percent)
    k = max(1, math.ceil(len(pairs) * percent / 100))
    assert got == brute_force_top_n(pairs, k)
    if math.ceil(len(pairs) * percent / 100) >= 1:
        assert got == independent_top_percent(pairs, percent)
