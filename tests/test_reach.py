"""Index construction and reach metrics against brute-force oracles."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from weaklink.errors import EmptyInputError, UnknownMaintainerError
from weaklink.exclusions import apply_exclusions
from weaklink.reach import (
    NO_DEPENDENTS,
    build_dependents_index,
    build_maintainer_index,
    maintainer_reach,
    names_with_dependents,
    top_n,
    top_percent,
)

from conftest import load_documents, make_corpus, make_record, person, random_corpus


def test_single_edge():
    corpus = make_corpus([make_record("a", dependencies=("b",)), make_record("b")])
    index = build_dependents_index(corpus)
    assert index["b"] == ("a",)
    assert index["a"] == ()


def test_self_edge_dropped():
    corpus = make_corpus([make_record("a", dependencies=("a",))])
    index = build_dependents_index(corpus)
    assert index["a"] == ()


def test_unknown_dependee_still_indexed():
    corpus = make_corpus([make_record("a", dependencies=("ghost",))])
    index = build_dependents_index(corpus)
    assert index["ghost"] == ("a",)


def test_dep_kinds_selectable(tmp_path):
    versions = {"a": {"dependencies": ["b"], "devDependencies": ["c"]}, "b": {}, "c": {}}
    runtime_only = build_dependents_index(load_documents(tmp_path, versions))
    assert runtime_only["c"] == ()
    both = build_dependents_index(load_documents(tmp_path, versions, dep_kinds=("runtime", "dev")))
    assert both["c"] == ("a",)


def test_a_name_declared_under_two_kinds_lists_its_dependent_once(tmp_path):
    versions = {
        "a": {"dependencies": ["lib", "b"], "devDependencies": ["b", "lib"]},
        "b": {"devDependencies": ["lib"]},
        "c": {"dependencies": ["lib"], "devDependencies": ["lib"]},
    }
    corpus = load_documents(tmp_path, versions, dep_kinds=("runtime", "dev"))
    index = build_dependents_index(corpus)
    assert index == {"a": (), "b": ("a",), "c": (), "lib": ("a", "b", "c")}
    assert index == brute_force_index(corpus)


def brute_force_index(corpus):
    # Each value lists the dependents in corpus order, each once.
    index = {rec.name: () for rec in corpus.records}
    for rec in corpus.records:
        for dep in dict.fromkeys(rec.dependencies):
            if dep != rec.name:
                index[dep] = index.get(dep, ()) + (rec.name,)
    return index


ALL_KINDS = ("runtime", "dev", "peer", "optional")


def test_index_matches_brute_force_on_random_corpora():
    for seed in range(10):
        for kinds in (("runtime",), ("runtime", "dev")):
            corpus = random_corpus(seed=seed, size=150, dep_kinds=kinds)
            assert build_dependents_index(corpus) == brute_force_index(corpus)


def test_entries_nobody_depends_on_share_one_empty_value():
    for seed in range(10):
        corpus = random_corpus(seed=seed, size=150)
        index = build_dependents_index(corpus)
        oracle = brute_force_index(corpus)
        assert index == oracle
        assert list(index) == list(oracle)
        idle = [name for name, deps in oracle.items() if not deps]
        assert idle
        assert all(index[name] is NO_DEPENDENTS for name in idle)
        assert all(type(deps) is tuple for deps in index.values())
    assert NO_DEPENDENTS == ()


def test_edge_count_invariant():
    for seed in (2, 7):
        corpus = random_corpus(seed=seed, size=100)
        index = build_dependents_index(corpus)
        edges = sum(1 for rec in corpus.records for dep in rec.dependencies if dep != rec.name)
        assert sum(len(v) for v in index.values()) == edges


def test_names_with_dependents_are_the_nonempty_index_keys():
    for seed in range(10):
        for kinds in (("runtime",), ("runtime", "dev"), ALL_KINDS):
            corpus = random_corpus(seed=seed, size=150, dep_kinds=kinds)
            index = build_dependents_index(corpus)
            names = names_with_dependents(corpus)
            assert names == {name for name, deps in index.items() if deps}, (seed, kinds)
            assert names


def test_a_name_only_its_own_record_lists_has_no_dependents(tmp_path):
    versions = {"a": {"dependencies": ["a", "b"]}, "b": {"devDependencies": ["b"], "peerDependencies": ["b"]}}
    assert names_with_dependents(load_documents(tmp_path, versions, dep_kinds=ALL_KINDS)) == {"b"}


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
        filtered, verdicts = apply_exclusions(corpus, names_with_dependents(corpus))
        assert {v.package_id.split("@")[0] for v in verdicts if v.excluded} == excluded
        assert [rec.name for rec in filtered.records] == sorted(corpus.by_name.keys() - excluded)


def test_maintainer_index_and_reach():
    m = person(email="m@x.io")
    corpus = make_corpus(
        [
            make_record("b", maintainers=(m,)),
            make_record("a", dependencies=("b",)),
            make_record("c", dependencies=("b",)),
        ]
    )
    mindex = build_maintainer_index(corpus)
    dindex = build_dependents_index(corpus)
    assert mindex["m@x.io"].owned_packages == ("b",)
    assert maintainer_reach("m@x.io", mindex, dindex) == 2


def test_maintainer_listed_twice_owns_each_package_once():
    m = person(email="m@x.io")
    corpus = make_corpus([make_record("a", maintainers=(m, m)), make_record("b", maintainers=(m,))])
    info = build_maintainer_index(corpus)["m@x.io"]
    assert info.owned_packages == ("a", "b")
    assert type(info.owned_packages) is tuple


def test_addresses_differing_in_case_own_a_package_once():
    corpus = make_corpus(
        [
            make_record("b", maintainers=(person(email="A@dead.io"), person(email="a@dead.io"))),
            make_record("a", maintainers=(person(email="a@dead.io"),)),
        ]
    )
    assert build_maintainer_index(corpus)["a@dead.io"].owned_packages == ("a", "b")


def test_maintainer_index_matches_brute_force_on_random_corpora():
    for seed in range(10):
        corpus = random_corpus(seed=seed, size=150)
        oracle = {}
        for rec in corpus.records:
            for key in dict.fromkeys(p.identity_key for p in rec.maintainers):
                oracle[key] = oracle.get(key, ()) + (rec.name,)
        mindex = build_maintainer_index(corpus)
        assert {key: info.owned_packages for key, info in mindex.items()} == oracle
        assert list(mindex) == list(oracle)


def test_reach_unique_union():
    m = person(email="m@x.io")
    corpus = make_corpus(
        [
            make_record("b", maintainers=(m,)),
            make_record("d", maintainers=(m,)),
            make_record("a", dependencies=("b", "d")),
        ]
    )
    mindex = build_maintainer_index(corpus)
    dindex = build_dependents_index(corpus)
    assert maintainer_reach("m@x.io", mindex, dindex) == 1


def test_reach_counts_own_dependents():
    m = person(email="m@x.io")
    corpus = make_corpus(
        [
            make_record("b", maintainers=(m,)),
            make_record("d", maintainers=(m,), dependencies=("b",)),
            make_record("a", dependencies=("b",)),
        ]
    )
    mindex = build_maintainer_index(corpus)
    dindex = build_dependents_index(corpus)
    assert maintainer_reach("m@x.io", mindex, dindex) == 2


def test_unknown_maintainer_raises():
    with pytest.raises(UnknownMaintainerError):
        maintainer_reach("nobody@x.io", {}, {})


def test_reach_matches_brute_force_and_bounds():
    for seed in range(10):
        corpus = random_corpus(seed=seed, size=150)
        mindex = build_maintainer_index(corpus)
        dindex = build_dependents_index(corpus)
        for key, info in mindex.items():
            union = set()
            for pkg in info.owned_packages:
                union |= set(dindex.get(pkg, ()))
            got = maintainer_reach(key, mindex, dindex)
            assert got == len(union)
            sizes = [len(dindex.get(pkg, ())) for pkg in info.owned_packages]
            assert got <= sum(sizes)
            assert got >= max(sizes)


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
    assert mindex["m@x.io"].last_activity == REF


# --- top_percent / top_n ------------------------------------------------------


def test_top_percent_distinct_scores():
    subjects = [(f"s{i:03d}", i) for i in range(100)]
    flagged = top_percent(subjects, 1)
    assert [name for name, _ in flagged] == ["s099"]


def test_top_percent_closed_ties():
    subjects = [("a", 5), ("b", 5), ("c", 5)] + [(f"x{i}", 1) for i in range(97)]
    flagged = top_percent(subjects, 1)
    assert sorted(name for name, _ in flagged) == ["a", "b", "c"]


def test_top_percent_validation():
    with pytest.raises(EmptyInputError):
        top_percent([], 1)
    with pytest.raises(ValueError):
        top_percent([("a", 1)], 0)
    with pytest.raises(ValueError):
        top_percent([("a", 1)], 101)


def test_top_n_tie_break_lexicographic():
    subjects = [("b", 2), ("a", 2), ("c", 1)]
    assert [name for name, _ in top_n(subjects, 1)] == ["a", "b"]


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
    got = top_percent(subjects, percent)
    assert got == independent_top_percent(subjects, percent)
    shuffled = list(reversed(subjects))
    assert top_percent(shuffled, percent) == got


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
    assert top_n(subjects, n) == want
    assert top_n(subjects[::-1], n) == want


@given(st.lists(SCORES, min_size=1, max_size=40), st.floats(0, 100, exclude_min=True))
@example([0, 1], 5e-324)  # the product underflows to zero; the top subject still counts
def test_top_percent_matches_brute_force_closed_cutoff(scores, percent):
    subjects = [(f"s{i:02d}", score) for i, score in enumerate(scores)]
    k = max(1, math.ceil(len(subjects) * percent / 100))
    assert top_percent(subjects, percent) == brute_force_top_n(subjects, k)
