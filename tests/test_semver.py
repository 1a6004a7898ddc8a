"""Version-ordering tests against an independent pairwise comparator."""

from __future__ import annotations

import random
import re

import pytest

from weaklink import semver

# --- independent oracle: recursive pairwise semver comparison -------------

_ORACLE_RE = re.compile(r"^v?(\d+)(?:\.(\d+))?(?:\.(\d+))?(?:-([0-9A-Za-z.-]+))?(?:\+.*)?$")


def _oracle_cmp(a: str, b: str) -> int:
    ma, mb = _ORACLE_RE.match(a.strip()), _ORACLE_RE.match(b.strip())
    if ma is None or mb is None:
        if ma is None and mb is None:
            return (a > b) - (a < b)
        return -1 if ma is None else 1
    for idx in (1, 2, 3):
        xa, xb = int(ma.group(idx) or 0), int(mb.group(idx) or 0)
        if xa != xb:
            return 1 if xa > xb else -1
    pa, pb = ma.group(4), mb.group(4)
    if pa is None and pb is None:
        return 0
    if pa is None:
        return 1  # release beats pre-release
    if pb is None:
        return -1
    for ia, ib in zip(pa.split("."), pb.split(".")):
        a_num, b_num = ia.isdigit(), ib.isdigit()
        if a_num and b_num:
            if int(ia) != int(ib):
                return 1 if int(ia) > int(ib) else -1
        elif a_num != b_num:
            return -1 if a_num else 1  # numeric sorts below alphanumeric
        elif ia != ib:
            return 1 if ia > ib else -1
    la, lb = len(pa.split(".")), len(pb.split("."))
    if la != lb:
        return 1 if la > lb else -1
    return 0


def _oracle_max(versions: list[str]) -> str:
    best = versions[0]
    for v in versions[1:]:
        if _oracle_cmp(v, best) > 0:
            best = v
    return best


def test_fallback_picks_highest_semver():
    # Digit-wise string sorting would pick 1.2.0 here.
    assert semver.max_version(["1.0.0", "1.10.0", "1.2.0"]) == "1.10.0"


@pytest.mark.parametrize(
    "lower,higher",
    [
        ("1.0.0", "2.0.0"),
        ("1.2.3", "1.2.10"),
        ("1.0.0-alpha", "1.0.0"),
        ("1.0.0-alpha", "1.0.0-alpha.1"),
        ("1.0.0-alpha.1", "1.0.0-alpha.beta"),
        ("1.0.0-beta.2", "1.0.0-beta.11"),
        ("1.0.0-rc.1", "1.0.0"),
        ("0.0.1-security", "0.0.2"),
        ("not-a-version", "0.0.1"),
    ],
)
def test_pairwise_order(lower, higher):
    assert semver.sort_key(lower) < semver.sort_key(higher)
    assert _oracle_cmp(lower, higher) < 0


def test_random_sets_match_oracle():
    rng = random.Random(1234)
    pres = ["", "-alpha", "-alpha.1", "-beta.2", "-beta.11", "-rc.1.x", "-0.3.7"]
    for _trial in range(300):
        versions = [
            f"{rng.randrange(0, 4)}.{rng.randrange(0, 12)}.{rng.randrange(0, 12)}{rng.choice(pres)}"
            for _ in range(rng.randrange(2, 9))
        ]
        got = semver.max_version(versions)
        want = _oracle_max(versions)
        assert semver.sort_key(got) == semver.sort_key(want), (versions, got, want)


def test_invalid_versions_sort_below_valid():
    assert semver.max_version(["banana", "0.0.1"]) == "0.0.1"
    assert semver.max_version(["banana", "apple"]) == "banana"


def test_build_metadata_ignored_for_precedence():
    # Equal on every precedence component; only the raw-string tiebreak differs.
    assert semver.sort_key("1.0.0+build.5")[:-1] == semver.sort_key("1.0.0")[:-1]


def test_numbers_of_any_length_compare_by_value():
    huge = "1" + "0" * 5000
    assert semver.max_version(["2.0.0", huge, "9" * 4999]) == huge
    assert semver.sort_key("1.0.0-" + "9" * 5000) < semver.sort_key("1.0.0-1" + "0" * 5000)
    # Leading zeros do not count.
    assert semver.sort_key("0" * 6000 + "7.1.2")[1:-1] == semver.sort_key("7.01.2")[1:-1]
    assert semver.sort_key("07.0.0") < semver.sort_key("10.0.0")


def test_non_ascii_digits_are_not_a_version():
    # npm's grammar allows only 0-9; other Unicode digits sort with the invalid strings.
    assert semver.sort_key("\u0661.0.0")[0] == 0
    assert semver.max_version(["\u0661\u0662.0.0", "0.0.1"]) == "0.0.1"
