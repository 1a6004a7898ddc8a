"""Document normalization, latest-version selection and corpus loading."""

from __future__ import annotations

import builtins
import gc
import hashlib
import io
import itertools
import json
import tempfile
import tracemalloc
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaklink import ingest
from weaklink.errors import NoVersionsError, ParseError
from weaklink.ingest import (
    extract_email_domain,
    format_timestamp,
    load_corpus,
    parse_person,
)
from weaklink.synth import GenerationPlan, generate

from conftest import Record, corpus_records, email_domains, parse_record
from ingest_reference import record_to_dict, reference_email_domains, reference_record

T0 = "2024-01-01T00:00:00.000Z"
ALL_KINDS = ("runtime", "dev", "peer", "optional")


def doc_bytes(tree: dict) -> bytes:
    return json.dumps(tree).encode()


def minimal_doc(name="a", version="1.0.0", **extra) -> dict:
    tree = {
        "name": name,
        "dist-tags": {"latest": version},
        "versions": {version: {"name": name, "version": version}},
        "time": {"created": T0, "modified": T0, version: T0},
    }
    tree.update(extra)
    return tree


# --- parse_record: the document ---------------------------------------------


def test_minimal_document():
    rec = parse_record(doc_bytes(minimal_doc()))
    assert rec.name == "a"
    assert rec.version == "1.0.0"
    assert parse_record(minimal_doc()) == parse_record(json.dumps(minimal_doc())) == rec


def test_garbage_bytes_is_malformed():
    with pytest.raises(ParseError) as err:
        parse_record(b"not-a-doc")
    assert err.value.reason == "malformed"


def test_missing_name():
    tree = minimal_doc()
    del tree["name"]
    with pytest.raises(ParseError) as err:
        parse_record(doc_bytes(tree))
    assert err.value.reason == "no_name"
    with pytest.raises(ParseError):
        parse_record(doc_bytes(minimal_doc(name="   ")))


def test_latest_tag_pointing_nowhere_is_malformed():
    tree = minimal_doc()
    tree["dist-tags"]["latest"] = "9.9.9"
    with pytest.raises(ParseError) as err:
        parse_record(doc_bytes(tree))
    assert err.value.reason == "malformed"


@pytest.mark.parametrize(
    "repository,expected",
    [("github:u/r", True), ({"type": "git", "url": "git+https://x/y.git"}, True), (None, False), ("", False)],
)
def test_repository_shapes(repository, expected):
    tree = minimal_doc()
    if repository is not None:
        tree["repository"] = repository
    rec = parse_record(doc_bytes(tree))  # no license: a record without a repository lacks both
    assert rec.exclusion_reasons == (0 if expected else ingest.NO_REPO_NO_LICENSE)


def test_contributor_shapes_normalized():
    people = [
        {"name": "Ann", "email": "ann@x.io"},
        "Bob <bob@y.io>",
        "Plain Name",
        "solo@z.io",
        "",
        {"email": "  "},
        7,
    ]
    leaves = ingest._Leaves()
    rec = parse_record(doc_bytes(minimal_doc(maintainers=people, contributors=people)), leaves)
    assert rec.maintainers == ("ann@x.io", "bob@y.io", "name:plain name", "solo@z.io")
    assert email_domains(leaves) == {"ann@x.io": "x.io", "bob@y.io": "y.io", "solo@z.io": "z.io"}
    assert rec.contributor_count == 4


def test_people_of_the_latest_version_win_over_the_document():
    tree = minimal_doc(maintainers=["Doc <doc@x.io>"], contributors=["A", "B", "C"])
    tree["versions"]["1.0.0"].update(maintainers=[{"email": "v@x.io"}], contributors="Solo")
    leaves = ingest._Leaves()
    rec = parse_record(tree, leaves)
    assert rec.maintainers == ("v@x.io",)
    assert rec.contributor_count == 1
    assert email_domains(leaves) == {"v@x.io": "x.io"}  # the document's maintainers are not read
    # Lists with no usable entry fall back to the document's.
    tree["versions"]["1.0.0"].update(maintainers=[""], contributors={"name": " "})
    rec = parse_record(tree)
    assert rec.maintainers == ("doc@x.io",)
    assert rec.contributor_count == 3


# --- parse_record: the latest version -----------------------------------------


def test_dist_tag_latest_wins():
    tree = minimal_doc(version="2.0.0")
    tree["versions"]["1.0.0"] = {"name": "a", "version": "1.0.0"}
    tree["time"]["1.0.0"] = T0
    rec = parse_record(doc_bytes(tree))
    assert rec.version == "2.0.0"
    assert rec.package_id == "a@2.0.0"


def test_semver_fallback_without_dist_tags():
    tree = {
        "name": "a",
        "versions": {v: {"name": "a", "version": v} for v in ("1.0.0", "1.10.0", "1.2.0")},
        "time": {"created": T0, "modified": T0},
    }
    rec = parse_record(doc_bytes(tree))
    assert rec.version == "1.10.0"


def test_semver_fallback_over_a_version_of_5001_digits(tmp_path):
    # int() refuses more than 4,300 digits; the fallback never converts.
    huge = "1" + "0" * 5000
    tree = {
        "name": "a",
        "versions": {v: {"name": "a", "version": v} for v in ("2.0.0", huge, "9" * 4999)},
        "time": {"created": T0, "modified": T0},
    }
    corpus = load_corpus(write_snapshot(tmp_path, [tree], "ndjson"))
    assert corpus.stats.parsed == 1
    assert corpus.versions[0] == huge


def test_empty_versions_raises():
    tree = {"name": "a", "versions": {}, "time": {}}
    with pytest.raises(NoVersionsError):
        parse_record(doc_bytes(tree))


def test_version_key_order_permutation_invariant():
    versions = ["1.0.0", "1.10.0", "1.2.0", "0.9.0"]
    trees = []
    for order in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]):
        tree = {
            "name": "a",
            "versions": {versions[i]: {"name": "a", "version": versions[i]} for i in order},
            "time": {"created": T0, "modified": T0},
        }
        trees.append(record_to_dict(parse_record(doc_bytes(tree))))
    assert trees[0] == trees[1] == trees[2]


def test_missing_modified_uses_max_version_time():
    tree = {
        "name": "a",
        "dist-tags": {"latest": "2.0.0"},
        "versions": {"1.0.0": {}, "2.0.0": {}},
        "time": {"created": T0, "1.0.0": T0, "2.0.0": "2024-03-05T10:00:00.000Z"},
    }
    rec = parse_record(doc_bytes(tree))
    assert rec.last_modified == datetime(2024, 3, 5, 10, 0, tzinfo=timezone.utc)


@pytest.mark.parametrize("stamp", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:00:00-01:00"])
def test_timestamp_out_of_range_in_utc_is_unusable(stamp):
    # Such a time parses, but its UTC date is out of datetime's range.
    assert ingest.parse_timestamp(stamp) is None
    tree = minimal_doc()
    tree["time"].update(created=stamp, modified=stamp)
    assert parse_record(tree).last_modified == datetime(2024, 1, 1, tzinfo=timezone.utc)
    del tree["time"]["1.0.0"]
    with pytest.raises(ParseError) as err:
        parse_record(tree)
    assert err.value.reason == "malformed"


def test_field_traceability_with_sentinels():
    # Each field carries a unique sentinel; the record must pick each one
    # from exactly the right document location.
    tree = {
        "name": "sentinel-pkg",
        "dist-tags": {"latest": "3.1.4"},
        "versions": {
            "3.1.4": {
                "name": "sentinel-pkg",
                "version": "3.1.4",
                "scripts": {"postinstall": "SENTINEL_SCRIPT_BODY  spaced"},
                "dependencies": {"sentinel-dep": "^9.9.9"},
                "devDependencies": {"sentinel-dev": "1.x"},
                "deprecated": "SENTINEL_DEPRECATION",
                "dist": {"unpackedSize": 31415, "fileCount": 42},
            }
        },
        "time": {"created": "2020-02-02T02:02:02.000Z", "modified": "2021-03-03T03:03:03.000Z", "3.1.4": T0},
        "description": "SENTINEL_DESCRIPTION",
        "maintainers": [{"name": "SENTINEL_MAINT", "email": "Maint@Sentinel.IO"}],
        "contributors": [{"name": "SENTINEL_CONTRIB", "email": "c@sentinel.io"}],
        "repository": {"type": "git", "url": "git+https://sentinel.example/r.git"},
        "license": "SENTINEL-LICENSE-1.0",
    }
    leaves = ingest._Leaves()
    rec = parse_record(doc_bytes(tree), leaves)
    assert rec.package_id == "sentinel-pkg@3.1.4"
    assert rec.scripts == {"postinstall": "SENTINEL_SCRIPT_BODY  spaced"}
    assert rec.dependencies == ("sentinel-dep",)
    assert rec.has_runtime_dependencies is True
    assert parse_record(doc_bytes(tree), ingest._Leaves(("dev", "runtime"))).dependencies == ("sentinel-dev", "sentinel-dep")
    assert parse_record(doc_bytes(tree), ingest._Leaves(("peer", "optional"))).dependencies == ()
    assert rec.deprecated == "SENTINEL_DEPRECATION"
    assert rec.maintainers == ("maint@sentinel.io",)
    assert email_domains(leaves) == {"maint@sentinel.io": "sentinel.io"}
    assert rec.contributor_count == 1
    assert rec.exclusion_reasons == ingest.DEPRECATED  # the repository is present
    del tree["repository"]
    for denylist, reasons in ((["MIT", " sentinel-license-1.0"], ingest.NO_REPO_NO_LICENSE), (["MIT"], 0)):
        rec_without_repository = parse_record(doc_bytes(tree), ingest._Leaves(license_denylist=denylist))
        assert rec_without_repository.exclusion_reasons == ingest.DEPRECATED | reasons
    assert rec.last_modified == datetime(2021, 3, 3, 3, 3, 3, tzinfo=timezone.utc)


def test_scoped_name_keeps_final_at_for_package_id():
    tree = minimal_doc(name="@scope/tool", version="2.1.0")
    tree["versions"] = {"2.1.0": {"name": "@scope/tool", "version": "2.1.0"}}
    tree["time"]["2.1.0"] = T0
    rec = parse_record(doc_bytes(tree))
    assert rec.package_id == "@scope/tool@2.1.0"
    assert rec.package_id.rsplit("@", 1) == ["@scope/tool", "2.1.0"]


def test_security_holding_marker_from_placeholder_dist_tag():
    tree = {
        "name": "foo",
        "dist-tags": {"latest": "0.0.1-security"},
        "versions": {"0.0.1-security": {}},
        "time": {"created": T0, "modified": T0},
    }
    rec = parse_record(doc_bytes(tree))
    assert rec.exclusion_reasons == ingest.SECURITY_HOLDING | ingest.NO_REPO_NO_LICENSE


@given(
    st.datetimes(
        min_value=datetime(2, 1, 1),
        max_value=datetime(9998, 12, 31),
        timezones=st.builds(timezone, st.timedeltas(min_value=timedelta(hours=-23), max_value=timedelta(hours=23))),
    )
)
def test_format_timestamp_matches_strftime(dt):
    assert format_timestamp(dt) == dt.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%f")[:-3] + "Z"


# --- extract_email_domain -----------------------------------------------------

# Hand-built table of odd addresses; expected values follow the last-@ rule.
EMAIL_TABLE = [
    ("Alice@Example.COM", "example.com"),
    ("no-at-sign", None),
    ("a@b@corp.io", "corp.io"),
    ("user@sub.domain.example", "sub.domain.example"),
    ("@leading.example", None),
    ("trailing@", None),
    ("", None),
    ("   ", None),
    ("  padded@space.example  ", "space.example"),
    ("weird@do main.example", None),
    ("tab@do\tmain.example", None),
    ("double@@stack.example", "stack.example"),
    ("unicode@exämple.de", "exämple.de"),
    ("plus+tag@mail.example", "mail.example"),
    ("quoted\"x\"@q.example", "q.example"),
    ("UPPER@CASE.EXAMPLE", "case.example"),
    ("dot.@dot.example", "dot.example"),
    ("a@localhost", "localhost"),
    ("semi;colon@sc.example", "sc.example"),
    ("x@-hyphen-start.example", "-hyphen-start.example"),
]


@pytest.mark.parametrize("email,expected", EMAIL_TABLE)
def test_email_domain_table(email, expected):
    assert extract_email_domain(email) == expected


@given(st.emails())
def test_email_domain_idempotent_under_lowercasing(email):
    domain = extract_email_domain(email)
    assert domain == extract_email_domain(email.lower())
    if domain is not None:
        assert domain == domain.lower()


@given(st.text(alphabet=st.sampled_from("ab.@ \t\x1c\x1f\x85\xa0\u2028\u3000\u200b"), max_size=12))
def test_email_domain_whitespace_rule_is_per_character(email):
    # The domain is rejected when any of its characters is whitespace by
    # str.isspace, the characters \x1c, \xa0, \u2028 and \u3000 included.
    text = email.strip()
    at = text.rfind("@")
    domain = text[at + 1 :]
    usable = 0 < at < len(text) - 1 and not any(ch.isspace() for ch in domain)
    assert extract_email_domain(email) == (domain.lower() if usable else None)


def test_parse_person_string_forms():
    assert parse_person("Ann Smith <Ann@X.io> (https://ann.example)") == ("ann@x.io", "x.io")
    assert parse_person(" Ann  Smith (https://ann.example)") == ("name:ann  smith", None)
    assert parse_person("Solo@Z.io") == ("solo@z.io", "z.io")
    assert parse_person({"name": "Ann", "email": " no-domain "}) == ("no-domain", None)
    assert parse_person("") is None
    assert parse_person({"email": "  "}) is None
    assert parse_person(7) is None


# --- load_corpus ----------------------------------------------------------------


def write_snapshot(tmp_path, docs, layout):
    if layout == "ndjson":
        path = tmp_path / "snap.ndjson"
        path.write_text("\n".join(json.dumps(d) for d in docs) + "\n")
    elif layout == "bulk":
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"rows": [{"id": d.get("name", "?"), "doc": d} for d in docs]}))
    else:
        path = tmp_path / "snap"
        path.mkdir()
        for idx, d in enumerate(docs):
            (path / f"doc{idx}.json").write_text(json.dumps(d))
    return path


@pytest.mark.parametrize("layout", ["ndjson", "bulk", "dir"])
def test_layouts_autodetected_and_equivalent(tmp_path, layout):
    docs = [minimal_doc(name=f"pkg-{i}") for i in range(4)]
    path = write_snapshot(tmp_path, docs, layout)
    corpus = load_corpus(path)
    assert list(corpus.names) == [f"pkg-{i}" for i in range(4)]
    assert corpus.stats.parsed == 4
    assert corpus.stats.skipped == 0


def test_skip_and_count_contract(tmp_path):
    path = tmp_path / "snap.ndjson"
    lines = [json.dumps(minimal_doc(name=f"p{i}")) for i in range(3)]
    lines.insert(1, "garbage not json")
    path.write_text("\n".join(lines) + "\n")
    corpus = load_corpus(path)
    assert len(corpus.names) == 3
    assert corpus.stats.skipped == 1
    assert corpus.stats.by_error == {"malformed": 1}


def test_directory_with_garbage_file(tmp_path):
    snap = tmp_path / "snap"
    snap.mkdir()
    for i in range(3):
        (snap / f"p{i}.json").write_text(json.dumps(minimal_doc(name=f"p{i}")))
    (snap / "broken.json").write_text("not-a-doc")
    corpus = load_corpus(snap)
    assert len(corpus.names) == 3
    assert corpus.stats.skipped == 1
    assert corpus.stats.total == 4


def test_empty_directory(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    corpus = load_corpus(empty, layout="dir")
    assert len(corpus.names) == 0
    assert corpus.stats.total == 0


def test_duplicate_names_keep_first(tmp_path):
    docs = [minimal_doc(name="dup", version="1.0.0"), minimal_doc(name="dup", version="2.0.0")]
    path = write_snapshot(tmp_path, docs, "ndjson")
    corpus = load_corpus(path)
    assert len(corpus.names) == 1
    assert corpus.versions[0] == "1.0.0"
    assert corpus.stats.by_error == {"duplicate_name": 1}


def test_missing_source_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_corpus(tmp_path / "nope.ndjson")


def test_idempotent_load_canonical_serialization(tmp_path):
    docs = [minimal_doc(name=f"pkg-{i}", contributors=["A <a@x.io>"]) for i in range(6)]
    path = write_snapshot(tmp_path, docs, "ndjson")
    first = load_corpus(path)
    second = load_corpus(path)
    ser_a = json.dumps([record_to_dict(r) for r in corpus_records(first)], sort_keys=True)
    ser_b = json.dumps([record_to_dict(r) for r in corpus_records(second)], sort_keys=True)
    assert ser_a == ser_b
    assert first.digest == second.digest


def test_non_object_items_are_counted_and_skipped(tmp_path):
    # CouchDB exports a deleted document as {"doc": null}.
    good = [minimal_doc(name=f"ok{i}") for i in range(2)]
    rows = [{"doc": None}, {"doc": 5}, {"doc": []}, None, 5, 2.5, True, "text", [1, 2]]
    bulk = tmp_path / "snap.json"
    bulk.write_text(json.dumps({"rows": rows + [{"doc": d} for d in good]}))
    lines = ["null", "5", "-2.5", "false", '"text"', "[1, 2]"]
    ndjson = tmp_path / "snap.ndjson"
    ndjson.write_text("\n".join(lines + [json.dumps(d) for d in good]) + "\n")
    for path, bad in ((bulk, len(rows)), (ndjson, len(lines))):
        stats = load_corpus(path).stats
        assert stats.total == stats.parsed + stats.skipped == bad + 2
        assert stats.by_error == {"malformed": bad}


@pytest.mark.parametrize("top", ["null", "5", '"text"', "[null, 1]"])
def test_bulk_export_of_non_objects_is_counted_and_skipped(tmp_path, top):
    path = tmp_path / "snap.json"
    path.write_text(top)
    stats = load_corpus(path, layout="bulk").stats
    assert stats.total == stats.skipped
    assert stats.total >= 1


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


@pytest.mark.parametrize("layout", ["bulk", "ndjson", "dir"])
@given(values=st.lists(JSON_VALUES, max_size=6))
def test_arbitrary_json_values_never_abort_a_load(layout, values):
    # Hypothesis reruns the body per example, so it makes its own directory.
    with tempfile.TemporaryDirectory() as tmp:
        if layout == "bulk":
            path = Path(tmp) / "snap.json"
            path.write_text(json.dumps({"rows": values}))
        elif layout == "ndjson":
            path = Path(tmp) / "snap.ndjson"
            path.write_text("".join(json.dumps(value) + "\n" for value in values))
        else:
            path = Path(tmp) / "snap"
            path.mkdir()
            for idx, value in enumerate(values):
                (path / f"doc{idx}.json").write_text(json.dumps(value))
        stats = load_corpus(path, layout=layout).stats
    assert stats.total == len(values) == stats.parsed + stats.skipped


def record_decodes(monkeypatch) -> list[int]:
    """The length of the text each JSON value decode covers."""
    spans: list[int] = []
    raw_decode = json.JSONDecoder.raw_decode

    def recorded(self, s, idx=0):
        value, end = raw_decode(self, s, idx)
        spans.append(end - idx)
        return value, end

    monkeypatch.setattr(json.JSONDecoder, "raw_decode", recorded)
    return spans


@pytest.mark.parametrize("indent", [None, 2])
def test_bulk_export_is_decoded_one_row_at_a_time(tmp_path, monkeypatch, indent):
    rows = [json.dumps({"id": f"pkg-{i}", "doc": minimal_doc(name=f"pkg-{i}")}, indent=indent) for i in range(5)]
    path = tmp_path / "snap.json"
    path.write_text('{"total_rows": 5, "rows": [\n' + ",\n".join(rows) + "\n]}\n")
    longest_row = max(len(row) for row in rows)
    spans = record_decodes(monkeypatch)
    corpus = load_corpus(path)
    assert len(corpus.names) == 5
    assert spans and max(spans) <= longest_row


def test_one_line_and_pretty_exports_load_the_same_corpus(tmp_path):
    docs = [minimal_doc(name=f"pkg-{i}", contributors=["A <a@x.io>"]) for i in range(5)]
    one_line = write_snapshot(tmp_path, docs, "bulk")
    one_line.write_text(one_line.read_text() + "\n \r\n\t\n")
    pretty = tmp_path / "pretty.json"
    pretty.write_text(json.dumps({"rows": [{"doc": d} for d in docs]}, indent=2))
    forced = load_corpus(one_line, layout="bulk")
    assert len(forced.names) == 5
    for path in (one_line, pretty):
        corpus = load_corpus(path)
        assert [record_to_dict(r) for r in corpus_records(corpus)] == [record_to_dict(r) for r in corpus_records(forced)]
        assert corpus.stats == forced.stats


def test_equal_maintainers_share_one_person(tmp_path):
    person = {"name": "Ann", "email": "ann@x.io"}
    docs = [minimal_doc(name=f"pkg-{i}", maintainers=[dict(person)], contributors=["Bob <bob@y.io>"]) for i in range(3)]
    path = write_snapshot(tmp_path, docs, "ndjson")
    corpus = load_corpus(path)
    loaded = corpus_records(corpus)
    assert list(corpus.maint_ids) == [0, 0, 0]  # one identity, listed by each record
    assert corpus.identity_keys == ("ann@x.io",)
    assert email_domains(corpus) == {"ann@x.io": "x.io"}
    alone = [record_to_dict(parse_record(doc_bytes(doc))) for doc in docs]
    assert [record_to_dict(r) for r in loaded] == alone
    assert alone[0]["maintainers"] == ["ann@x.io"]

    # One email spelled as a string and as an object, in lists that differ, is one key string.
    docs = [
        minimal_doc(name="one", maintainers=["Ann <ann@x.io>"]),
        minimal_doc(name="two", maintainers=["Ann <ann@x.io>", "Cy <cy@z.io>"]),
        minimal_doc(name="three", maintainers=[{"name": "A.", "email": "ANN@x.io"}, {"email": "cy@z.io"}]),
    ]
    corpus = load_corpus(write_snapshot(tmp_path, docs, "ndjson"))
    ann, ann_too, cy, ann_again, cy_too = [key for rec in corpus_records(corpus) for key in rec.maintainers]  # one, three, two
    assert ann == "ann@x.io" and cy == "cy@z.io"
    assert ann is ann_too is ann_again and cy is cy_too
    assert {key: key for key in email_domains(corpus)}["ann@x.io"] is ann

    # A blank email leaves the name to decide, so equal blank emails are not one person.
    docs = [
        minimal_doc(name="one", maintainers=[{"name": "Ann", "email": " "}]),
        minimal_doc(name="two", maintainers=[{"name": "Bob", "email": " "}, {"name": "Cy", "email": ""}]),
    ]
    corpus = load_corpus(write_snapshot(tmp_path, docs, "ndjson"))
    assert corpus.identity_keys == ("name:ann", "name:bob", "name:cy")


def test_records_share_empty_maps_and_equal_strings(tmp_path):
    licenses = ["MIT", "MIT", {"type": "MIT"}]
    scripts = [{}, {"": "x", "test": 1}, "not a map"]
    docs = [minimal_doc(name=f"pkg-{i}", version="2.1.0", license=licenses[i]) for i in range(3)]
    for doc, body in zip(docs, scripts):
        doc["versions"]["2.1.0"].update(scripts=body, dependencies={}, devDependencies=[])
    path = write_snapshot(tmp_path, docs, "ndjson")
    loaded = corpus_records(load_corpus(path, dep_kinds=ALL_KINDS, install_key_pattern=""))
    assert all(r.scripts is ingest._EMPTY_MAP for r in loaded)
    assert ingest._EMPTY_MAP == {}
    assert all(r.dependencies == () and r.has_runtime_dependencies is False for r in loaded)
    assert loaded[0].version is loaded[1].version is loaded[2].version
    alone = [record_to_dict(parse_record(doc_bytes(doc))) for doc in docs]
    assert [record_to_dict(r) for r in loaded] == alone
    assert alone[0]["scripts"] == {} and alone[0]["dependencies"] == []
    assert [d["exclusion_reasons"] for d in alone] == [0] * 3  # each license reads "MIT"


def test_the_loaded_corpus_retains_at_most_200_bytes_per_record(tmp_path):
    # The corpus is position-aligned columns: 186 B per record under Python
    # 3.11, against 372 B with one record object per package holding a
    # tuple of identity-key strings and one of dependency names.
    snapshot = generate(GenerationPlan(seed=1, package_count=5_000)).write_snapshot(
        tmp_path / "snapshot.ndjson", layout="ndjson"
    )
    gc.collect()
    tracemalloc.start()
    try:
        corpus = load_corpus(snapshot)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(type(key) is str for key in corpus.identity_keys)
    assert retained <= 200 * len(corpus.names)


def test_the_load_peaks_at_most_118_bytes_per_record_over_what_it_keeps(tmp_path):
    # 107 B per record under Python 3.11 (188 B when the person cache held
    # each (name, email) spelling and a domain string per email). The
    # layout is given: autodetection first reads a 1 MiB chunk, which sets
    # the peak of a load this small.
    snapshot = generate(GenerationPlan(seed=1, package_count=5_000)).write_snapshot(
        tmp_path / "snapshot.ndjson", layout="ndjson"
    )
    gc.collect()
    tracemalloc.start()
    try:
        corpus = load_corpus(snapshot, layout="ndjson")
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - retained <= 118 * len(corpus.names)


def test_bulk_export_with_trailing_data_still_fails(tmp_path):
    path = write_snapshot(tmp_path, [minimal_doc()], "bulk")
    path.write_text(path.read_text() + "\n{}\n")
    with pytest.raises(json.JSONDecodeError):
        load_corpus(path)


@pytest.mark.parametrize("indent", [None, 2])
def test_bulk_export_with_bom_still_fails(tmp_path, indent):
    path = tmp_path / "snap.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps({"rows": [{"doc": minimal_doc()}]}, indent=indent).encode())
    with pytest.raises(json.JSONDecodeError):
        load_corpus(path)


def test_bulk_export_with_encoded_surrogate_still_fails(tmp_path):
    # json.loads(bytes) accepts a UTF-8-encoded lone surrogate; a strict
    # UTF-8 read of the file does not.
    path = tmp_path / "snap.json"
    doc = json.dumps({"rows": [{"doc": minimal_doc(description="X")}]}).encode()
    path.write_bytes(doc.replace(b'"X"', b'"\xed\xa0\x80"'))
    with pytest.raises(UnicodeDecodeError):
        load_corpus(path)


def test_dependency_names_by_kind():
    tree = minimal_doc()
    tree["versions"]["1.0.0"].update(
        dependencies={"run": "1", "": "2", "run-b": None},
        devDependencies={"dev": "*"},
        peerDependencies=["peer"],
        optionalDependencies={"opt": "^1"},
    )
    assert [parse_record(tree, ingest._Leaves((kind,))).dependencies for kind in ALL_KINDS] == [
        ("run", "run-b"), ("dev",), (), ("opt",)
    ]
    assert parse_record(tree, ingest._Leaves(ALL_KINDS)).dependencies == ("run", "run-b", "dev", "opt")
    with pytest.raises(ValueError, match="unknown dependency kind"):
        ingest._Leaves(("runtime", "bundled"))


def test_load_corpus_rejects_empty_and_unknown_kinds(tmp_path):
    # Before anything is read: the snapshot does not even exist.
    missing = tmp_path / "absent.ndjson"
    with pytest.raises(ValueError, match="nonempty"):
        load_corpus(missing, dep_kinds=())
    with pytest.raises(ValueError, match="unknown dependency kind: build"):
        load_corpus(missing, dep_kinds=("runtime", "build"))
    with pytest.raises(OSError):
        load_corpus(missing, dep_kinds=("runtime", "dev"))


def test_a_self_edge_and_a_repeat_across_kinds_are_dropped():
    tree = minimal_doc(name="self")
    tree["versions"]["1.0.0"].update(
        dependencies={"self": "1", "lib": "1"}, devDependencies={"lib": "2", "self": "3", "tool": "4"}
    )
    assert parse_record(tree, ingest._Leaves(("runtime", "dev"))).dependencies == ("lib", "tool")
    assert parse_record(tree, ingest._Leaves(("dev", "runtime"))).dependencies == ("lib", "tool")
    only_self = minimal_doc(name="self")
    only_self["versions"]["1.0.0"]["dependencies"] = {"self": "1"}
    rec = parse_record(only_self)
    # W6 reads the runtime flag: listing only itself still declares a dependency.
    assert rec.dependencies == () and rec.has_runtime_dependencies is True


def test_records_keep_only_install_scripts():
    tree = minimal_doc()
    tree["versions"]["1.0.0"]["scripts"] = {"test": "jest", "preInstall": "a", "POSTINSTALL": "b", "build": "tsc"}
    assert parse_record(tree).scripts == {"preInstall": "a", "POSTINSTALL": "b"}
    assert parse_record(tree, ingest._Leaves(install_key_pattern="BUILD")).scripts == {"build": "tsc"}
    assert parse_record(tree, ingest._Leaves(install_key_pattern="")).scripts == tree["versions"]["1.0.0"]["scripts"]
    assert parse_record(tree, ingest._Leaves(install_key_pattern="deploy")).scripts is ingest._EMPTY_MAP


# --- the snapshot digest ---------------------------------------------------------


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_ndjson_digest_is_the_sha256_of_the_file(tmp_path):
    path = write_snapshot(tmp_path, [minimal_doc(name=f"pkg-{i}") for i in range(3)], "ndjson")
    assert load_corpus(path).digest == sha256_hex(path.read_bytes())


@pytest.mark.parametrize("indent", [None, 2])
def test_bulk_digest_is_the_sha256_of_the_file(tmp_path, indent):
    path = tmp_path / "snap.json"
    path.write_text(json.dumps({"rows": [{"doc": minimal_doc(name=f"pkg-{i}")} for i in range(3)]}, indent=indent))
    corpus = load_corpus(path)
    assert len(corpus.names) == 3
    assert corpus.digest == sha256_hex(path.read_bytes())


def test_dir_digest_hashes_each_relative_path_and_file_digest(tmp_path):
    path = write_snapshot(tmp_path, [minimal_doc(name=f"pkg-{i}") for i in range(3)], "dir")
    (path / "sub").mkdir()
    (path / "sub" / "deep.json").write_text(json.dumps(minimal_doc(name="deep")))
    (path / "notes.txt").write_text("not a document")
    lines = "".join(
        f"{rel}:{sha256_hex((path / rel).read_bytes())}\n"
        for rel in ("doc0.json", "doc1.json", "doc2.json", "sub/deep.json")
    )
    corpus = load_corpus(path)
    assert len(corpus.names) == 4
    assert corpus.digest == sha256_hex(lines.encode())


@pytest.mark.parametrize("chunk", [3, 1 << 20])
def test_digest_restarts_when_autodetection_rereads_the_file_as_ndjson(tmp_path, monkeypatch, chunk):
    # The bulk reader reads the first document before it finds the file is
    # ndjson; the ndjson read starts again from byte 0.
    monkeypatch.setattr(ingest, "_CHUNK", chunk)
    path = write_snapshot(tmp_path, [minimal_doc(name=f"pkg-{i}") for i in range(3)], "ndjson")
    corpus = load_corpus(path)
    assert len(corpus.names) == 3
    assert corpus.digest == sha256_hex(path.read_bytes())


@pytest.mark.parametrize("chunk", [3, 1 << 20])
@pytest.mark.parametrize("layout", [None, "bulk"])
def test_digest_restarts_when_a_later_rows_key_rereads_the_export(tmp_path, monkeypatch, chunk, layout):
    # The rows of the first "rows" key are handed on before the second key
    # voids them; the reread starts again from byte 0.
    monkeypatch.setattr(ingest, "_CHUNK", chunk)
    first = json.dumps([{"doc": minimal_doc(name="void")}])
    last = json.dumps([{"doc": minimal_doc(name=f"pkg-{i}")} for i in range(2)])
    path = tmp_path / "snap.json"
    path.write_text(f'{{"rows": {first},\n "rows": {last}}}')
    corpus = load_corpus(path, layout=layout)
    assert list(corpus.names) == ["pkg-0", "pkg-1"]
    assert corpus.digest == sha256_hex(path.read_bytes())


@pytest.fixture
def opened(monkeypatch):
    """How often each path is opened, by open() or by a Path method."""
    counts: dict[str, int] = {}
    real = io.open

    def counting(file, *args, **kwargs):
        counts[str(file)] = counts.get(str(file), 0) + 1
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting)
    monkeypatch.setattr(io, "open", counting)
    return counts


@pytest.mark.parametrize("layout", ["ndjson", "bulk"])
def test_a_snapshot_file_is_opened_once(tmp_path, opened, layout):
    path = write_snapshot(tmp_path, [minimal_doc(name=f"pkg-{i}") for i in range(3)], layout)
    opened.clear()
    assert len(load_corpus(path, layout=layout).names) == 3
    assert opened == {str(path): 1}


@pytest.mark.parametrize("layout", [None, "dir"])
def test_each_file_of_a_snapshot_directory_is_opened_once(tmp_path, opened, layout):
    path = write_snapshot(tmp_path, [minimal_doc(name=f"pkg-{i}") for i in range(3)], "dir")
    opened.clear()
    assert len(load_corpus(path, layout=layout).names) == 3
    assert opened == {str(path / f"doc{i}.json"): 1 for i in range(3)}


# --- a first line with more than one value -----------------------------------------


@pytest.mark.parametrize("data", [b"0.", b"12e", b"1 2", b'"a" "b"', b'{"name": "a"} {"name": "b"}'])
def test_first_line_with_more_than_one_value_is_a_bulk_export_that_fails(tmp_path, data):
    # json.load stops after the first value and finds extra data.
    path = tmp_path / "snap.json"
    path.write_bytes(data)
    with open(path, encoding="utf-8") as fh, pytest.raises(json.JSONDecodeError) as expected:
        json.load(fh)
    with pytest.raises(json.JSONDecodeError) as err:
        load_corpus(path)
    assert str(err.value) == str(expected.value)
    assert str(err.value).startswith("Extra data")


# --- parse_record against the two-pass reference ---------------------------------------

JUNK = st.none() | st.booleans() | st.integers(-2, 2) | st.floats(allow_nan=False) | st.text(max_size=3)


def mostly(good, odd):
    """``good`` four times in five, else ``odd``."""
    return st.integers(0, 4).flatmap(lambda n: odd if n == 4 else good)


VERSION_KEYS = st.sampled_from(["1.0.0", "1.10.0", "1.2.0", "2.0.0-beta.1", "0.0.1-security", "9.0.0-security", "v3", "x", ""])
STAMPS = mostly(
    st.sampled_from([T0, "2024-03-05T10:00:00.000Z", "2023-12-31T23:59:59+05:00", "2021-06-01"]),
    JUNK | st.sampled_from(["not a time", "0001-01-01T00:00:00+01:00", "9999-12-31T23:00:00-01:00"]),
)
PERSON = mostly(
    st.sampled_from(["Ann <ann@x.io>", "Plain Name", "solo@z.io", "Bob <bob@y.io> (https://b.example)", " "])
    | st.fixed_dictionaries(
        {},
        optional={
            "name": st.sampled_from(["Ann", " ", "ann@x.io"]) | JUNK,
            "email": st.sampled_from(["ann@x.io", "A@X.IO", "x", "Name:Ann@x.io"]) | JUNK,
        },
    ),
    JUNK,
)
PEOPLE = mostly(st.lists(PERSON, max_size=3), PERSON | JUNK)
MAPS = mostly(
    st.dictionaries(
        st.sampled_from(["left-pad", "", "a", "b", "postinstall", "install", "preInstall", "INSTALL:ci"]),
        st.just("^1.0.0") | JUNK,
        max_size=3,
    ),
    st.lists(st.text(max_size=3), max_size=2) | st.text(max_size=3),
)
REPOSITORY = st.sampled_from(["github:u/r", {"url": "git+https://x/y.git"}, {"type": "git"}, {}, "", None]) | JUNK
LICENSE = JUNK | st.sampled_from(["MIT", " ", {"type": "ISC"}, {"name": "BSD"}, [{"type": "X"}, "MIT"], []])
VERSION = st.fixed_dictionaries(
    {},
    optional={
        "maintainers": PEOPLE,
        "contributors": PEOPLE,
        "scripts": MAPS,
        "dependencies": MAPS,
        "devDependencies": MAPS,
        "peerDependencies": MAPS,
        "optionalDependencies": MAPS,
        "repository": REPOSITORY,
        "license": LICENSE,
        "deprecated": JUNK | st.sampled_from(["old", True]),
        "dist": JUNK | st.fixed_dictionaries({}, optional={"unpackedSize": JUNK, "fileCount": JUNK}),
    },
)


@st.composite
def messy_documents(draw) -> object:
    """A registry document with every field in odd shapes, or now and then no object at all."""
    if draw(st.integers(0, 19)) == 19:
        return draw(JUNK | st.lists(JUNK, max_size=2))
    name = draw(mostly(st.sampled_from(["a", " b ", "@s/c", "security-x"]), JUNK))
    tree = draw(
        st.fixed_dictionaries(
            {"name": st.just(name)},
            optional={
                "description": JUNK | st.sampled_from(["a tool", "Security Holding Package here"]),
                "maintainers": PEOPLE,
                "contributors": PEOPLE,
                "repository": REPOSITORY,
                "license": LICENSE,
            },
        )
    )
    version_values = mostly(VERSION, JUNK | st.lists(JUNK, max_size=2))
    versions = draw(mostly(st.dictionaries(VERSION_KEYS, version_values, min_size=1, max_size=4), JUNK | st.just({})))
    if draw(st.integers(0, 9)) != 9:
        tree["versions"] = versions
    keys = list(versions) if isinstance(versions, dict) else []
    latest = draw(mostly(st.sampled_from(keys), VERSION_KEYS | JUNK) if keys else VERSION_KEYS | JUNK)
    tags = draw(st.sampled_from(["latest"] * 5 + ["absent", "junk", "no_latest"]))
    if tags == "junk":
        tree["dist-tags"] = draw(JUNK | st.lists(JUNK, max_size=2))
    elif tags != "absent":
        tree["dist-tags"] = {"next": "9.9.9"} if tags == "no_latest" else {"latest": latest, "beta": "x"}
    time = draw(st.sampled_from(["map"] * 14 + ["absent", "junk"]))
    if time == "junk":
        tree["time"] = draw(JUNK | st.lists(JUNK, max_size=2))
    elif time == "map":
        stamped = draw(st.lists(st.sampled_from(["created", *keys]), unique=True, max_size=4))
        if draw(st.integers(0, 3)) != 3:
            stamped.insert(draw(st.integers(0, len(stamped))), "modified")
        tree["time"] = {key: draw(STAMPS) for key in stamped}
    return tree


def normalized(parse, item):
    """``parse(item)`` as ``record_to_dict`` spells it, or its exception type and ParseError reason."""
    try:
        return parse(item)
    except ParseError as exc:
        return ParseError, exc.reason
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(tree=messy_documents(), form=st.sampled_from(["tree", "bytes", "text"]))
def test_parse_record_agrees_with_the_two_pass_reference(tree, form):
    if form != "tree":
        tree = json.dumps(tree)
        tree = tree.encode() if form == "bytes" else tree
    assert normalized(lambda item: record_to_dict(parse_record(item)), tree) == normalized(reference_record, tree)


KIND_SETS = [kinds for size in range(1, 5) for kinds in itertools.combinations(ALL_KINDS, size)]


@pytest.mark.parametrize("kinds", KIND_SETS, ids=["+".join(kinds) for kinds in KIND_SETS])
@settings(max_examples=40, deadline=None)
@given(tree=messy_documents())
def test_dependencies_merge_the_scanned_kinds_as_the_reference_does(kinds, tree):
    for order in (kinds, kinds[::-1]):
        got = normalized(lambda item: record_to_dict(parse_record(item, ingest._Leaves(order))), tree)
        assert got == normalized(lambda item: reference_record(item, dep_kinds=order), tree)
        if isinstance(got, dict):
            assert len(set(got["dependencies"])) == len(got["dependencies"])
            assert got["name"] not in got["dependencies"]


@settings(max_examples=200, deadline=None)
@given(tree=messy_documents(), pattern=st.sampled_from(["install", "INSTALL", "Inst", "pre", "", "left"]))
def test_scripts_are_the_reference_install_keys(tree, pattern):
    got = normalized(lambda item: record_to_dict(parse_record(item, ingest._Leaves(install_key_pattern=pattern))), tree)
    assert got == normalized(lambda item: reference_record(item, install_key_pattern=pattern), tree)
    if isinstance(got, dict):
        assert all(pattern.lower() in key.lower() for key in got["scripts"])


@settings(max_examples=100, deadline=None)
@given(trees=st.lists(messy_documents(), max_size=4))
def test_email_domains_are_the_reference_domains_of_the_maintainers(trees):
    # One load's records share maintainer lists; each record's domains count.
    leaves = ingest._Leaves()
    expected = {}
    for tree in trees:
        if isinstance(normalized(lambda item: parse_record(item, leaves), tree), Record):
            expected.update(reference_email_domains(tree))
    assert email_domains(leaves) == expected


# --- exclusion reasons against the reference predicates ---------------------------------


def any_case(texts):
    """Each of ``texts`` with each letter in upper or lower case."""
    return st.sampled_from(texts).flatmap(
        lambda text: st.lists(st.booleans(), min_size=len(text), max_size=len(text)).map(
            lambda upper: "".join(c.upper() if up else c.lower() for c, up in zip(text, upper))
        )
    )


DESCRIPTIONS = any_case(["security holding package", "a Security Holding Package now", "security  holding package",
                         "security-holding package", "package holding security", ""]) | JUNK
LATEST_TAGS = any_case(["1.0.0", "0.0.1-security", "2.0.0-security.1", "1.0.0-securityx", "3.0.0-secure"])
DEPRECATIONS = st.sampled_from([True, False, "", " ", "use x instead"]) | JUNK | st.lists(JUNK, max_size=1)
REPOSITORIES = (
    st.sampled_from(["github:u/r", "", "  ", {"url": "git+https://x/y.git"}, {"url": " "}, {"type": "git"}, {}, None])
    | JUNK
    | st.lists(JUNK, max_size=1)
)
LICENSE_TEXTS = any_case(["MIT", "unlicensed", " UNLICENSED ", "none", "xyz ", "personal use", " n/a", "personal  use"])
LICENSES = (
    LICENSE_TEXTS
    | st.sampled_from(["", "   ", {}, {"type": " "}, [], [" ", None]])
    | st.fixed_dictionaries({}, optional={"type": LICENSE_TEXTS | JUNK, "name": LICENSE_TEXTS | JUNK})
    | st.lists(LICENSE_TEXTS | st.fixed_dictionaries({"type": LICENSE_TEXTS}) | JUNK, max_size=2)
    | JUNK
)
DENYLISTS = st.lists(
    any_case(["UNLICENSED", " none ", "XYZ", "personal use", "n/a", "MIT"]) | st.sampled_from(["", "  "]) | st.text(max_size=3),
    max_size=4,
).map(tuple)


@st.composite
def reason_documents(draw) -> dict:
    """A document that parses, with odd shapes in each field an exclusion reason reads."""
    latest = draw(LATEST_TAGS)
    vobj = draw(st.fixed_dictionaries({}, optional={"deprecated": DEPRECATIONS, "repository": REPOSITORIES, "license": LICENSES}))
    tree = draw(
        st.fixed_dictionaries(
            {"name": st.just("pkg"), "versions": st.just({latest: vobj}), "time": st.just({"modified": T0})},
            optional={"description": DESCRIPTIONS, "repository": REPOSITORIES, "license": LICENSES},
        )
    )
    if draw(st.booleans()):  # else the version is the only one, chosen without a "latest" tag
        tree["dist-tags"] = {"latest": latest}
    return tree


def load_corpus_of(tree: dict, denylist: tuple) -> ingest.Corpus:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snapshot.ndjson"
        path.write_text(json.dumps(tree) + "\n", encoding="utf-8")
        return load_corpus(path, license_denylist=denylist)


@settings(max_examples=400, deadline=None)
@given(tree=reason_documents(), denylist=st.just(()) | st.just(ingest.DEFAULT_LICENSE_DENYLIST) | DENYLISTS)
def test_exclusion_reasons_are_the_reference_predicates(tree, denylist):
    rec = parse_record(tree, ingest._Leaves(license_denylist=denylist))
    assert rec.exclusion_reasons == reference_record(tree, license_denylist=denylist)["exclusion_reasons"]
    assert tuple(corpus_records(load_corpus_of(tree, denylist))) == (rec,)
