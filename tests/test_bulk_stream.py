"""The streamed bulk reader against a whole-tree oracle.

``load_corpus`` decodes a bulk export one row at a time. The oracle below is
the whole-tree reader it replaced: autodetection parses the first line with
``json.loads`` and a bulk export is read with one ``json.load``. For every
generated file both must give the same records and stats, or the same
exception type.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import re
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weaklink import ingest
from weaklink.errors import NoVersionsError, ParseError
from weaklink.ingest import IngestStats, load_corpus

from conftest import corpus_records, parse_record
from ingest_reference import record_to_dict

# --- the oracle: the whole-tree reader --------------------------------------


def _is_bulk_tree(tree: object) -> bool:
    return isinstance(tree, dict) and "rows" in tree and "name" not in tree


def oracle_layout(source: Path) -> str:
    with open(source, "rb") as fh:
        raw = fh.readline()
    try:
        text = raw.decode("utf-8")
        tree = None if text.startswith("\ufeff") else json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError):
        tree = None
    if _is_bulk_tree(tree):
        return "bulk"
    first_line = raw.strip()
    if not first_line:
        return "ndjson"
    try:
        parsed = json.loads(first_line)
    except json.JSONDecodeError:
        return "bulk"
    return "bulk" if _is_bulk_tree(parsed) else "ndjson"


def oracle_items(source: Path, layout: str):
    if layout == "ndjson":
        with open(source, "rb") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    yield line
        return
    with open(source, "r", encoding="utf-8") as fh:
        tree = json.load(fh)
    if isinstance(tree, dict) and isinstance(tree.get("rows"), list):
        for row in tree["rows"]:
            if isinstance(row, dict) and "doc" in row:
                yield row["doc"]
            else:
                yield row
    elif isinstance(tree, list):
        yield from tree
    else:
        yield tree


def oracle_load(source: Path, layout: str | None) -> tuple[list[dict], IngestStats]:
    layout = layout or oracle_layout(source)
    total = skipped = 0
    by_error: dict[str, int] = {}
    records = {}
    for item in oracle_items(source, layout):
        total += 1
        try:
            record = parse_record(item)
        except ParseError as exc:
            reason = exc.reason
        except NoVersionsError:
            reason = "no_versions"
        else:
            if record.name not in records:
                records[record.name] = record
                continue
            reason = "duplicate_name"
        skipped += 1
        by_error[reason] = by_error.get(reason, 0) + 1
    stats = IngestStats(total=total, parsed=total - skipped, skipped=skipped, by_error=by_error)
    # A corpus's record lists only the dependencies in that corpus.
    return [
        record_to_dict(replace(rec, dependencies=tuple(dep for dep in rec.dependencies if dep in records)))
        for rec in map(records.__getitem__, sorted(records))
    ], stats


def outcome(load, *args):
    """The value of ``load(*args)``, or the type of the exception it raised."""
    try:
        return load(*args)
    except (ValueError, OSError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        return type(exc)


def streamed_load(source: Path, layout: str | None) -> tuple[list[dict], IngestStats]:
    corpus = load_corpus(source, layout=layout)
    # However often the reader restarts, the digest is of the file it read.
    assert corpus.digest == hashlib.sha256(source.read_bytes()).hexdigest()
    return [record_to_dict(r) for r in corpus_records(corpus)], corpus.stats


# --- generated exports --------------------------------------------------------

T0 = "2024-01-01T00:00:00.000Z"
MARK = "@@"  # replaced by bytes that are not UTF-8 in some files


def document(name: str, version: str, maintainer: str) -> dict:
    return {
        "name": name,
        "description": f"pkg {MARK} é中😀",
        "dist-tags": {"latest": version},
        "versions": {version: {"dependencies": {"left-pad": "^1.0.0"}, "scripts": {"test": "x"}}},
        "maintainers": [{"name": maintainer, "email": f"{maintainer}@ex.io"}],
        "time": {"created": T0, "modified": T0},
    }


SCALARS = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
DOCUMENTS = st.builds(
    document,
    st.sampled_from(["a", "b", "@s/c", "dé"]),
    st.sampled_from(["1.0.0", "2.0.0-beta.1", "0.0.1-security"]),
    st.sampled_from(["ann", "bob"]),
)
ITEMS = st.one_of(DOCUMENTS, JSON_VALUES)
ROWS = st.lists(
    st.one_of(
        ITEMS.map(lambda doc: {"id": "x", "doc": doc}),
        ITEMS.map(lambda doc: {"doc": doc, "value": {"rev": "1-a"}}),
        ITEMS,
    ),
    max_size=5,
)


@st.composite
def top_level(draw) -> tuple[str, object]:
    """("members", [(key, value), ...]) for an object, which may repeat a key, or ("value", v)."""
    shape = draw(st.sampled_from(["rows", "rows+extra", "dup_rows", "name_after_rows", "rows_not_list", "doc", "list", "scalar"]))
    if shape == "rows":
        return "members", [("rows", draw(ROWS))]
    if shape == "rows+extra":
        members = [("total_rows", 3), ("rows", draw(ROWS))]
        return "members", draw(st.permutations(members + [("offset", 0)]))
    if shape == "dup_rows":
        values = draw(st.lists(ROWS | SCALARS, min_size=2, max_size=3))
        return "members", [("rows", v) for v in values] + draw(st.sampled_from([[], [("total_rows", 1)]]))
    if shape == "name_after_rows":
        doc = draw(DOCUMENTS)
        return "members", [("rows", draw(ROWS))] + list(doc.items())
    if shape == "rows_not_list":
        doc = draw(DOCUMENTS) if draw(st.booleans()) else {}
        return "members", list(doc.items()) + [("rows", draw(SCALARS | st.dictionaries(st.text(max_size=3), SCALARS)))]
    if shape == "doc":
        return "members", list(draw(DOCUMENTS).items())
    if shape == "list":
        return "value", draw(st.lists(ITEMS, max_size=4))
    return "value", draw(SCALARS)


def render(top: tuple[str, object], style: str, ensure_ascii: bool) -> str:
    kind, body = top
    if style == "pretty":
        dump = lambda v: json.dumps(v, indent=2, ensure_ascii=ensure_ascii)  # noqa: E731
        if kind == "value":
            return dump(body)
        inner = ",\n".join(f"  {dump(k)}: {dump(v)}".replace("\n", "\n  ") for k, v in body)
        return "{\n" + inner + "\n}" if body else "{}"
    item_sep, key_sep = (",", ":") if style == "compact" else (", ", ": ")
    dump = lambda v: json.dumps(v, separators=(item_sep, key_sep), ensure_ascii=ensure_ascii)  # noqa: E731
    if kind == "value":
        return dump(body)
    return "{" + item_sep.join(dump(k) + key_sep + dump(v) for k, v in body) + "}"


def ndjson_text(docs: list[object], ensure_ascii: bool) -> str:
    return "".join(json.dumps(doc, ensure_ascii=ensure_ascii) + "\n" for doc in docs)


# Changes to the file's bytes: the shapes autodetection and a strict read
# disagree on, errors, and whitespace around the first line.
DAMAGE = {
    "none": lambda b: b,
    "trailing_data": lambda b: b + b"\n{}\n",
    "bom": lambda b: b"\xef\xbb\xbf" + b,
    "space_bom": lambda b: b" \xef\xbb\xbf" + b,
    "surrogate": lambda b: b.replace(MARK.encode(), b"\xed\xa0\x80", 1),
    "invalid_utf8": lambda b: b.replace(MARK.encode(), b"\xff", 1),
    "truncated": lambda b: b[: len(b) * 2 // 3],
    "blank_first_line": lambda b: b" \r\n" + b,
    "form_feed_first": lambda b: b"\x0c" + b,
    "form_feed_end_of_line": lambda b: b.replace(b"\n", b"\x0c\n", 1) if b"\n" in b else b + b"\x0c",
    "whitespace_tail": lambda b: b + b"\n \r\n\t\n",
    # json.loads reads bytes like these as UTF-16 or UTF-32.
    "utf_16": lambda b: b.decode("utf-8").encode("utf-16"),
    "utf_16_le": lambda b: b.decode("utf-8").encode("utf-16-le"),
    "nul_second": lambda b: b[:1] + b"\x00" + b[1:],
}


def first_line_example(text: str):
    """An example whose file is ``text`` itself, autodetected: the "raw" style writes ``lines`` verbatim."""
    return example(
        top=("value", None), lines=[text], style="raw", ensure_ascii=True, damage="none", chunk=1 << 20, forced=False
    )


# First lines that hold more than one value: json.load fails with "Extra data".
@first_line_example("0.")
@first_line_example("12e")
@first_line_example("1 2")
@first_line_example('"a" "b"')
@first_line_example('{"name": "a"} {"name": "b"}')
@settings(max_examples=400, deadline=None)
@given(
    top=top_level(),
    lines=st.lists(ITEMS, max_size=3),
    style=st.sampled_from(["pretty", "compact", "one-line", "ndjson"]),
    ensure_ascii=st.booleans(),
    damage=st.sampled_from(sorted(DAMAGE)),
    chunk=st.sampled_from([1, 2, 3, 5, 7, 13, 64, 1 << 20]),
    forced=st.booleans(),
)
def test_streamed_load_matches_whole_tree_oracle(top, lines, style, ensure_ascii, damage, chunk, forced):
    if style == "raw":
        text = "".join(lines)
    elif style == "ndjson":
        text = ndjson_text(lines, ensure_ascii)
    else:
        text = render(top, style, ensure_ascii)
    data = DAMAGE[damage](text.encode("utf-8"))
    layout = "bulk" if forced else None
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(ingest, "_CHUNK", chunk):
        path = Path(tmp) / "snap.json"
        path.write_bytes(data)
        assert outcome(streamed_load, path, layout) == outcome(oracle_load, path, layout)


def test_contract_shapes_by_hand():
    # The shapes the streamed reader must reproduce, with their verdicts and item counts.
    cases = {
        b'{"rows": [{"doc": 1}], "rows": [2, 3]}': ("bulk", 2),
        b'{"rows": [], "name": "x"}': ("ndjson", 1),
        b'{"rows": 5}': ("bulk", 1),
        b"[1, 2]": ("ndjson", 1),
        b"[1,\n 2]": ("bulk", 2),
        b"7": ("ndjson", 1),
        # A byte that is not UTF-8 after the first line spoils only its own line.
        b'{"name": "a"}\n{"name": "\xff"}\n': ("ndjson", 2),
        b'7\n{"\xc2': ("ndjson", 2),
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snap.json"
        for data, (layout, total) in cases.items():
            path.write_bytes(data)
            assert oracle_layout(path) == layout, data
            assert streamed_load(path, None) == oracle_load(path, None), data
            assert load_corpus(path).stats.total == total, data
        for data, error in (
            (b'{"rows": []}\n{}\n', json.JSONDecodeError),
            (b'\xef\xbb\xbf{"rows": []}', json.JSONDecodeError),
            (b'{"rows": [{"doc": "\xed\xa0\x80"}]}', UnicodeDecodeError),
            (b'{"rows": [\n{"doc": 1}\xff]}', UnicodeDecodeError),
            (b'{"rows": [\n{"doc": 1}]}\xff', UnicodeDecodeError),
        ):
            path.write_bytes(data)
            assert outcome(streamed_load, path, None) is outcome(oracle_load, path, None) is error, data


def test_error_names_the_line_and_column_of_the_whole_file(tmp_path):
    path = tmp_path / "snap.json"
    path.write_text('{"rows": [\n  {"doc": 1},\n  {"doc": 2} x\n]}\n')
    with open(path, encoding="utf-8") as fh:
        try:
            json.load(fh)
        except json.JSONDecodeError as exc:
            expected = str(exc)
    with mock.patch.object(ingest, "_CHUNK", 4):
        try:
            load_corpus(path)
        except json.JSONDecodeError as exc:
            assert str(exc) == expected
        else:
            raise AssertionError("no error")


def test_syntax_error_does_not_grow_the_buffer(tmp_path, monkeypatch):
    path = tmp_path / "snap.json"
    rows = ", ".join(json.dumps({"doc": {"name": f"p{i}"}}) for i in range(2000))
    path.write_text('{"rows": [{"doc": 1 x}, ' + rows + "]}")
    sizes = []
    fill = ingest._JsonText.fill

    def recorded(self):
        fill(self)
        sizes.append(len(self.buf))

    monkeypatch.setattr(ingest._JsonText, "fill", recorded)
    monkeypatch.setattr(ingest, "_CHUNK", 64)
    with pytest.raises(json.JSONDecodeError, match="Expecting ',' delimiter"):
        load_corpus(path)
    assert max(sizes) <= 4 * 64


def test_long_row_is_decoded_a_bounded_number_of_times(tmp_path, monkeypatch):
    path = tmp_path / "snap.json"
    path.write_text(json.dumps({"rows": [{"doc": {"name": "big", "description": "x" * 200_000}}, {"doc": 2}]}))
    attempts = []
    raw_decode = json.JSONDecoder.raw_decode

    def counted(self, s, idx=0):
        attempts.append(idx)
        return raw_decode(self, s, idx)

    monkeypatch.setattr(json.JSONDecoder, "raw_decode", counted)
    monkeypatch.setattr(ingest, "_CHUNK", 64)
    assert load_corpus(path).stats.total == 2
    # The buffer at least doubles between attempts: about log2(200000 / 64).
    assert len(attempts) <= 20


# --- a bulk export read in ranges ---------------------------------------------


def candidate_cuts(path: Path) -> list[int]:
    """Every byte offset of ``path`` that a split read may cut at."""
    with open(path, "rb") as fh:
        data = fh.read()
        return [m.end() - 1 for m in ingest._CUT_RE.finditer(data) if ingest._is_row_at(fh, m.end() - 1)]


def split_outcome(path: Path, layout: str | None, cuts: list[int] | None, map_ranges=map):
    """``load_corpus`` read in one range (``cuts`` None), or cut at ``cuts`` with the ranges read by ``map_ranges``.

    The corpus, or the type and message of the exception it raised. Both
    reads decode from the same stack depth. ``cuts`` are line ends for the
    ``ndjson`` layout, and else where rows of a bulk export start.
    """
    with (
        mock.patch.object(ingest, "_MIN_RANGE_BYTES", 1),
        mock.patch.object(ingest, "_cuts" if layout == "ndjson" else "_row_cuts", lambda source, size, n: cuts),
        mock.patch.object(ingest, "_workers", lambda n: contextlib.nullcontext(map_ranges)),
    ):
        try:
            return load_corpus(path, layout=layout, jobs=1 if cuts is None else 2)
        except (ValueError, RecursionError) as exc:
            return type(exc), str(exc)


# Row-like objects that are no rows: the cuts a split read must refuse. The
# text holds row-like objects too, which are cut candidates only where its
# quotes are not escaped.
DECOY_ROWS = [{"doc": 1}, {"doc": {"name": "a"}}, {"name": "z", "versions": {}}]
DECOY_TEXT = 'see ,{"doc": {"name": "z", "versions": {}}} and , {"name": "q", "versions": {}}'


@st.composite
def split_rows(draw) -> object:
    doc = draw(DOCUMENTS)
    decoy = draw(st.sampled_from(["none", "nested", "string"]))
    if decoy == "nested":
        doc["dependents"] = DECOY_ROWS
    elif decoy == "string":
        doc["readme"] = DECOY_TEXT
    kind = draw(st.sampled_from(["doc", "doc_last", "bare", "malformed", "value"]))
    if kind == "doc":
        return {"id": doc["name"], "doc": doc}
    if kind == "doc_last":
        return {"id": doc["name"], "value": {"rev": "1-a"}, "doc": doc}
    if kind == "bare":
        return doc
    if kind == "malformed":
        return {"doc": draw(JSON_VALUES | st.just({"name": doc["name"]}))}
    return draw(JSON_VALUES)


@st.composite
def split_exports(draw) -> str:
    """A bulk export's text: few names, so duplicates fall in different ranges; rows with decoys among them."""
    rows = draw(st.lists(split_rows(), min_size=1, max_size=6))
    shape = draw(st.sampled_from(["rows", "rows+extra", "second_rows", "list"]))
    if shape == "rows":
        top = ("members", [("rows", rows)])
    elif shape == "rows+extra":
        top = ("members", [("total_rows", len(rows)), ("rows", rows), ("offset", 0)])
    elif shape == "second_rows":
        top = ("members", [("rows", rows), ("rows", draw(st.lists(split_rows(), max_size=3)))])
    else:
        top = ("value", rows)
    return render(top, draw(st.sampled_from(["pretty", "compact", "one-line"])), draw(st.booleans()))


def replace_nth(data: bytes, old: bytes, new: bytes, n: int) -> bytes:
    parts = data.split(old)
    if len(parts) == 1:
        return data
    n %= len(parts) - 1
    return old.join(parts[: n + 1]) + new + old.join(parts[n + 1 :])


SPLIT_DAMAGE = {
    "none": lambda b, n: b,
    # Quotes left unescaped make a string's text a row-like object.
    "unescaped": lambda b, n: b.replace(b'\\"', b'"'),
    "trailing_data": lambda b, n: b + b"\n{}\n",
    "truncated": lambda b, n: b[: len(b) * (n + 1) // 10],
    "invalid_utf8": lambda b, n: replace_nth(b, MARK.encode(), b"\xff", n),
    "surrogate": lambda b, n: replace_nth(b, MARK.encode(), b"\xed\xa0\x80", n),
    # A one-line export's first line ends between rows that may be folded.
    "line_break": lambda b, n: replace_nth(b, b", {", b",\n{", n),
}


# The first line ends inside the folded range, beyond what the reader has
# decoded at the cut: the read is a bulk export's, not an ndjson one's.
@example(
    text=render(("value", [{"doc": document(name, "1.0.0", "ann")} for name in "abc"]), "one-line", False),
    damage="line_break",
    at=1,
    chunk=61,
    forced=False,
)
@settings(max_examples=150, deadline=None)
@given(
    text=split_exports(),
    damage=st.sampled_from(sorted(SPLIT_DAMAGE)),
    at=st.integers(0, 8),
    chunk=st.sampled_from([2, 7, 61, 1 << 20]),
    forced=st.booleans(),
)
def test_a_split_read_gives_what_one_read_gives(text, damage, at, chunk, forced):
    # Cut at each candidate alone, and at all of them: nested decoys, rows
    # after bytes that are not UTF-8, rows a second "rows" key voids, and
    # one-line exports whose layout is settled only at their end among them.
    data = SPLIT_DAMAGE[damage](text.encode("utf-8"), at)
    layout = "bulk" if forced else None
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(ingest, "_CHUNK", chunk):
        path = Path(tmp) / "snap.json"
        path.write_bytes(data)
        cuts = candidate_cuts(path)
        whole = split_outcome(path, layout, None)
        for split in [[cut] for cut in cuts] + ([cuts] if len(cuts) > 1 else []):
            assert split_outcome(path, layout, split) == whole, split


def accepted_cuts(caplog) -> list[tuple[int, int]]:
    """The accepted and the tried cuts of each split read logged so far."""
    found = [re.search(r"(\d+) of (\d+) cuts accepted", r.getMessage()) for r in caplog.records]
    return [(int(m[1]), int(m[2])) for m in found if m]


@pytest.mark.parametrize("style", ["pretty", "compact", "one-line"])
def test_a_split_read_folds_at_each_row_and_at_no_decoy(tmp_path, caplog, style):
    rows = [{"id": f"p{i}", "doc": dict(document(f"p{i}", "1.0.0", "ann"), dependents=DECOY_ROWS)} for i in range(5)]
    path = tmp_path / "snap.json"
    path.write_text(render(("members", [("total_rows", 5), ("rows", rows)]), style, False), encoding="utf-8")
    data = path.read_bytes()
    key = b'"id":"p%d"' if style == "compact" else b'"id": "p%d"'
    rows_at = [data.rindex(b"{", 0, data.index(key % i)) for i in range(1, 5)]
    cuts = candidate_cuts(path)
    assert set(rows_at) < set(cuts)  # the decoys are candidates too
    whole = split_outcome(path, None, None)
    caplog.set_level(logging.DEBUG, logger="weaklink.ingest")
    for cut in cuts:
        caplog.clear()
        assert split_outcome(path, None, [cut]) == whole
        assert accepted_cuts(caplog) == [(int(cut in rows_at), 1)], cut
    caplog.clear()
    assert split_outcome(path, None, rows_at) == whole
    assert accepted_cuts(caplog) == [(4, 4)]
    caplog.clear()
    # Cut at every candidate, the first range ends inside a row: its rows are read here.
    assert split_outcome(path, None, cuts) == whole
    assert accepted_cuts(caplog) == [(0, len(cuts))]


def deep_snapshot(path: Path, layout: str, depth: int, as_string: bool) -> list[int]:
    """A snapshot whose last document nests ``depth`` levels, or in a bulk export is JSON text that does; where its documents after the first start."""
    doc = json.dumps(document("deep", "1.0.0", "ann"))
    doc = doc[:-1] + ', "x": ' + "[" * (depth - 1) + "]" * (depth - 1) + "}"
    if layout == "ndjson":
        rows = [json.dumps(document(name, "1.0.0", "ann")) for name in ("a", "b")] + [doc]
        text, sep, end = "", "\n", "\n"
    else:
        rows = [json.dumps({"id": name, "doc": document(name, "1.0.0", "ann")}) for name in ("a", "b")]
        rows.append(json.dumps(doc) if as_string else '{"id": "deep", "doc": ' + doc + "}")
        text, sep, end = '{"rows": [', ", ", "]}\n"
    text += rows[0]
    starts = []
    for row in rows[1:]:
        text += sep
        starts.append(len(text))
        text += row
    path.write_text(text + end, encoding="utf-8")
    return starts


def deepest_read(path: Path, layout: str, as_string: bool) -> int:
    """The deepest document of ``deep_snapshot`` that one read reads."""
    low, high = 1, 2 * sys.getrecursionlimit()
    while high - low > 1:
        mid = (low + high) // 2
        deep_snapshot(path, layout, mid, as_string)
        result = split_outcome(path, layout, None)
        low, high = (mid, high) if isinstance(result, ingest.Corpus) and result.stats.skipped == 0 else (low, mid)
    return low


@pytest.mark.parametrize(
    "layout,as_string",
    [
        pytest.param("bulk", False, id="nested-row"),
        pytest.param("bulk", True, id="row-of-json-text"),
        pytest.param("ndjson", False, id="ndjson-line"),
    ],
)
@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_worker_processes_decode_rows_no_deeper_than_one_read(tmp_path, caplog, method, layout, as_string):
    # A worker's stack is shallower than the scan's, so it must lower its
    # recursion limit to fail where one read fails: a nested row is fatal,
    # and a row of JSON text or an ndjson line is skipped as malformed, at
    # the same depth. The cut puts the deep document in the worker's range.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    path = tmp_path / "snap.json"
    limit = sys.getrecursionlimit()
    deepest = deepest_read(path, layout, as_string)
    caplog.set_level(logging.DEBUG, logger="weaklink.ingest")
    read = []
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context(method)) as pool:
        for depth in sorted({*range(limit - 30, limit + 1), *range(deepest - 3, deepest + 4)}):
            starts = deep_snapshot(path, layout, depth, as_string)
            caplog.clear()
            whole = split_outcome(path, layout, None)
            assert split_outcome(path, layout, starts[:1], pool.map) == whole, depth
            read.append(isinstance(whole, ingest.Corpus) and whole.stats.skipped == 0)
            # A row of JSON text, or a line, is a document whatever it holds: the worker reads it.
            assert accepted_cuts(caplog) == [(int(read[-1] or as_string or layout == "ndjson"), 1)], depth
    assert True in read and False in read
    assert sys.getrecursionlimit() == limit


@pytest.mark.parametrize("style", ["pretty", "one-line"])
@pytest.mark.parametrize(
    "damage,error,accepted",
    [
        ("invalid_utf8", UnicodeDecodeError, 1),
        ("surrogate", UnicodeDecodeError, 1),
        ("truncated", json.JSONDecodeError, 1),
        ("trailing_data", json.JSONDecodeError, 2),
    ],
)
def test_an_error_after_a_fold_starts_the_read_over_in_one_range(tmp_path, monkeypatch, caplog, style, damage, error, accepted):
    # Cut at the second and the fourth row: the range between them is
    # folded. The damage falls in the last range, which the reader then
    # reads itself, or after the rows; either way the reader fails past a
    # fold, and reads again in one range to fail as one read fails. Small
    # reads, so that the reader has not decoded the damage at the first cut.
    monkeypatch.setattr(ingest, "_CHUNK", 61)
    rows = [{"id": f"p{i}", "doc": document(f"p{i}", "1.0.0", "ann")} for i in range(5)]
    path = tmp_path / "snap.json"
    data = render(("members", [("rows", rows)]), style, False).encode("utf-8")
    cuts = [data.rindex(b"{", 0, data.index(b'"id": "p%d"' % i)) for i in (1, 3)]
    path.write_bytes(SPLIT_DAMAGE[damage](data, 8))
    whole = split_outcome(path, None, None)
    assert whole[0] is error
    caplog.set_level(logging.DEBUG, logger="weaklink.ingest")
    assert split_outcome(path, None, cuts) == whole
    assert accepted_cuts(caplog) == [(accepted, 2)]
    assert any("starts over in one range" in record.getMessage() for record in caplog.records)
