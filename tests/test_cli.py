"""CLI behavior: exit codes, report files, determinism, diff, config."""

from __future__ import annotations

import gc
import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import weaklink
from weaklink import cli, ingest
from weaklink.cli import main
from weaklink.pipeline import ScanOptions, read_findings, run_scan


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("corpus")
    rc = main(["gen", "--seed", "7", "--packages", "1000", "--out", str(tmp)])
    assert rc == 0
    return tmp


def scan_args(corpus_dir, out, extra=()):
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    return [
        "scan",
        "--input",
        str(corpus_dir / "snapshot.ndjson"),
        "--out",
        str(out),
        "--domains-fixture",
        str(corpus_dir / "domains_fixture.jsonl"),
        "--downloads-fixture",
        str(corpus_dir / "downloads_fixture.jsonl"),
        "--popular-n",
        str(manifest["counts"]["popular_n"]),
        *extra,
    ]


def test_gen_writes_all_outputs(corpus_dir):
    for name in ("snapshot.ndjson", "manifest.json", "domains_fixture.jsonl", "downloads_fixture.jsonl"):
        assert (corpus_dir / name).exists()


def test_gen_rejects_zero_packages(tmp_path):
    assert main(["gen", "--packages", "0", "--out", str(tmp_path)]) == 1


def test_gen_plan_file_overrides(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({"install_script_rate": 0.05}))
    out = tmp_path / "custom"
    assert main(["gen", "--seed", "3", "--packages", "800", "--out", str(out), "--plan", str(plan_file)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["plan"]["install_script_rate"] == 0.05
    expected = round(0.05 * manifest["counts"]["retained"])
    assert len(manifest["signals"]["W2"]["packages"]) == expected

    bad = tmp_path / "bad.json"
    for plan in (
        b'{"no_such_knob": 1}',
        b"[1]",
        b'{"inactive_rate": "high"}',
        b'{"expired_maintainers": 2.5}',
        b'{"mean_maintainers": 1e400}',
        b'{"mean_maintainers": 1' + b"0" * 400 + b"}",
        b'{"expired_maintainers": "12"}',
        b'{"malicious_scripts": true}',
        b'{"inactive_rate": false}',
        b'{"inactive_rate": "\xff"}',
        b"[" * 100_000,
    ):
        bad.write_bytes(plan)
        assert main(["gen", "--out", str(tmp_path / "x"), "--plan", str(bad)]) == 1, plan
        assert capsys.readouterr().err.startswith("error: "), plan
    assert not (tmp_path / "x").exists()


def test_gen_same_seed_identical_manifest(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["gen", "--seed", "5", "--packages", "600", "--out", str(a)]) == 0
    assert main(["gen", "--seed", "5", "--packages", "600", "--out", str(b)]) == 0
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    assert (a / "snapshot.ndjson").read_bytes() == (b / "snapshot.ndjson").read_bytes()


def test_scan_outputs_and_rerun_byte_identical(corpus_dir, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(scan_args(corpus_dir, out1)) == 0
    assert main(scan_args(corpus_dir, out2)) == 0
    for name in ("summary.json", "findings.jsonl", "exclusions.jsonl", "combinations.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_verbose_scan_logs_on_stderr_and_writes_the_same_reports(corpus_dir, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(weaklink.__file__).resolve().parent.parent)}
    runs = {}
    for label, extra in (("default", ()), ("verbose", ("-v",))):
        command = [sys.executable, "-m", "weaklink.cli", *scan_args(corpus_dir, tmp_path / label, extra)]
        runs[label] = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
        assert runs[label].returncode == 0, runs[label].stderr
    assert runs["default"].stderr == ""
    assert re.search(r"^INFO weaklink\.ingest: ingested \d+/\d+ documents", runs["verbose"].stderr, re.M)
    assert "INFO" not in runs["verbose"].stdout
    for name in ("summary.json", "findings.jsonl", "exclusions.jsonl", "combinations.json"):
        assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "verbose" / name).read_bytes(), name


def test_scan_missing_input_is_fatal(tmp_path):
    rc = main(["scan", "--input", str(tmp_path / "nope.ndjson"), "--out", str(tmp_path / "out")])
    assert rc == 1


def test_scan_bad_config_is_fatal(corpus_dir, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"top_percent": 200}')
    rc = main(scan_args(corpus_dir, tmp_path / "out", extra=["--config", str(cfg)]))
    assert rc == 1


@pytest.mark.parametrize("text", ["[]", '"top_percent"', "5", "null"])
def test_scan_config_that_is_not_an_object_is_fatal(corpus_dir, tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    rc = main(scan_args(corpus_dir, tmp_path / "out", extra=["--config", str(cfg)]))
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: config must be a JSON object")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config",
    [
        {"suspicious_tokens": "curl"},
        {"license_denylist": "NONE"},
        {"suspicious_tokens": ["curl", 7]},
        {"license_denylist": {"NONE": True}},
        {"suspicious_tokens": None},
    ],
)
def test_scan_config_token_and_license_lists_must_be_lists_of_strings(corpus_dir, tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = main(scan_args(corpus_dir, tmp_path / "out", extra=["--config", str(cfg)]))
    assert rc == 1
    (key,) = config
    assert capsys.readouterr().err.startswith(f"error: {key} must be a list of strings")


@pytest.mark.parametrize(
    "config,extra",
    [
        ('{"inactivity_days": null}', []),
        ('{"top_percent": [1]}', []),
        ('{"inactivity_days": 1e400}', []),
        ('{"install_key_pattern": null}', []),
        ('{"inactivity_days": 1000000000}', []),
        ('{"reference_time": 0}', []),
        ("{}", ["--inactivity-years", "inf"]),
        ("{}", ["--inactivity-years", "1e307"]),
        ('{"install_key_pattern": " "}', []),
        ('{"suspicious_tokens": ["curl", ""]}', []),
        ('{"suspicious_tokens": ["  "]}', []),
    ],
    ids=[
        "days_null",
        "percent_list",
        "days_overflow",
        "pattern_null",
        "days_beyond_timedelta",
        "time_zero",
        "years_inf",
        "years_overflow",
        "pattern_blank",
        "token_empty",
        "token_blank",
    ],
)
def test_scan_config_values_are_type_checked(corpus_dir, tmp_path, capsys, config, extra):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    rc = main(scan_args(corpus_dir, tmp_path / "out", extra=["--config", str(cfg), *extra]))
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_parser_defaults_are_the_scan_option_defaults(monkeypatch, capsys):
    seen = []

    def capture(options):
        seen.append(options)
        raise ValueError("captured")

    monkeypatch.setattr(cli, "run_scan", capture)
    assert main(["scan", "--input", "snapshot.ndjson"]) == 1
    assert capsys.readouterr().err == "error: captured\n"
    assert seen == [ScanOptions(input_path="snapshot.ndjson")]


def test_scan_config_file_and_flag_overrides(corpus_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"top_percent": 5.0, "inactivity_days": 365}))
    out = tmp_path / "out"
    rc = main(scan_args(corpus_dir, out, extra=["--config", str(cfg), "--inactivity-years", "3"]))
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["top_percent"] == 5.0
    assert summary["config"]["inactivity_days"] == 1095  # flag wins over file


def test_summary_counts_recompute_from_findings_file(corpus_dir, tmp_path):
    out = tmp_path / "out"
    assert main(scan_args(corpus_dir, out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    _header, lines = read_findings(out / "findings.jsonl")
    findings = [json.loads(line) for line in lines]
    by_signal: dict[str, list[dict]] = {}
    for f in findings:
        by_signal.setdefault(f["signal"], []).append(f)
    for signal, entry in summary["signals"].items():
        got = by_signal.get(signal, [])
        assert entry["findings"] == len(got), signal
        assert entry["package_subjects"] == len({f["subject_id"] for f in got if f["subject_kind"] == "package"})
        if entry["population"]:
            subjects = (
                len({f["subject_id"] for f in got if f["subject_kind"] == "maintainer"})
                if signal == "W6"
                else len({f["subject_id"] for f in got if f["subject_kind"] == "package"})
            )
            assert entry["rate"] == subjects / entry["population"]
    # Exclusion partition check against the exclusions file.
    verdicts = [json.loads(line) for line in (out / "exclusions.jsonl").read_text().splitlines()]
    excluded = sum(1 for v in verdicts if v["excluded"])
    assert summary["corpus"]["excluded"]["total"] == excluded
    assert summary["corpus"]["filtered"] + excluded == summary["corpus"]["parsed"]


def test_unsafe_full_output_writes_member_files(corpus_dir, tmp_path):
    out = tmp_path / "full"
    assert main(scan_args(corpus_dir, out, extra=["--unsafe-full-output"])) == 0
    assert (out / "combination_members.jsonl").exists()
    assert (out / "popular_members.jsonl").exists()
    # Default scan does not write them.
    out2 = tmp_path / "capped"
    assert main(scan_args(corpus_dir, out2)) == 0
    assert not (out2 / "combination_members.jsonl").exists()


def test_diff_identical_and_changed(corpus_dir, tmp_path, capsys):
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert main(scan_args(corpus_dir, out1)) == 0
    assert main(scan_args(corpus_dir, out2)) == 0
    capsys.readouterr()  # drain the scans' path listings
    assert main(["diff", str(out1 / "findings.jsonl"), str(out2 / "findings.jsonl")]) == 0
    assert capsys.readouterr().out == ""

    # Drop one finding line: the diff reports exactly one removal.
    lines = (out2 / "findings.jsonl").read_text().splitlines()
    (out2 / "findings.jsonl").write_text("\n".join(lines[:-1]) + "\n")
    capsys.readouterr()
    assert main(["diff", str(out1 / "findings.jsonl"), str(out2 / "findings.jsonl")]) == 0
    output = capsys.readouterr().out.strip().splitlines()
    assert len(output) == 1
    assert output[0].startswith("- ")


def test_diff_two_snapshot_scenario(corpus_dir, tmp_path, capsys):
    # Before/after narrative: one quiet package gains an install script; the
    # findings diff is exactly the predicted one-line delta.
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    flagged = set()
    for entry in manifest["signals"].values():
        flagged |= set(entry.get("packages", ()))
    flagged |= set(manifest["popular"]["members"])

    docs = [json.loads(line) for line in (corpus_dir / "snapshot.ndjson").read_text().splitlines()]
    target = next(
        d for d in docs if d["name"] not in flagged and d["name"] not in manifest["exclusions"]["excluded"]
    )
    latest = target.get("dist-tags", {}).get("latest") or max(target["versions"])
    target["versions"][latest].setdefault("scripts", {})["postinstall"] = "node added-later.js"
    after = tmp_path / "after.ndjson"
    after.write_text("\n".join(json.dumps(d) for d in docs) + "\n")

    out1, out2 = tmp_path / "before", tmp_path / "afterscan"
    assert main(scan_args(corpus_dir, out1)) == 0
    args = scan_args(corpus_dir, out2)
    args[args.index(str(corpus_dir / "snapshot.ndjson"))] = str(after)
    assert main(args) == 0
    capsys.readouterr()

    assert main(["diff", str(out1 / "findings.jsonl"), str(out2 / "findings.jsonl")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    added = json.loads(lines[0].removeprefix("+ "))
    assert added["signal"] == "W2"
    assert added["subject_id"] == target["name"]


def test_findings_subjects_exist_in_filtered_corpus(corpus_dir, tmp_path):
    out = tmp_path / "subjects"
    assert main(scan_args(corpus_dir, out)) == 0
    verdicts = [json.loads(line) for line in (out / "exclusions.jsonl").read_text().splitlines()]
    retained = {v["package_id"].rsplit("@", 1)[0] for v in verdicts if not v["excluded"]}
    _header, lines = read_findings(out / "findings.jsonl")
    for raw in lines:
        f = json.loads(raw)
        if f["subject_kind"] == "package":
            assert f["subject_id"] in retained


def test_diff_schema_mismatch(tmp_path, corpus_dir, capsys):
    out = tmp_path / "d"
    assert main(scan_args(corpus_dir, out)) == 0
    mangled = tmp_path / "mangled.jsonl"
    lines = (out / "findings.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    header["schema_version"] = 999
    mangled.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    assert main(["diff", str(out / "findings.jsonl"), str(mangled)]) == 1


@pytest.mark.parametrize("header", ["[1]", "null", '"x"', "[" * 100_000 + "]" * 100_000], ids=["list", "null", "string", "deep"])
def test_diff_of_a_header_that_is_not_an_object_is_an_error(tmp_path, capsys, header):
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    old.write_text('{"kind": "header", "schema_version": 1}\n')
    new.write_text(header + "\n")
    assert main(["diff", str(old), str(new)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_scan_live_stub_down_degrades_to_exit_2(corpus_dir, tmp_path):
    # Live downloads against a dead local endpoint (connection refused):
    # the scan completes, downloads come back unknown, exit code is 2.
    out = tmp_path / "degraded"
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    rc = main(
        [
            "scan",
            "--input",
            str(corpus_dir / "snapshot.ndjson"),
            "--out",
            str(out),
            "--domains-fixture",
            str(corpus_dir / "domains_fixture.jsonl"),
            "--live",
            "--rate-limit",
            "5000",
            "--downloads-url",
            "http://127.0.0.1:9",
            "--popular-n",
            str(manifest["counts"]["popular_n"]),
        ]
    )
    assert rc == 2
    assert (out / "summary.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["provider_warnings"] > 0


def test_dep_kinds_flag(corpus_dir, tmp_path):
    out = tmp_path / "kinds"
    rc = main(scan_args(corpus_dir, out, extra=["--dep-kinds", "runtime,dev"]))
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["dep_kinds"] == ["runtime", "dev"]


@pytest.mark.parametrize("enabled", [True, False])
def test_scan_pauses_gc_and_restores_its_state(corpus_dir, tmp_path, monkeypatch, enabled):
    seen: list[bool] = []

    def record_gc_state(stage):
        def wrapped(*args, **kwargs):
            seen.append(gc.isenabled())
            return stage(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(cli, "run_scan", record_gc_state(cli.run_scan))
    monkeypatch.setattr(cli, "write_reports", record_gc_state(cli.write_reports))
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        ok = main(scan_args(corpus_dir, tmp_path / "ok"))
        after_ok = gc.isenabled()
        failed = main(["scan", "--input", str(tmp_path / "nope.ndjson"), "--out", str(tmp_path / "bad")])
        after_failed = gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert (ok, failed) == (0, 1)
    assert after_ok is enabled
    assert after_failed is enabled
    # run_scan and write_reports of the good scan, run_scan of the failed one.
    assert seen == [False, False, False]


CANONICAL = ("findings.jsonl", "exclusions.jsonl", "combinations.json")


def test_bulk_export_shapes_scan_like_ndjson(corpus_dir, tmp_path):
    docs = [json.loads(line) for line in (corpus_dir / "snapshot.ndjson").read_text().splitlines()]
    export = {"rows": [{"doc": doc} for doc in docs]}
    one_line = tmp_path / "one-line.json"
    one_line.write_text(json.dumps(export) + "\n")
    pretty = tmp_path / "pretty.json"
    pretty.write_text(json.dumps(export, indent=2) + "\n")
    reference = tmp_path / "ndjson-report"
    assert main(scan_args(corpus_dir, reference)) == 0
    for snapshot in (one_line, pretty):
        out = tmp_path / f"{snapshot.stem}-report"
        args = scan_args(corpus_dir, out)
        args[args.index("--input") + 1] = str(snapshot)
        assert main(args) == 0
        for name in CANONICAL:
            assert (out / name).read_bytes() == (reference / name).read_bytes(), (snapshot.name, name)


@pytest.mark.parametrize("variant", ["trailing-data", "bom", "bom-pretty"])
def test_bulk_export_that_json_load_rejects_is_fatal(corpus_dir, tmp_path, variant):
    docs = [json.loads(line) for line in (corpus_dir / "snapshot.ndjson").read_text().splitlines()[:20]]
    export = json.dumps({"rows": [{"doc": doc} for doc in docs]}, indent=2 if variant == "bom-pretty" else None)
    snapshot = tmp_path / "snapshot.json"
    if variant == "trailing-data":
        snapshot.write_bytes(export.encode() + b"\n}\n")
    else:
        snapshot.write_bytes(b"\xef\xbb\xbf" + export.encode() + b"\n")
    assert main(["scan", "--input", str(snapshot), "--out", str(tmp_path / "out")]) == 1


# --- a scan whose filtered corpus is empty ---------------------------------------

COMBINATION_IDS = ["W1+W3+W6", "W1+W6", "W2+W3", "W2+W3+W6", "W2+W6", "W3+W4", "W3+W4+W6", "W3+W6"]


def unlicensed_doc(name: str) -> dict:
    # No repository and no license, and nothing depends on it: excluded.
    when = "2020-01-01T00:00:00.000Z"
    version = {"name": name, "version": "1.0.0", "maintainers": [{"name": "m", "email": "m@gone.example"}]}
    return {"name": name, "dist-tags": {"latest": "1.0.0"}, "versions": {"1.0.0": version}, "time": {"modified": when}}


@pytest.mark.parametrize("docs", [[], [unlicensed_doc("a"), unlicensed_doc("b")]], ids=["empty-file", "all-excluded"])
def test_scan_of_empty_filtered_corpus_writes_zero_rows(tmp_path, docs):
    snapshot = tmp_path / "snapshot.ndjson"
    snapshot.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    out = tmp_path / "report"
    assert main(["scan", "--input", str(snapshot), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    combos = json.loads((out / "combinations.json").read_text())
    assert summary["corpus"]["parsed"] == summary["corpus"]["excluded"]["total"] == len(docs)
    assert summary["corpus"]["filtered"] == 0
    assert summary["config"]["reference_time"] is None
    assert summary["combinations"] == dict.fromkeys(COMBINATION_IDS, 0)
    assert [(row["id"], row["count"]) for row in combos["combinations"]] == [(cid, 0) for cid in COMBINATION_IDS]
    zero = {"by_dependents": 0, "by_downloads": 0, "union": 0}
    assert summary["popular_sample"]["source_counts"] == combos["popular_sample"]["source_counts"] == zero


# --- documents nested too deeply to decode ----------------------------------------

# json.loads raises RecursionError for this value, not JSONDecodeError.
TOO_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "layout,first",
    [("ndjson", False), ("ndjson", True), ("dir", True)],
    ids=["ndjson", "ndjson-first-line", "dir"],
)
def test_scan_counts_a_too_deeply_nested_document_as_malformed(tmp_path, layout, first):
    good = json.dumps(unlicensed_doc("a"))
    if layout == "dir":
        snapshot = tmp_path / "snapshot"
        snapshot.mkdir()
        (snapshot / "a.json").write_text(good)
        (snapshot / "b.json").write_text(TOO_DEEP)
    else:
        snapshot = tmp_path / "snapshot.ndjson"
        lines = [TOO_DEEP, good] if first else [good, TOO_DEEP]
        snapshot.write_text("\n".join(lines) + "\n")
    out = tmp_path / "report"
    # Autodetection reads a first line it cannot decode as a bulk export.
    layout_args = ["--format", "ndjson"] if first and layout == "ndjson" else []
    assert main(["scan", "--input", str(snapshot), "--out", str(out), *layout_args]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["input"]["ingest"] == {"total": 2, "parsed": 1, "skipped": 1, "by_error": {"malformed": 1}}


@pytest.mark.parametrize("layout_args", [[], ["--format", "bulk"]], ids=["autodetected", "bulk"])
@pytest.mark.parametrize("shape", ["row", "first-line"])
def test_bulk_export_with_a_too_deeply_nested_row_is_fatal(tmp_path, capsys, layout_args, shape):
    rows = [json.dumps({"doc": unlicensed_doc("a")}), TOO_DEEP]
    text = '{"rows": [' + ", ".join(rows) + "]}\n"
    if shape == "first-line":  # as an ndjson file whose first line is too deep
        text = TOO_DEEP + "\n" + rows[0] + "\n"
    snapshot = tmp_path / "snapshot.json"
    snapshot.write_text(text)
    with pytest.raises(RecursionError):
        json.loads(text)  # so does json.load of the whole file
    assert main(["scan", "--input", str(snapshot), "--out", str(tmp_path / "out"), *layout_args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: maximum recursion depth exceeded while decoding a JSON array")
    assert err.count("\n") == 1


# --- live provider settings -----------------------------------------------------------


@pytest.mark.parametrize("resolver", ["127.0.0.1:70000", "127.0.0.1:-1"])
def test_scan_rejects_a_resolver_port_outside_0_to_65535(corpus_dir, tmp_path, capsys, monkeypatch, resolver):
    def no_socket(*args, **kwargs):
        raise AssertionError("the scan opened a socket")

    monkeypatch.setattr(socket, "socket", no_socket)
    out = tmp_path / "report"
    args = scan_args(corpus_dir, out, extra=["--live", "--dns-resolver", resolver, "--downloads-url", "http://127.0.0.1:9"])
    args.remove("--domains-fixture")
    args.remove(str(corpus_dir / "domains_fixture.jsonl"))
    assert main(args) == 1
    port = resolver.rsplit(":", 1)[1]
    assert capsys.readouterr().err == f"error: --dns-resolver port must be in 0-65535, got {port}\n"
    assert not out.exists()


@pytest.mark.parametrize("rate", ["nan", "0"])
def test_scan_rejects_a_rate_limit_that_is_not_positive(corpus_dir, tmp_path, capsys, monkeypatch, rate):
    def no_socket(*args, **kwargs):
        raise AssertionError("the scan opened a socket")

    monkeypatch.setattr(socket, "socket", no_socket)
    out = tmp_path / "report"
    args = scan_args(corpus_dir, out, extra=["--live", "--rate-limit", rate, "--downloads-url", "http://127.0.0.1:9"])
    args.remove("--domains-fixture")
    args.remove(str(corpus_dir / "domains_fixture.jsonl"))
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error: rate must be positive")
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_scan_rejects_jobs_below_1(corpus_dir, tmp_path, capsys, monkeypatch, jobs):
    def no_read(*args, **kwargs):
        raise AssertionError("the scan read the snapshot")

    monkeypatch.setattr(ingest, "open", no_read, raising=False)
    out = tmp_path / "report"
    assert main(scan_args(corpus_dir, out, extra=["--jobs", jobs])) == 1
    assert capsys.readouterr().err == f"error: jobs must be at least 1, got {jobs}\n"
    assert not out.exists()
    with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
        run_scan(ScanOptions(input_path=corpus_dir / "snapshot.ndjson", jobs=int(jobs)))


# --- what a scan imports ------------------------------------------------------------------


def test_importing_the_cli_leaves_out_requests_and_the_generator():
    src = Path(weaklink.__file__).resolve().parent.parent
    probe = "import sys, weaklink.cli; print(sorted({'requests', 'weaklink.synth'} & sys.modules.keys()))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_importing_the_cli_loads_no_process_pool():
    # Only a snapshot read in more than one range starts worker processes,
    # so only that read imports the pool, and no scan's start-up pays for it.
    src = Path(weaklink.__file__).resolve().parent.parent
    probe = "import sys, weaklink.cli; print(sorted({'concurrent.futures.process', 'multiprocessing'} & sys.modules.keys()))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
