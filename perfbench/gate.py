"""Correctness gate for one scan's reports.

A scan passes when its reports agree with the synth manifest and its
canonical digests equal the committed reference digests of its corpus
(``reference_digests.json``, keyed by package count and seed, written by
``reference.py``). Every layout of one corpus must give those same bytes.
A corpus with no committed entry is compared with the first passing scan
of its own run, and the run says so.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference_digests.json"
CANONICAL = ("findings.jsonl", "exclusions.jsonl", "combinations.json")
# The two summary fields that name the snapshot rather than its content.
SUMMARY_INPUT_FIELDS = ("path", "digest")

PACKAGE_SIGNALS = ("W1", "W2", "W3_inactive_pkg", "W3_inactive_maintainer", "W3_deprecated", "W4", "W5", "W6")


def reference_key(packages: int, seed: int) -> str:
    return f"{packages}/{seed}"


def committed_reference(packages: int, seed: int) -> dict[str, str] | None:
    """The committed digests of one corpus, or None if it has none."""
    entries = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return entries.get(reference_key(packages, seed))


def report_digests(report_dir: Path) -> dict[str, str]:
    """sha256 of each canonical file, and of summary.json without its input path and digest."""
    digests = {name: hashlib.sha256((report_dir / name).read_bytes()).hexdigest() for name in CANONICAL}
    summary = json.loads((report_dir / "summary.json").read_text(encoding="utf-8"))
    for key in SUMMARY_INPUT_FIELDS:
        summary["input"].pop(key)
    normalized = json.dumps(summary, sort_keys=True).encode()
    digests["summary.json-input"] = hashlib.sha256(normalized).hexdigest()
    return digests


def manifest_errors(report_dir: Path, manifest: dict) -> list[str]:
    """Differences between the reports and the manifest's ground truth."""
    errors: list[str] = []

    def expect(label: str, got, want) -> None:
        if got != want:
            errors.append(f"{label}: report differs from manifest")

    lines = (report_dir / "findings.jsonl").read_text(encoding="utf-8").splitlines()
    if not lines or json.loads(lines[0]).get("kind") != "header":
        return ["findings.jsonl: missing header"]
    members: dict[tuple[str, str], set[str]] = {}
    for line in lines[1:]:
        finding = json.loads(line)
        members.setdefault((finding["signal"], finding["subject_kind"]), set()).add(finding["subject_id"])
    signals = manifest["signals"]
    for signal in PACKAGE_SIGNALS:
        expect(f"{signal} packages", members.get((signal, "package"), set()), set(signals[signal]["packages"]))
    expect("W6 maintainers", members.get(("W6", "maintainer"), set()), set(signals["W6"]["maintainers"]))

    excluded = set()
    with open(report_dir / "exclusions.jsonl", encoding="utf-8") as fh:
        for line in fh:
            verdict = json.loads(line)
            if verdict["excluded"]:
                excluded.add(verdict["package_id"].rsplit("@", 1)[0])
    expect("excluded set", excluded, set(manifest["exclusions"]["excluded"]))

    combos = json.loads((report_dir / "combinations.json").read_text(encoding="utf-8"))
    expect(
        "combination counts",
        {row["id"]: row["count"] for row in combos["combinations"]},
        {cid: row["count"] for cid, row in manifest["combinations"].items()},
    )
    expect(
        "popular-sample source counts",
        combos["popular_sample"]["source_counts"],
        manifest["popular"]["source_counts"],
    )
    hunt = combos["keyword_hunt"]
    expect("keyword-hunt count", hunt["count"], len(manifest["keyword_hunt"]["packages"]))
    expect(
        "keyword-hunt categories",
        {hit["package"]: hit["category"] for hit in hunt["hits_sample"]},
        manifest["keyword_hunt"]["categories"],
    )
    return errors


class Gate:
    """Checks every scan of one corpus against the manifest and the reference digests."""

    def __init__(self, manifest: dict, reference: dict[str, str] | None):
        self.manifest = manifest
        self.reference = reference
        self.committed = reference is not None

    def check(self, report_dir: Path) -> tuple[list[str], dict[str, str]]:
        """(errors, digests) for one report directory; no errors means the scan passed."""
        try:
            digests = report_digests(report_dir)
            errors = manifest_errors(report_dir, self.manifest)
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            return [f"unreadable reports: {exc!r}"], {}
        if self.reference is None:
            if not errors:
                self.reference = digests
        else:
            errors += [f"{name}: sha256 differs from reference" for name in digests if digests[name] != self.reference.get(name)]
        return errors, digests
