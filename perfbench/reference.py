"""Record the canonical report digests that the gate compares every scan with.

    python3 perfbench/reference.py --packages 100000 --seeds 0-99 [--out FILE]

For each seed this generates the corpus, scans its ndjson snapshot once as
the benchmark does, checks the reports against the manifest and stores
their digests under "<packages>/<seed>" in FILE (default:
``perfbench/reference_digests.json``), keeping the entries already there.
Record only from code whose reports are known to be right: every later
scan of that corpus must reproduce these bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import gate
import run


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def record(seed: int, packages: int, work: Path) -> dict[str, str]:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prepared = run.prepare(seed, packages, ["ndjson"], work / "corpus")
        runner = run.Runner(prepared, work, None)
        out = work / "report"
        scan = run.spawn([sys.executable, "-m", "weaklink.cli", *runner.scan_args("ndjson", out)],
                         f"seed {seed}", work / "stderr.txt")
        errors = scan.errors or gate.manifest_errors(out, prepared.manifest)
        if errors:
            raise RuntimeError(f"seed {seed}: {errors}")
        return gate.report_digests(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--packages", type=int, required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="one seed, or a range such as 0-99")
    parser.add_argument("--out", type=Path, default=gate.REFERENCE)
    args = parser.parse_args()

    work = run.STATE / "work" / f"reference-{os.getpid()}"
    for seed in args.seeds:
        digests = record(seed, args.packages, work)
        entries = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        entries[gate.reference_key(args.packages, seed)] = digests
        args.out.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{gate.reference_key(args.packages, seed)} recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
