"""Generate one seeded synth corpus and write it in the requested layouts.

    python3 perfbench/prepare.py --seed 7 --packages 100000 --out DIR --layouts ndjson,bulk,dir

Needs ``src`` on PYTHONPATH. Writes the snapshot of each layout under the
name ``weaklink gen`` uses, the two provider fixtures and ``manifest.json``
into DIR, then prints one JSON line: generation seconds, and the write seconds,
bytes and path of each layout's snapshot. It runs in its own interpreter so that the
generator's memory is gone before any scan starts.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from weaklink.synth import GenerationPlan, generate

SNAPSHOT_NAMES = {"ndjson": "snapshot.ndjson", "bulk": "snapshot.json", "dir": "snapshot"}


def snapshot_bytes(path: Path) -> int:
    if path.is_dir():
        return sum(entry.stat().st_size for entry in os.scandir(path))
    return path.stat().st_size


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--packages", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--layouts", required=True, help="comma list of ndjson, bulk, dir")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    corpus = generate(GenerationPlan(seed=args.seed, package_count=args.packages))
    generate_s = time.perf_counter() - t0

    write_s: dict[str, float] = {}
    sizes: dict[str, int] = {}
    snapshots: dict[str, str] = {}
    for layout in args.layouts.split(","):
        t0 = time.perf_counter()
        path = corpus.write_snapshot(out / SNAPSHOT_NAMES[layout], layout=layout)
        write_s[layout] = time.perf_counter() - t0
        sizes[layout] = snapshot_bytes(path)
        snapshots[layout] = str(path)
    corpus.write_fixtures(out)
    corpus.write_manifest(out / "manifest.json")
    print(json.dumps({"generate_s": generate_s, "write_s": write_s, "snapshot_bytes": sizes, "snapshots": snapshots}))


if __name__ == "__main__":
    main()
