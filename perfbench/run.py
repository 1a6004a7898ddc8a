"""The weaklink scan benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed 7] [--seconds 20] [--trace 0|1]
    python3 perfbench/run.py --self-test

The checkout is the parent of this directory; the program is imported from
its ``src``. Each run generates the seeded default-plan synth corpus
(``weaklink.synth.generate``) in a fresh interpreter and writes the layouts
its workloads need. It then runs a closed loop with one client: one
``weaklink scan`` subprocess at a time, with the corpus's fixture
providers, ``--popular-n`` from the manifest and ``--jobs`` set to the CPUs
this process may use; the layout is autodetected, as a user's scan does.
The loop starts scans until ``--seconds`` have passed, and at least one.
Every scan's reports go through the correctness gate (``gate.py``), which
also requires them to be byte-identical to the committed reference digests
of the corpus (``reference_digests.json``).

``--trace 0`` reports the end-to-end metrics; ``setup_s`` is the median
wall time of fresh interpreters that only import ``weaklink.cli``, timed
before the first scan and after each scan. ``--trace 1`` runs pairs of one untraced scan
and one traced in-process scan (``tracer.py``) and reports the per-layer
metrics from the spans. Without ``--trace`` a run does both. Without
``--workload`` it runs the workloads BENCHMARK.json declares; ``dir-100k``
runs only when named, or with ``all``, which prepares one corpus in every
layout and runs all three.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (medians). When a run covers more
than one workload, each metric key is prefixed with its workload, as in
``bulk-100k/scan_s``. Work files live in
``.perfbench/work`` and are removed at exit; each run's full record
(environment, samples, digests, spans) is kept in ``.perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# All workloads hold the same documents, so their canonical reports must be
# identical; only the snapshot layout, and so the ingest path, differs.
# BENCHMARK.json declares WORKLOADS. dir-100k costs a 100k-file write and a
# ~26 s scan per run, which the declared run budget cannot hold, so it runs
# only when named (--workload dir-100k, or all).
WORKLOADS = {"ndjson-100k": "ndjson", "bulk-100k": "bulk"}
ON_REQUEST = {"dir-100k": "dir"}
LAYOUTS = {**WORKLOADS, **ON_REQUEST}
PACKAGES = 100_000
# Interpreter start-ups timed before the first scan of an untraced run and
# after each scan, so that setup_s samples the whole run.
SETUP_SAMPLES = 4
# A (workload, trace) record starts no scan that would end after this many
# seconds, so that a run of one record exits within three minutes.
RUN_BUDGET_S = 150.0
SCAN_TIMEOUT_S = 170.0


@dataclass
class Scan:
    """One scan subprocess: its resource use and the gate's verdict."""

    label: str
    rc: int
    spawn: float
    exit: float
    cpu_s: float
    rss_mb: float
    errors: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.exit - self.spawn

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclass
class Prepared:
    """A generated corpus on disk, with its manifest and set-up record."""

    directory: Path
    manifest: dict
    info: dict


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def spawn(cmd: list[str], label: str, stderr_path: Path) -> Scan:
    """Run one subprocess to completion; wall time from spawn to exit, rusage from wait4."""
    with open(stderr_path, "wb") as err:
        start = tracer.clock()
        proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(SCAN_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            end = tracer.clock()
            timer.cancel()
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    scan = Scan(label, rc, start, end, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
    if rc != 0:
        tail = stderr_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
        scan.errors.append(f"exit code {rc}: {' | '.join(tail)}")
    return scan


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare(seed: int, packages: int, layouts: list[str], directory: Path) -> Prepared:
    """Generate the corpus in its own interpreter and write the given layouts."""
    start = tracer.clock()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "prepare.py"), "--seed", str(seed), "--packages", str(packages),
         "--out", str(directory), "--layouts", ",".join(layouts)],
        env=child_env(), capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"corpus generation failed: {proc.stderr.strip()}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    info["prepare_wall_s"] = tracer.clock() - start
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    return Prepared(directory, manifest, info)


class Runner:
    """Runs the scans of one prepared corpus and gates each one."""

    def __init__(self, prepared: Prepared, work: Path, reference: dict[str, str] | None):
        self.prepared = prepared
        self.work = work
        self.gate = gate.Gate(prepared.manifest, reference)
        self.jobs = nproc()
        self.counter = 0

    def scan_args(self, layout: str, out: Path) -> list[str]:
        d = self.prepared.directory
        return ["scan", "--input", self.prepared.info["snapshots"][layout], "--out", str(out),
                "--domains-fixture", str(d / "domains_fixture.jsonl"),
                "--downloads-fixture", str(d / "downloads_fixture.jsonl"),
                "--popular-n", str(self.prepared.manifest["counts"]["popular_n"]),
                "--jobs", str(self.jobs)]

    def scan(self, layout: str, traced_run_id: str | None = None) -> tuple[Scan, dict | None]:
        """One scan, untraced through the CLI or traced through tracer.py; gated either way."""
        self.counter += 1
        out = self.work / f"report-{self.counter}"
        args = self.scan_args(layout, out)
        spans_path = self.work / f"spans-{self.counter}.json"
        if traced_run_id is None:
            cmd = [sys.executable, "-m", "weaklink.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), traced_run_id, "--", *args]
        label = f"{layout}{' traced' if traced_run_id else ''} #{self.counter}"
        result = spawn(cmd, label, self.work / f"stderr-{self.counter}.txt")
        if result.ok:
            result.errors, result.digests = self.gate.check(out)
        trace = None
        if traced_run_id is not None and spans_path.exists():
            trace = json.loads(spans_path.read_text(encoding="utf-8"))
        shutil.rmtree(out, ignore_errors=True)
        return result, trace


def closed_loop(seconds: float, deadline: float, one_round) -> None:
    """Call one_round back to back until `seconds` have passed, at least once."""
    start = tracer.clock()
    while True:
        t0 = tracer.clock()
        one_round()
        took = tracer.clock() - t0
        now = tracer.clock()
        if now - start >= seconds or now + took > deadline:
            return


def setup_samples(work: Path, warm_up: bool) -> list[float]:
    """Wall seconds of fresh interpreters that only import weaklink.cli."""
    cmd = [sys.executable, "-c", "import weaklink.cli"]
    samples = []
    for i in range(SETUP_SAMPLES + warm_up):
        result = spawn(cmd, "setup", work / "stderr-setup.txt")
        if result.rc != 0:
            raise RuntimeError(f"import weaklink.cli failed: {result.errors}")
        samples.append(result.wall_s)
    return samples[warm_up:]


def summarize(values: list[float]) -> dict:
    """Median, quartiles, count, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if n > 1 else (ordered[0],) * 3
    stats = {"n": n, "median": statistics.median(ordered), "q1": q1, "q3": q3, "p_max": None}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - p / 100) >= 10:
            stats["p_max"] = [p, ordered[max(0, math.ceil(p / 100 * n) - 1)]]
            break
    return stats


def run_workload(name: str, prepared: Prepared, runner: Runner, seconds: float, trace: bool, deadline: float) -> dict:
    """Closed-loop scans of one workload; returns the run's record."""
    layout = LAYOUTS[name]
    scans: list[Scan] = []
    samples: dict[str, list[float]] = {}
    traces: list[dict] = []
    if not trace:
        samples["setup_s"] = setup_samples(runner.work, warm_up=True)

        def one_round() -> None:
            scans.append(runner.scan(layout)[0])
            samples["setup_s"] += setup_samples(runner.work, warm_up=False)
    else:

        def one_round() -> None:
            plain, _ = runner.scan(layout)
            run_id = f"{name}-seed{prepared.manifest['seed']}-{len(traces)}"
            traced, spans = runner.scan(layout, traced_run_id=run_id)
            scans.extend((plain, traced))
            if spans is not None:
                metrics = tracer.layer_metrics(spans, (traced.spawn, traced.exit), plain.wall_s)
                traces.append({"metrics": metrics, **spans})
            elif traced.ok:
                traced.errors.append("traced scan wrote no spans")

    closed_loop(seconds, deadline, one_round)

    passed = [s for s in scans if s.ok] or scans
    if not trace:
        samples["scan_s"] = [s.wall_s for s in passed]
        samples["scan_cpu_s"] = [s.cpu_s for s in passed]
        samples["peak_rss_mb"] = [s.rss_mb for s in passed]
    else:
        for metric in traces[0]["metrics"] if traces else ():
            samples[metric] = [t["metrics"][metric] for t in traces]
    failed = sum(1 for s in scans if not s.ok)
    return {
        "workload": name,
        "trace": int(trace),
        "attempted": len(scans),
        "failed": failed,
        "failure_rate": failed / len(scans),
        "scans": [{"label": s.label, "rc": s.rc, "wall_s": s.wall_s, "cpu_s": s.cpu_s, "rss_mb": s.rss_mb,
                   "errors": s.errors, "digests": s.digests} for s in scans],
        "stats": {metric: summarize(values) for metric, values in samples.items()},
        "traces": traces,
    }


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared_metrics(trace: bool) -> dict[str, str]:
    """Declared metric name -> unit for one trace mode."""
    return {m["name"]: m["unit"] for m in declared()["per_layer" if trace else "end_to_end"]}


def name_errors(record: dict) -> list[str]:
    """Differences between the metrics a record reports and those BENCHMARK.json declares."""
    errors = []
    if {w["name"] for w in declared()["workloads"]} != set(WORKLOADS):
        errors.append("workload names differ from BENCHMARK.json")
    want = set(declared_metrics(bool(record["trace"])))
    got = set(record["stats"])
    if got != want:
        errors.append(f"metric names differ from BENCHMARK.json: missing {sorted(want - got)}, extra {sorted(got - want)}")
    return errors


def print_record(record: dict, environment: dict) -> None:
    units = declared_metrics(bool(record["trace"]))
    mode = "per-layer, traced" if record["trace"] else "end-to-end, untraced"
    print(f"## {record['workload']} ({mode}; closed loop, 1 client)")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in environment.items()))
    print(f"{'metric':44} {'unit':6} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12}  p_max")
    for metric in sorted(record["stats"]):
        st = record["stats"][metric]
        p_max = "none (needs >= 20 samples)" if st["p_max"] is None else f"p{st['p_max'][0]:g}={st['p_max'][1]:.6g}"
        print(f"{metric:44} {units.get(metric, '?'):6} {st['n']:>3} {st['median']:>12.6g} {st['q1']:>12.6g} "
              f"{st['q3']:>12.6g}  {p_max}")
    print(f"{'failure_rate':44} {'ratio':6} {record['attempted']:>3} {record['failure_rate']:>12.6g}"
          f"  ({record['failed']} failed of {record['attempted']} attempted)")
    for trace in record["traces"]:
        print(f"spans of traced run {trace['run']}:")
        print(f"  {'span':36} {'calls':>5} {'s':>9} {'self_s':>9} {'gc_s':>9} {'gen2':>5}")
        rows: dict[str, list] = {}
        for span in trace["spans"]:
            row = rows.setdefault(span["name"], [0, 0.0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += span["s"]
            row[2] += span["self_s"]
            row[3] += span["gc_s"]
            row[4] += span["gen2"]
        for span_name, (calls, total, self_s, gc_s, gen2) in rows.items():
            print(f"  {span_name:36} {calls:>5} {total:>9.3f} {self_s:>9.3f} {gc_s:>9.3f} {gen2:>5}")
    digests = {k: v for s in record["scans"] for k, v in s["digests"].items()}
    for file_name, digest in sorted(digests.items()):
        print(f"sha256 {file_name}: {digest}")
    for scan in record["scans"]:
        for error in scan["errors"]:
            print(f"FAILED {scan['label']}: {error}")


def environment_of(prepared: Prepared, runner: Runner, seed: int, packages: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": nproc(),
        "jobs": runner.jobs,
        "seed": seed,
        "packages": packages,
        "snapshot_bytes": prepared.info["snapshot_bytes"],
        "corpus_generate_s": round(prepared.info["generate_s"], 3),
        "layout_write_s": {k: round(v, 3) for k, v in prepared.info["write_s"].items()},
        "reference": "committed" if runner.gate.committed else "none; compared within this run",
    }


def save(record: dict) -> None:
    out = STATE / "out"
    out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = out / f"{record['workload']}-seed{record['environment']['seed']}-trace{record['trace']}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def result_line(records: list[dict], prefix: bool) -> str:
    metrics = {}
    for record in records:
        units = declared_metrics(bool(record["trace"]))
        for metric, st in record["stats"].items():
            key = f"{record['workload']}/{metric}" if prefix else metric
            metrics[key] = {"value": st["median"], "unit": units[metric]}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = failed == 0 and not any(r["name_errors"] for r in records)
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def bench(workloads: list[str], seed: int, seconds: float, modes: list[bool]) -> list[dict]:
    """Prepare one corpus with the layouts the workloads need and run each (workload, trace) pair."""
    run_start = tracer.clock()
    work = STATE / "work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    records = []
    try:
        prepared = prepare(seed, PACKAGES, [LAYOUTS[w] for w in workloads], work / "corpus")
        runner = Runner(prepared, work, gate.committed_reference(PACKAGES, seed))
        environment = environment_of(prepared, runner, seed, PACKAGES)
        if not runner.gate.committed:
            print(f"NOTE: {gate.REFERENCE.name} has no entry {gate.reference_key(PACKAGES, seed)}; "
                  "reports are compared with the manifest and within this run only")
        for name in workloads:
            for trace in modes:
                # The first record's budget includes preparing the corpus.
                budget_start = tracer.clock() if records else run_start
                record = run_workload(name, prepared, runner, seconds, trace, budget_start + RUN_BUDGET_S)
                record["environment"] = environment
                record["name_errors"] = name_errors(record)
                records.append(record)
                print_record(record, environment)
                for error in record["name_errors"]:
                    print(f"FAILED names: {error}")
                save(record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return records


def self_test() -> int:
    """Checks the harness on a small corpus; returns the number of failed checks."""
    failures = 0

    def expect(label: str, ok: bool) -> None:
        nonlocal failures
        failures += not ok
        print(f"self-test {'ok    ' if ok else 'FAILED'} {label}")

    work = STATE / "work" / f"self-test-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prepared = prepare(1, 2_000, ["ndjson"], work / "corpus")
        runner = Runner(prepared, work, gate.committed_reference(2_000, 1))
        expect("the 2k corpus has committed reference digests", runner.gate.committed)
        good = work / "good"
        scan = spawn([sys.executable, "-m", "weaklink.cli", *runner.scan_args("ndjson", good)], "good", work / "e.txt")
        errors, _ = runner.gate.check(good)
        expect("an unaltered scan passes the gate", scan.ok and not errors)

        lines = (good / "findings.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        last = json.loads(lines[-1])
        for label, change in (("subject id", "subject_id"), ("evidence only", "evidence")):
            altered = work / f"altered-{change}"
            shutil.copytree(good, altered)
            edited = dict(last)
            edited[change] = edited["subject_id"] + "-x" if change == "subject_id" else {"altered": True}
            (altered / "findings.jsonl").write_text(
                "".join(lines[:-1]) + json.dumps(edited, sort_keys=True) + "\n", encoding="utf-8")
            expect(f"a findings file with one line altered ({label}) fails the gate", bool(runner.gate.check(altered)[0]))

        missing = runner.scan_args("ndjson", work / "never")
        missing[missing.index("--input") + 1] = str(work / "no-such-snapshot.ndjson")
        bad = spawn([sys.executable, "-m", "weaklink.cli", *missing], "nonzero", work / "e2.txt")
        expect("a scan that exits nonzero counts as a failure", bad.rc != 0 and not bad.ok)

        deadline = tracer.clock() + RUN_BUDGET_S
        for trace in (False, True):
            record = run_workload("ndjson-100k", prepared, runner, 0, trace, deadline)
            expect(f"trace {int(trace)}: every small scan passes", record["failed"] == 0)
            expect(f"trace {int(trace)}: metric and workload names equal BENCHMARK.json", not name_errors(record))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description="weaklink scan benchmark")
    parser.add_argument("--workload", default=None, choices=[*LAYOUTS, "all"],
                        help="default: the workloads BENCHMARK.json declares")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0, help="closed-loop measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    parser.add_argument("--self-test", action="store_true", help="check the harness on a small corpus")
    args = parser.parse_args()

    if not (SRC / "weaklink" / "cli.py").is_file():
        print(f"error: the weaklink sources are missing: {SRC / 'weaklink'}", file=sys.stderr)
        return 2
    if args.self_test:
        return 1 if self_test() else 0
    workloads = {None: list(WORKLOADS), "all": list(LAYOUTS)}.get(args.workload, [args.workload])
    modes = [False, True] if args.trace is None else [bool(args.trace)]
    records = bench(workloads, args.seed, args.seconds, modes)
    print(result_line(records, prefix=len(workloads) > 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
