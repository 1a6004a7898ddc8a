"""Traced in-process scan, and the span arithmetic that turns its spans into layer metrics.

    python3 perfbench/tracer.py SPANS_OUT RUN_ID -- <weaklink scan arguments>

Needs ``src`` on PYTHONPATH. The child wraps the public names that the
program's modules look up (the program's own orchestration runs unchanged),
attributes cyclic-GC pauses to the innermost open span through
``gc.callbacks``, runs ``weaklink.cli.main`` and writes every span to
SPANS_OUT as JSON when the scan ends. Times are CLOCK_MONOTONIC seconds,
which the parent shares, so the parent can place the spans inside the
child's wall time. Importing this module changes nothing; ``main`` does.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import resource
import sys
import time
from pathlib import Path


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# Span name for each (module, attribute) the program looks up. A name a
# later version no longer has is skipped, and its metrics read zero calls.
STAGES = {
    "weaklink.cli": {
        "run_scan": "pipeline.run_scan",
        "write_reports": "pipeline.write_reports",
    },
    "weaklink.pipeline": {
        "load_corpus": "ingest.load_corpus",
        "build_dependents_index": "reach.build_dependents_index",
        "build_maintainer_index": "reach.build_maintainer_index",
        "apply_exclusions": "exclusions.apply_exclusions",
        "analyze_w1": "signals.analyze_w1",
        "analyze_w2": "signals.analyze_w2",
        "analyze_w3": "signals.analyze_w3",
        "analyze_w4": "signals.analyze_w4",
        "analyze_w5": "signals.analyze_w5",
        "analyze_w6": "signals.analyze_w6",
        "popular_sample": "combinations.popular_sample",
        "combination_table": "combinations.combination_table",
        "keyword_hunt": "combinations.keyword_hunt",
        "attack_candidates": "combinations.attack_candidates",
    },
    "weaklink.signals": {"top_percent": "reach.top_percent"},
    "weaklink.combinations": {"top_n": "reach.top_n"},
}
STAGE_SPANS = tuple(name for names in STAGES.values() for name in names.values())
# Call counts of the spans an optimisation is expected to call less often.
CALL_COUNTED = ("reach.build_dependents_index", "reach.build_maintainer_index", "reach.top_n", "reach.top_percent")
GC_LAYERS = ("reach", "exclusions", "signals", "combinations", "providers", "pipeline")
PROVIDERS = {"FixtureDomainProvider": ("providers.fixture_domains", "check"),
             "FixtureDownloadsProvider": ("providers.fixture_downloads", "downloads")}


class Tracer:
    """Spans kept in memory: name, start, end, parent, run id, and the GC pauses they saw."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.counts: dict[str, int] = {"domain_checks": 0, "downloads_lookups": 0}
        self.gc = {"pause_s": 0.0, "gen2_collections": 0}
        self._gc_start = 0.0

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "run": self.run_id,
            "parent": self.stack[-1]["id"] if self.stack else None,
            "start": clock(),
            "end": None,
            "gc_s": 0.0,
            "gen2": 0,
        }
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = clock()
        self.stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_result is not None:
                on_result(span, result)
            return result

        return traced

    def count(self, counter: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = clock()
            return
        pause = clock() - self._gc_start
        gen2 = info["generation"] == 2
        self.gc["pause_s"] += pause
        self.gc["gen2_collections"] += gen2
        if self.stack:
            self.stack[-1]["gc_s"] += pause
            self.stack[-1]["gen2"] += gen2

    def install(self) -> None:
        """Wrap the stage names and provider constructors in the loaded modules."""
        for module_name, names in STAGES.items():
            module = importlib.import_module(module_name)
            for attr, span_name in names.items():
                if hasattr(module, attr):
                    setattr(module, attr, self.wrap(span_name, getattr(module, attr), RESULT_COUNTS.get(span_name)))
        pipeline = importlib.import_module("weaklink.pipeline")
        for attr, (span_name, method) in PROVIDERS.items():
            if hasattr(pipeline, attr):
                counter = "domain_checks" if method == "check" else "downloads_lookups"

                def construct(*args, _cls=getattr(pipeline, attr), _method=method, _counter=counter, **kwargs):
                    provider = _cls(*args, **kwargs)
                    setattr(provider, _method, self.count(_counter, getattr(provider, _method)))
                    return provider

                setattr(pipeline, attr, self.wrap(span_name, construct))


def _ingest_counts(span: dict, corpus) -> None:
    span["docs_total"] = corpus.stats.total
    span["docs_skipped"] = corpus.stats.skipped
    span["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _exclusion_counts(span: dict, result) -> None:
    _filtered, verdicts = result
    span["excluded"] = sum(1 for verdict in verdicts if verdict.excluded)


def _scan_counts(span: dict, result) -> None:
    span["findings"] = len(result.findings)


def _report_counts(span: dict, paths) -> None:
    span["report_bytes"] = sum(Path(path).stat().st_size for path in paths.values())


# Counts recorded where the work happens, from what each stage returns.
RESULT_COUNTS = {
    "ingest.load_corpus": _ingest_counts,
    "exclusions.apply_exclusions": _exclusion_counts,
    "pipeline.run_scan": _scan_counts,
    "pipeline.write_reports": _report_counts,
}


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, end)
        if hi > lo:
            total += hi - lo
            end = hi
    return total


def layer_metrics(trace: dict, wall: tuple[float, float], untraced_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced scan.

    ``wall`` is the (spawn, exit) CLOCK_MONOTONIC pair of the traced
    process and ``untraced_s`` the wall time of its paired untraced scan.
    A span's self time is its duration minus the part its child spans cover.
    """
    spans = trace["spans"]
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    for span in spans:
        span["s"] = span["end"] - span["start"]
        span["self_s"] = span["s"] - covered(children.get(span["id"], []))

    def by_name(name: str) -> list[dict]:
        return [span for span in spans if span["name"] == name]

    def total(name: str, key: str = "s") -> float:
        return sum(span[key] for span in by_name(name))

    def last(name: str, key: str) -> float:
        found = by_name(name)
        return found[-1][key] if found else 0

    metrics: dict[str, float] = {}
    for name in STAGE_SPANS:
        metrics[f"{name}.s"] = total(name)
    for name in CALL_COUNTED:
        metrics[f"{name}.calls"] = len(by_name(name))
    # GC pauses per layer: summed over the layer's spans, each holding the
    # pauses that happened while it was the innermost open span.
    metrics["ingest.load_corpus.gc_s"] = total("ingest.load_corpus", "gc_s")
    for layer in GC_LAYERS:
        metrics[f"{layer}.gc_s"] = sum(span["gc_s"] for span in spans if span["name"].startswith(layer + "."))
    metrics["pipeline.run_scan.self_s"] = total("pipeline.run_scan", "self_s")
    metrics["cli.import.s"] = total("cli.import")
    metrics["ingest.docs_total"] = last("ingest.load_corpus", "docs_total")
    metrics["ingest.docs_skipped"] = last("ingest.load_corpus", "docs_skipped")
    metrics["ingest.maxrss_mb"] = last("ingest.load_corpus", "maxrss_mb")
    metrics["gc.pause_s"] = trace["gc"]["pause_s"]
    metrics["gc.gen2_collections"] = trace["gc"]["gen2_collections"]
    metrics["exclusions.excluded"] = last("exclusions.apply_exclusions", "excluded")
    metrics["signals.findings"] = last("pipeline.run_scan", "findings")
    metrics["providers.fixture_load.s"] = total("providers.fixture_domains") + total("providers.fixture_downloads")
    metrics["providers.domain_checks"] = trace["counts"]["domain_checks"]
    metrics["providers.downloads_lookups"] = trace["counts"]["downloads_lookups"]
    metrics["pipeline.report_bytes"] = last("pipeline.write_reports", "report_bytes")
    spawn, exit_ = wall
    roots = [(max(s["start"], spawn), min(s["end"], exit_)) for s in spans if s["parent"] is None]
    metrics["trace.uncovered_s"] = (exit_ - spawn) - covered(roots)
    metrics["trace.overhead_s"] = (exit_ - spawn) - untraced_s
    return metrics


def main() -> int:
    spans_out, run_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT RUN_ID -- <scan arguments>")
    recorder = Tracer(run_id)
    gc.callbacks.append(recorder.on_gc)
    span = recorder.open("cli.import")
    cli = importlib.import_module("weaklink.cli")
    recorder.close(span)
    recorder.install()
    span = recorder.open("cli.main")
    try:
        code = cli.main(argv)
    finally:
        recorder.close(span)
        gc.callbacks.remove(recorder.on_gc)
        payload = {"run": run_id, "spans": recorder.spans, "gc": recorder.gc, "counts": recorder.counts}
        Path(spans_out).write_text(json.dumps(payload), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
