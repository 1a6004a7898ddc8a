"""Command-line interface: scan, gen and diff subcommands.

Exit codes: 0 success, 1 fatal (bad input/config), 2 partial success
(provider degradation; findings are complete but downloads or domain
lookups fell back to unknown).
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .errors import FixtureError, PlanError, ScannerError
from .pipeline import ScanOptions, diff_findings, run_scan, write_reports
from .signals import AnalyzerConfig

logger = logging.getLogger(__name__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="weaklink", description="Registry-metadata weak link scanner")
    parser.add_argument("--version", action="version", version=f"weaklink {__version__}")
    parser.set_defaults(log_level="WARNING")
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="scan a registry snapshot and write reports")
    scan.add_argument("--input", required=True, help="snapshot path (file or directory)")
    scan.add_argument("--format", choices=("bulk", "ndjson", "dir"), default=None, help="snapshot layout (default: autodetect)")
    scan.add_argument("--config", default=None, help="JSON config file with analyzer thresholds")
    scan.add_argument("--out", default="weaklink-report", help="output directory")
    scan.add_argument("--domains-fixture", default=None, help="JSONL domain status fixture")
    scan.add_argument("--downloads-fixture", default=None, help="JSONL downloads fixture")
    scan.add_argument("--live", action="store_true", help="use live DNS/HTTP providers where no fixture is given")
    scan.add_argument("--rate-limit", type=float, default=ScanOptions.rate_limit, help="live requests per second")
    scan.add_argument("--downloads-url", default=ScanOptions.downloads_base_url, help="base URL for the live downloads endpoint")
    scan.add_argument("--dns-resolver", default="%s:%d" % ScanOptions.dns_resolver, help="resolver host:port for live domain checks")
    scan.add_argument("--top-percent", type=float, default=None, help="ranking percentile for W4/W5/W6")
    scan.add_argument("--inactivity-years", type=float, default=None, help="inactivity window in years")
    scan.add_argument("--popular-n", type=int, default=ScanOptions.popular_n, help="popular sample size per ranking")
    scan.add_argument("--dep-kinds", default=",".join(ScanOptions.dep_kinds), help="comma list of dependency kinds (runtime,dev,peer,optional)")
    scan.add_argument("--unsafe-full-output", action="store_true", help="also write full member lists")
    scan.add_argument("--jobs", type=int, default=ScanOptions.jobs, help="ranges an ndjson snapshot or a bulk export is read in, one process each, and concurrent live downloads lookups (default: the CPUs this process may use)")
    scan.add_argument("--log-level", choices=("DEBUG", "INFO", "WARNING", "ERROR"), default="WARNING", help="log verbosity on stderr")
    scan.add_argument("-v", dest="log_level", action="store_const", const="INFO", help="same as --log-level INFO")

    gen = sub.add_parser("gen", help="generate a synthetic snapshot with a ground-truth manifest")
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--packages", type=int, default=10_000)
    gen.add_argument("--out", default="weaklink-corpus", help="output directory")
    gen.add_argument("--format", choices=("bulk", "ndjson", "dir"), default="ndjson", help="snapshot layout to emit")
    gen.add_argument("--plan", default=None, help="JSON file overriding generation plan fields")

    diff = sub.add_parser("diff", help="diff two findings files")
    diff.add_argument("old")
    diff.add_argument("new")
    return parser


def _load_config(args: argparse.Namespace) -> AnalyzerConfig:
    data: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    cfg = AnalyzerConfig.from_dict(data)
    if args.top_percent is not None:
        cfg = replace(cfg, top_percent=args.top_percent)
    if args.inactivity_years is not None:
        days = args.inactivity_years * 365
        if not math.isfinite(days):
            raise ValueError(f"--inactivity-years must give a finite number of days, got {args.inactivity_years}")
        cfg = replace(cfg, inactivity_days=round(days))
    return cfg


def cmd_scan(args: argparse.Namespace) -> int:
    # The corpus, indexes and findings are acyclic and live until the
    # reports are written, so cyclic collections would only re-walk them;
    # reference counting still frees every temporary. Freezing the survivors
    # on the way out keeps the next collection from walking them.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        resolver_host, _, resolver_port = args.dns_resolver.partition(":")
        port = int(resolver_port or 53)
        if not 0 <= port <= 65535:
            raise ValueError(f"--dns-resolver port must be in 0-65535, got {port}")
        options = ScanOptions(
            input_path=args.input,
            layout=args.format,
            config=_load_config(args),
            dep_kinds=tuple(k.strip() for k in args.dep_kinds.split(",") if k.strip()),
            popular_n=args.popular_n,
            domains_fixture=args.domains_fixture,
            downloads_fixture=args.downloads_fixture,
            live=args.live,
            rate_limit=args.rate_limit,
            downloads_base_url=args.downloads_url,
            dns_resolver=(resolver_host, port),
            jobs=args.jobs,
        )
        result = run_scan(options)
        paths = write_reports(result, args.out, unsafe_full_output=args.unsafe_full_output)
    # RecursionError: a bulk export with a row nested too deeply to decode,
    # which json.load of the whole file raises too.
    except (OSError, ValueError, FixtureError, ScannerError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        gc.freeze()
        if gc_was_enabled:
            gc.enable()
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    if result.provider_warnings:
        print(f"warning: {result.provider_warnings} provider lookups degraded to unknown", file=sys.stderr)
        return 2
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    from .synth import GenerationPlan, generate  # a scan never needs the generator

    try:
        overrides: object = {}
        if args.plan:
            with open(args.plan, "r", encoding="utf-8") as fh:
                overrides = json.load(fh)
        plan = replace(GenerationPlan.from_dict(overrides), seed=args.seed, package_count=args.packages)
        corpus = generate(plan)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        suffix = {"ndjson": "snapshot.ndjson", "bulk": "snapshot.json", "dir": "snapshot"}[args.format]
        snapshot = corpus.write_snapshot(out / suffix, layout=args.format)
        domains, downloads = corpus.write_fixtures(out)
        manifest = corpus.write_manifest(out / "manifest.json")
    # ValueError: a plan file that is not UTF-8 or not JSON. RecursionError:
    # one nested too deeply to decode.
    except (OSError, PlanError, ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for label, path in (("snapshot", snapshot), ("domains", domains), ("downloads", downloads), ("manifest", manifest)):
        print(f"{label}: {path}")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    try:
        added, removed = diff_findings(args.old, args.new)
    # RecursionError: a header nested too deeply to decode.
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in removed:
        print(f"- {line}")
    for line in added:
        print(f"+ {line}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=args.log_level, format="%(levelname)s %(name)s: %(message)s")  # on stderr
    if args.command == "scan":
        return cmd_scan(args)
    if args.command == "gen":
        return cmd_gen(args)
    if args.command == "diff":
        return cmd_diff(args)
    parser.error(f"unknown command {args.command}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
