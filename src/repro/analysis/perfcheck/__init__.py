"""``repro.analysis.perfcheck`` — profile-guided performance static analysis.

The fourth analysis pillar (after reprolint, graphcheck and the
determinism analyzer).  Two halves, one report:

* **PF source rules** (:mod:`.rules`) on the reprolint framework —
  per-step array rebuilds (PF001), allocations in hot loops (PF002),
  Python-level elementwise loops (PF003), quadratic all-pairs entity
  scans (PF004) and silent dtype-promotion copies (PF005).  ``PF002``
  consults a whole-program call-graph reachability index
  (:mod:`.hotpath`) so only training-path loops fire.
* **PC IR passes** (:mod:`.passes`) over a *real traced step* of a
  registered method — fusion-group discovery (PC001), buffer-lifetime /
  arena-reuse analysis (PC002) and cross-phase recompute detection
  (PC003).  Their outputs are versioned plans.

Findings are ranked by measured wall time when ``--profile`` points at
a ``repro profile`` JSONL run (:mod:`.profile`).  ``repro perfcheck``
exits nonzero on unsuppressed PF findings; suppress a line with
``# reprolint: disable=PFxxx``.  The ``--baseline`` flag additionally
fails on findings or suppressions absent from a committed baseline —
the CI no-new-findings gate.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

from ..lint import Diagnostic, _discover, lint_source
from .hotpath import HotIndex, build_hot_index
from .passes import (ArenaPlan, FusionPlan, RecomputeFinding, analyze_buffers,
                     find_cross_phase_recompute, find_fusion_groups)
from .profile import ProfileIndex, load_profile, module_of_path
from .rules import PF_RULES, build_pf_rules

__all__ = ["PerfcheckReport", "run_perfcheck", "main", "PF_RULES",
           "build_pf_rules", "build_hot_index", "find_fusion_groups",
           "analyze_buffers", "find_cross_phase_recompute", "load_profile"]

SCHEMA = "repro.perfcheck/1"
BASELINE_SCHEMA = "repro.perfcheck-baseline/1"

_SUPPRESS_PF = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass
class TraceReport:
    """PC-pass results for one traced policy graph."""

    name: str                       # "<method>.<part>", e.g. "garl.ugv"
    nodes: int
    fusion: FusionPlan
    arena: ArenaPlan
    recompute: list[RecomputeFinding] = field(default_factory=list)
    dot: str = ""                   # fusion-cluster DOT, rendered at trace time

    def as_dict(self) -> dict:
        return {"name": self.name, "nodes": self.nodes,
                "fusion_plan": self.fusion.as_dict(),
                "arena_plan": self.arena.as_dict(),
                "recompute": [r.as_dict() for r in self.recompute]}


@dataclass
class PerfcheckReport:
    """Everything one ``repro perfcheck`` invocation produced."""

    paths: list[str] = field(default_factory=list)
    findings: list[Diagnostic] = field(default_factory=list)
    attributed: dict[int, float] = field(default_factory=dict)  # idx -> seconds
    suppressions: list[dict] = field(default_factory=list)
    traces: list[TraceReport] = field(default_factory=list)
    profile: ProfileIndex | None = None

    # -- profile ranking ------------------------------------------------
    def rank(self) -> None:
        """Order findings by attributed seconds (measured hot paths first).

        Without a profile every finding attributes 0.0 and the stable
        sort preserves path/line order; with one, findings in modules
        the profiler measured as hot lead the report.
        """
        profile = self.profile
        if profile is not None and not profile.empty:
            self.attributed = {
                i: profile.module_seconds(module_of_path(d.path))
                for i, d in enumerate(self.findings)}
            order = sorted(range(len(self.findings)),
                           key=lambda i: (-self.attributed[i],
                                          self.findings[i].path,
                                          self.findings[i].line))
            self.findings = [self.findings[i] for i in order]
            self.attributed = {new: self.attributed[old]
                               for new, old in enumerate(order)}
            for trace in self.traces:
                for group in trace.fusion.groups:
                    group.attributed_seconds = profile.group_seconds([
                        (n.op, n.label, ".".join(
                            module_of_path(n.location().rsplit(":", 1)[0])
                            .split(".")[-2:]))
                        for n in group.nodes])
                trace.fusion.groups.sort(
                    key=lambda g: (-g.attributed_seconds, -len(g.nodes),
                                   -g.saved_bytes, g.nodes[0].id))
                for i, g in enumerate(trace.fusion.groups):
                    g.id = i
        else:
            self.attributed = {i: 0.0 for i in range(len(self.findings))}

    # -- serialisation --------------------------------------------------
    def finding_counts(self) -> dict[str, int]:
        """``code path`` -> count, the key the baseline gate compares."""
        counts: dict[str, int] = {}
        for d in self.findings:
            key = f"{d.code} {d.path}"
            counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))

    def suppression_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for s in self.suppressions:
            for code in s["codes"]:
                key = f"{code} {s['path']}"
                counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))

    def to_json(self, indent: int = 2) -> str:
        fusion_groups = sum(len(t.fusion.groups) for t in self.traces)
        payload = {
            "schema": SCHEMA,
            "paths": self.paths,
            "profile": ({"path": self.profile.path,
                         "wall_seconds": self.profile.wall_seconds}
                        if self.profile is not None else None),
            "summary": {
                "findings": len(self.findings),
                "suppressions": len(self.suppressions),
                "fusion_groups": fusion_groups,
                "fusion_saved_bytes": sum(t.fusion.saved_bytes
                                          for t in self.traces),
                "traces": [t.name for t in self.traces],
            },
            "findings": [
                {"code": d.code, "name": d.name, "path": d.path,
                 "line": d.line, "col": d.col, "message": d.message,
                 "attributed_seconds": self.attributed.get(i, 0.0)}
                for i, d in enumerate(self.findings)
            ],
            "suppressions": self.suppressions,
            "finding_counts": self.finding_counts(),
            "suppression_counts": self.suppression_counts(),
            "traces": {t.name: t.as_dict() for t in self.traces},
        }
        return json.dumps(payload, indent=indent)

    def format_report(self, top: int = 10) -> str:
        """The terminal top-N report: findings, then plans."""
        out: list[str] = []
        ranked = self.profile is not None and not self.profile.empty
        head = "perfcheck findings" + (" (profile-ranked)" if ranked else "")
        out.append(f"{head}: {len(self.findings)} active, "
                   f"{len(self.suppressions)} suppressed")
        for i, d in enumerate(self.findings[:top]):
            secs = self.attributed.get(i, 0.0)
            prefix = f"  {secs * 1e3:8.2f} ms " if ranked else "  "
            out.append(f"{prefix}{d.format()}")
        if len(self.findings) > top:
            out.append(f"  ... {len(self.findings) - top} more "
                       f"(--top to widen, --json for all)")
        for trace in self.traces:
            fusion, arena = trace.fusion, trace.arena
            out.append(f"\n{trace.name}: {trace.nodes} IR nodes")
            out.append(f"  PC001 fusion: {len(fusion.groups)} group(s), "
                       f"{fusion.saved_bytes / 1e3:.1f} kB of intermediates "
                       f"fusable away")
            for g in fusion.groups[:top]:
                secs = (f" {g.attributed_seconds * 1e3:.3f} ms/step"
                        if ranked else "")
                label = f" [{g.label}]" if g.label else ""
                out.append(f"    group {g.id}: {'-'.join(g.ops)}{label} "
                           f"-> {tuple(g.nodes[-1].shape)}, saves "
                           f"{g.saved_bytes} B{secs}")
            out.append(f"  PC002 arena: peak live {arena.peak_live_bytes / 1e3:.1f} kB "
                       f"of {arena.total_alloc_bytes / 1e3:.1f} kB allocated "
                       f"({len(arena.slot_sizes)} slots, "
                       f"{arena.reuse_ratio:.0%} of per-op allocation avoidable)")
            out.append(f"  PC003 recompute: {len(trace.recompute)} "
                       f"cross-phase group(s)")
            for r in trace.recompute[:3]:
                name = r.label or r.op
                out.append(f"    '{name}' {r.shape} x{r.count} across "
                           f"{'/'.join(r.phases)} at {r.sites[0]}")
        return "\n".join(out)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _collect_suppressions(files: list[Path]) -> list[dict]:
    """Inventory every inline PF suppression (the baseline's second half)."""
    out: list[dict] = []
    for file in files:
        try:
            lines = file.read_text(encoding="utf-8").splitlines()
        except OSError:
            continue
        for lineno, line in enumerate(lines, start=1):
            match = _SUPPRESS_PF.search(line)
            if match is None:
                continue
            codes = sorted({c.strip().upper()
                            for c in match.group(1).split(",")
                            if c.strip().upper().startswith("PF")})
            if codes:
                out.append({"path": str(file), "line": lineno, "codes": codes})
    return out


def run_perfcheck(paths: list[str] | None = None,
                  root: str = "src/repro",
                  methods: tuple[str, ...] = ("garl",),
                  campus: str = "kaist", preset: str = "smoke",
                  num_ugvs: int = 3, num_uavs_per_ugv: int = 1, seed: int = 0,
                  profile_path: str | None = None,
                  static: bool = True, trace: bool = True) -> PerfcheckReport:
    """Run both halves and return the combined report (ranked)."""
    report = PerfcheckReport(paths=list(paths or ["src"]))

    if static:
        hot = build_hot_index(root) if Path(root).is_dir() else None
        rules = build_pf_rules(hot)
        files = _discover(report.paths)
        for file in files:
            report.findings.extend(lint_source(
                file.read_text(encoding="utf-8"), str(file), rules=rules))
        report.suppressions = _collect_suppressions(files)

    if trace:
        from ..graphcheck.runner import check_method

        for method in methods:
            method_report = check_method(
                method, campus=campus, preset=preset, num_ugvs=num_ugvs,
                num_uavs_per_ugv=num_uavs_per_ugv, seed=seed,
                include_cse=False)
            if method_report.skipped:
                continue
            for part, ir in method_report.irs.items():
                fusion = find_fusion_groups(ir)
                report.traces.append(TraceReport(
                    name=f"{method}.{part}", nodes=len(ir),
                    fusion=fusion,
                    arena=analyze_buffers(ir),
                    recompute=find_cross_phase_recompute(ir),
                    dot=fusion.to_dot(ir)))

    if profile_path:
        report.profile = load_profile(profile_path)
    report.rank()
    return report


# ----------------------------------------------------------------------
# Baseline gate
# ----------------------------------------------------------------------
def check_baseline(report: PerfcheckReport, baseline_path: str) -> list[str]:
    """Compare against a committed baseline; returns regression messages.

    A regression is a ``code path`` whose active-finding count *or*
    suppression count exceeds the baseline's — new findings must be
    fixed or suppressed-and-inventoried, and new suppressions must be
    justified by re-committing the baseline.
    """
    data = json.loads(Path(baseline_path).read_text())
    if data.get("schema") != BASELINE_SCHEMA:
        raise ValueError(f"{baseline_path}: expected schema {BASELINE_SCHEMA}, "
                         f"got {data.get('schema')!r}")
    problems: list[str] = []
    for kind, current, allowed in (
            ("finding", report.finding_counts(), data.get("findings", {})),
            ("suppression", report.suppression_counts(),
             data.get("suppressions", {}))):
        for key, count in current.items():
            if count > int(allowed.get(key, 0)):
                problems.append(
                    f"new {kind}: {key} (count {count} > baseline "
                    f"{allowed.get(key, 0)})")
    return problems


def write_baseline(report: PerfcheckReport, path: str) -> None:
    """Write the current state as the committed no-new-findings baseline."""
    Path(path).write_text(json.dumps({
        "schema": BASELINE_SCHEMA,
        "findings": report.finding_counts(),
        "suppressions": report.suppression_counts(),
    }, indent=2) + "\n")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro perfcheck",
        description="profile-guided performance static analysis: PF source "
                    "rules + fusion/buffer/recompute passes over a real "
                    "traced step (exit 1 on unsuppressed PF findings)")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories for the PF rules "
                             "(default: src)")
    parser.add_argument("--root", default="src/repro",
                        help="package root for hot-path call-graph "
                             "reachability (default: src/repro)")
    parser.add_argument("--methods", nargs="+", default=["garl"],
                        help="registry methods to trace for the IR passes "
                             "(default: garl)")
    parser.add_argument("--campus", default="kaist")
    parser.add_argument("--preset", default="smoke")
    parser.add_argument("--ugvs", type=int, default=3)
    parser.add_argument("--uavs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--profile", default=None, metavar="JSONL",
                        help="rank findings by a repro profile JSONL run")
    parser.add_argument("--top", type=int, default=10,
                        help="findings/groups per report section (default: 10)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the repro.perfcheck/1 artifact here")
    parser.add_argument("--dot", default=None, metavar="PREFIX",
                        help="write PREFIX.<trace>.fusion.dot group graphs")
    parser.add_argument("--static-only", action="store_true",
                        help="PF source rules only (skip the traced IR passes)")
    parser.add_argument("--trace-only", action="store_true",
                        help="IR passes only (skip the PF source rules)")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="fail on findings/suppressions not in this "
                             "committed baseline (CI gate)")
    parser.add_argument("--write-baseline", default=None, metavar="PATH",
                        help="write the current state as the new baseline "
                             "and exit 0")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the PF rule table and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in PF_RULES:
            print(f"{rule.code}  {rule.name:<26} {rule.description}")
        return 0

    try:
        report = run_perfcheck(
            paths=args.paths, root=args.root, methods=tuple(args.methods),
            campus=args.campus, preset=args.preset, num_ugvs=args.ugvs,
            num_uavs_per_ugv=args.uavs, seed=args.seed,
            profile_path=args.profile,
            static=not args.trace_only, trace=not args.static_only)
    except FileNotFoundError as exc:
        print(f"perfcheck: {exc}", file=sys.stderr)
        return 2

    print(report.format_report(top=args.top))

    if args.json:
        Path(args.json).write_text(report.to_json() + "\n")
        print(f"\nwrote {args.json}")
    if args.dot:
        for trace in report.traces:
            dot_path = Path(f"{args.dot}.{trace.name}.fusion.dot")
            dot_path.write_text(trace.dot + "\n")
            print(f"wrote {dot_path}")
    if args.write_baseline:
        write_baseline(report, args.write_baseline)
        print(f"baseline written to {args.write_baseline}")
        return 0

    if args.baseline:
        problems = check_baseline(report, args.baseline)
        if problems:
            print(f"\nperfcheck baseline gate: {len(problems)} regression(s)")
            for p in problems:
                print(f"  {p}")
            return 1
        print("\nperfcheck baseline gate: no new findings")
        return 0

    return 1 if report.findings else 0


if __name__ == "__main__":
    sys.exit(main())
