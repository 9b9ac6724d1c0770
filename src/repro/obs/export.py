"""Profile exporters: Chrome ``trace_event`` JSON, JSONL, text tables.

Three consumers, three formats:

* :func:`write_chrome_trace` — a ``trace_event``-format JSON file that
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing`` opens
  directly: scopes on one track, per-op events on a second.
* :func:`write_profile_jsonl` — one JSON object per line (scopes,
  counters, gauges, histograms, op rows, and a ``meta`` line), for
  ad-hoc ``jq``/pandas analysis alongside ``train.jsonl``.
* :func:`format_top_table` / :func:`format_op_table` — plain-text top-N
  tables for terminal output (`repro profile` prints these).

The Chrome exporter emits only the stable core of the spec — ``X``
(complete) duration events with microsecond ``ts``/``dur`` plus ``M``
metadata records — so any trace viewer accepts it; the schema is pinned
by a golden-file test (``tests/obs/test_export.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

from .opprof import OpProfile
from .scope import Profiler

__all__ = ["chrome_trace_events", "write_chrome_trace",
           "write_profile_jsonl", "format_top_table", "format_op_table"]

# Fixed pid/tid lanes of the exported trace (one process, two threads).
_PID = 1
_TID_SCOPES = 1
_TID_OPS = 2


def chrome_trace_events(profiler: Profiler | None = None,
                        ops: OpProfile | None = None) -> list[dict]:
    """Build the ``traceEvents`` list for :func:`write_chrome_trace`."""
    events: list[dict] = [
        {"ph": "M", "pid": _PID, "tid": _TID_SCOPES, "name": "process_name",
         "args": {"name": "repro"}},
        {"ph": "M", "pid": _PID, "tid": _TID_SCOPES, "name": "thread_name",
         "args": {"name": "scopes"}},
    ]
    if ops is not None:
        events.append({"ph": "M", "pid": _PID, "tid": _TID_OPS,
                       "name": "thread_name", "args": {"name": "autodiff ops"}})
    if profiler is not None:
        for path, start, dur in profiler.events:
            events.append({"ph": "X", "pid": _PID, "tid": _TID_SCOPES,
                           "name": path, "cat": "scope",
                           "ts": round(start * 1e6, 3),
                           "dur": round(dur * 1e6, 3)})
    if ops is not None:
        for name, start, dur in ops.events:
            events.append({"ph": "X", "pid": _PID, "tid": _TID_OPS,
                           "name": name, "cat": "op",
                           "ts": round(start * 1e6, 3),
                           "dur": round(dur * 1e6, 3)})
    return events


def write_chrome_trace(path: str | Path, profiler: Profiler | None = None,
                       ops: OpProfile | None = None) -> Path:
    """Write a Chrome ``trace_event`` file; returns the written path.

    Open the result in Perfetto (drag-and-drop at ui.perfetto.dev) or
    ``chrome://tracing``.  Scope events and op events land on separate
    tracks of the same process, sharing one timebase, so "which ops
    make this scope slow" is a zoom away.
    """
    payload = {
        "traceEvents": chrome_trace_events(profiler, ops),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs"},
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload) + "\n")
    return path


def write_profile_jsonl(path: str | Path, profiler: Profiler | None = None,
                        ops: OpProfile | None = None) -> Path:
    """Write scope/metric/op aggregates as JSON lines; returns the path.

    Line kinds (discriminated by the ``kind`` field): ``meta``,
    ``scope``, ``counter``, ``gauge``, ``histogram``, ``op``.  With a
    profiler, ``meta`` carries the process's ``peak_rss_mb`` and each
    ``scope`` line its ``rss_rise_mb``.
    """
    lines: list[dict] = []
    meta: dict = {"kind": "meta"}
    if profiler is not None:
        meta["wall_seconds"] = profiler.wall_seconds
        meta["attributed_seconds"] = profiler.attributed_seconds
        meta["scope_coverage"] = profiler.coverage()
        meta["peak_rss_mb"] = profiler.peak_rss_mb
    if ops is not None:
        meta["op_wall_seconds"] = ops.wall_seconds
        meta["op_attributed_seconds"] = ops.total_op_seconds
        meta["op_calls"] = ops.total_calls
    lines.append(meta)
    if profiler is not None:
        for stats in profiler.sorted_stats("total_seconds"):
            lines.append({"kind": "scope", **stats.as_dict()})
        snapshot = profiler.metrics.as_dict()
        for name, value in snapshot["counters"].items():
            lines.append({"kind": "counter", "name": name, "value": value})
        for name, value in snapshot["gauges"].items():
            lines.append({"kind": "gauge", "name": name, "value": value})
        for name, hist in snapshot["histograms"].items():
            lines.append({"kind": "histogram", "name": name, **hist})
    if ops is not None:
        for row in ops.top(len(ops.rows)):
            lines.append({"kind": "op", **row.as_dict()})
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for line in lines:
            fh.write(json.dumps(line) + "\n")
    return path


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:10.2f}"


def format_top_table(profiler: Profiler, n: int = 15) -> str:
    """Top-``n`` scopes by self time, with counts and wall-time shares."""
    wall = profiler.wall_seconds
    if wall is None or wall <= 0:
        wall = max(profiler.attributed_seconds, 1e-12)
    header = (f"{'scope':<44} {'calls':>8} {'total ms':>10} {'self ms':>10} "
              f"{'% wall':>7}")
    rows = [header, "-" * len(header)]
    for stats in profiler.sorted_stats("self_seconds")[:n]:
        pct = 100.0 * stats.self_seconds / wall
        rows.append(f"{stats.path:<44} {stats.count:>8} "
                    f"{_fmt_ms(stats.total_seconds)} "
                    f"{_fmt_ms(stats.self_seconds)} {pct:>6.1f}%")
    rows.append("-" * len(header))
    rows.append(f"{'attributed to named scopes':<44} {'':>8} "
                f"{_fmt_ms(profiler.attributed_seconds)} {'':>10} "
                f"{100.0 * profiler.coverage():>6.1f}%")
    return "\n".join(rows)


def format_op_table(ops: OpProfile, n: int = 15) -> str:
    """Top-``n`` autodiff ops by attributed time.

    Columns: op name, ``annotate()`` label, originating module, call
    count, attributed wall time, output bytes, estimated MFLOPs.
    """
    wall = max(ops.wall_seconds, 1e-12)
    header = (f"{'op':<14} {'label':<22} {'module':<20} {'calls':>8} "
              f"{'total ms':>10} {'MB out':>8} {'MFLOPs':>9} {'% wall':>7}")
    rows = [header, "-" * len(header)]
    for row in ops.top(n):
        pct = 100.0 * row.seconds / wall
        rows.append(
            f"{row.op:<14} {row.label:<22.22} {row.module:<20.20} "
            f"{row.calls:>8} {_fmt_ms(row.seconds)} "
            f"{row.bytes / 1e6:>8.2f} {row.flops / 1e6:>9.2f} {pct:>6.1f}%")
    rows.append("-" * len(header))
    rows.append(f"{'all ops':<14} {'':<22} {'':<20} {ops.total_calls:>8} "
                f"{_fmt_ms(ops.total_op_seconds)} {'':>8} {'':>9} "
                f"{100.0 * ops.total_op_seconds / wall:>6.1f}%")
    return "\n".join(rows)
