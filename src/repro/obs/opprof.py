"""Per-op autodiff profiler built on the ``repro.nn.trace`` tape tracer.

:func:`profile_ops` runs a callable under a timing variant of the PR-2
tape tracer and compiles the recorded tape into per-op aggregates: wall
time, call counts, output-tensor bytes and an estimated-FLOPs column,
grouped by ``(op, annotate() label, module)``.  The module column is
derived from each op's creation site, so a row reads like
``matmul  [mc_gcn.attention]  core.mc_gcn  1840 calls  12.3 ms``.

Attribution model
-----------------

The engine is eager: one tensor is created per op, in execution order,
and the tracer hook fires inside ``Tensor._make_child``.  The profiler
therefore charges each op the time elapsed since the *previous* op's
hook fired (or since the profiled callable started, for the first op).
Python-level glue between two ops is charged to the later op — exact
per-kernel timing is impossible without instrumenting every op body,
and this approximation is standard for eager-tape profilers.  Two
consequences to keep in mind:

* backward passes create no tape entries (gradients accumulate through
  closures, not ``_make_child``), so backward time is *not* in the op
  table — the scope timers (``update/*/backward``) cover it;
* time spent entirely outside tensor ops (env stepping, numpy
  pre-processing) accrues to no row; compare ``total_op_seconds``
  against ``wall_seconds`` to see that share.

FLOPs are estimates from output/input shapes (2·M·N·K for matmuls,
element counts for pointwise math, zero for pure data movement); they
rank rows and make tensor-shape regressions visible, they are not a
hardware roofline.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Sequence

import numpy as np

from ..nn.tracer import _creation_site, trace

__all__ = ["OpStats", "OpProfile", "TimedTrace", "profile_ops",
           "estimate_flops"]

# Ops that move or view data without arithmetic: zero estimated FLOPs.
_DATA_MOVEMENT_OPS = frozenset({
    "getitem", "reshape", "flatten", "transpose", "swapaxes", "stack",
    "concat", "expand_dims", "squeeze", "pad", "where",
})

# Pointwise transcendental / multi-pass composites get a small constant
# factor over one-op-per-element so they rank above plain arithmetic.
_COMPOSITE_FACTORS = {"softmax": 5.0, "log_softmax": 5.0, "norm": 3.0}


def estimate_flops(op: str, child_shape: tuple[int, ...],
                   parent_shapes: Sequence[tuple[int, ...]]) -> float:
    """Estimated floating-point operations for one recorded op.

    Heuristic by construction (see module docstring): matmul counts
    2·M·N·K using the contraction width from the first parent, pointwise
    ops count one FLOP per output element, reductions count one per
    *input* element, and pure data movement counts zero.
    """
    out_elems = float(np.prod(child_shape)) if child_shape else 1.0
    if op in _DATA_MOVEMENT_OPS:
        return 0.0
    if op == "matmul":
        inner = parent_shapes[0][-1] if parent_shapes and parent_shapes[0] else 1
        return 2.0 * out_elems * float(inner)
    if op in _COMPOSITE_FACTORS:
        return _COMPOSITE_FACTORS[op] * out_elems
    if op in ("sum", "mean", "max", "min"):
        if parent_shapes and parent_shapes[0]:
            return float(np.prod(parent_shapes[0]))
        return out_elems
    # Pointwise arithmetic, activations, comparisons: 1 FLOP/element.
    return out_elems


class OpRecord:
    """What the op table keeps of one recorded op: no tensor references."""

    __slots__ = ("op", "label", "site", "shape", "parent_shapes", "nbytes",
                 "time")

    def __init__(self, op: str, site: str, shape: tuple[int, ...],
                 parent_shapes: tuple[tuple[int, ...], ...], nbytes: int,
                 stamp: float):
        self.op = op
        self.label = ""
        self.site = site
        self.shape = shape
        self.parent_shapes = parent_shapes
        self.nbytes = nbytes
        self.time = stamp


class TimedTrace(trace):
    """A ``repro.nn.trace`` that keeps only what the op table needs.

    The base tape holds every recorded tensor, and through ``_prev`` its
    whole graph, for the life of the trace; a profiled training run
    cannot afford that.  Each :class:`OpRecord` here keeps the op name,
    ``annotate()`` label, creation site, shapes, output bytes and a
    ``perf_counter`` stamp.  A label attaches to the op that created the
    tensor while that op is still the latest one recorded, which is how
    every ``annotate()`` call applies it (``annotate(x.softmax(), ...)``).
    """

    # This override adds a frame between _make_child and record_op's
    # stack walk, so the creation site must skip this file (and the
    # op-name frame lookup below must happen *here*, where _getframe(2)
    # still lands on the op).
    _extra_site_skip = ("opprof.py",)

    def __init__(self, site_provenance: bool = True):
        super().__init__(site_provenance=site_provenance)
        self._last: tuple | None = None  # (tensor, OpRecord) of the latest op

    def __exit__(self, *exc_info) -> None:
        super().__exit__(*exc_info)
        self._last = None

    def record_op(self, child, parents, op) -> None:
        if op is None:
            op = sys._getframe(2).f_code.co_name.strip("_")
        site = (_creation_site(self._extra_site_skip) if self._sites
                else "<untracked>")
        rec = OpRecord(op, site, child.data.shape,
                       tuple(p.shape for p in parents if hasattr(p, "shape")),
                       child.data.nbytes, time.perf_counter())
        self.records.append(rec)
        self._last = (child, rec)

    def label(self, tensor, label: str) -> None:
        if self._last is not None and self._last[0] is tensor:
            self._last[1].label = label


class OpStats:
    """One aggregated row of the op table."""

    __slots__ = ("op", "label", "module", "calls", "seconds", "bytes",
                 "flops")

    def __init__(self, op: str, label: str, module: str):
        self.op = op
        self.label = label
        self.module = module
        self.calls = 0
        self.seconds = 0.0
        self.bytes = 0
        self.flops = 0.0

    def as_dict(self) -> dict:
        """JSON-able row (key order matches the text table columns)."""
        return {"op": self.op, "label": self.label, "module": self.module,
                "calls": self.calls, "seconds": self.seconds,
                "bytes": self.bytes, "est_flops": self.flops}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"OpStats(op={self.op!r}, label={self.label!r}, "
                f"calls={self.calls}, seconds={self.seconds:.6f})")


def _module_from_site(site: str) -> str:
    """Dotted module path from a tracer creation site.

    ``.../src/repro/core/mc_gcn.py:118 in forward`` → ``core.mc_gcn``;
    sites outside the ``repro`` package keep their bare file name.
    """
    head = site.split(":", 1)[0].replace("\\", "/")
    marker = "repro/"
    idx = head.rfind(marker)
    if idx >= 0:
        rel = head[idx + len(marker):]
    else:
        rel = head.rsplit("/", 1)[-1]
    if rel.endswith(".py"):
        rel = rel[:-3]
    return rel.replace("/", ".")


class OpProfile:
    """Compiled result of :func:`profile_ops`.

    Attributes
    ----------
    rows:
        Aggregated :class:`OpStats`, one per ``(op, label, module)``.
    events:
        ``(name, start_offset_s, duration_s)`` per recorded op, aligned
        to the profiled callable's start — feeds the Chrome trace
        exporter's ops thread.
    wall_seconds:
        Total duration of the profiled callable.
    total_op_seconds:
        Sum of per-op attributed time (≤ ``wall_seconds``; the gap is
        time outside tensor ops, e.g. env stepping or backward).
    result:
        Whatever the profiled callable returned.
    """

    def __init__(self, rows: list[OpStats], events: list[tuple[str, float, float]],
                 wall_seconds: float, result=None):
        self.rows = rows
        self.events = events
        self.wall_seconds = wall_seconds
        self.total_op_seconds = sum(r.seconds for r in rows)
        self.total_calls = sum(r.calls for r in rows)
        self.result = result

    def top(self, n: int = 15, key: str = "seconds") -> list[OpStats]:
        """The ``n`` costliest rows, descending by ``key``."""
        return sorted(self.rows, key=lambda r: getattr(r, key),
                      reverse=True)[:n]

    def __len__(self) -> int:
        return len(self.rows)


def profile_ops(fn: Callable[[], object], *, site_provenance: bool = True,
                max_events: int = 200_000) -> OpProfile:
    """Run ``fn`` under a timed tape trace and aggregate per-op stats.

    ``fn`` runs exactly once; its return value is kept on
    ``OpProfile.result``.  Cannot nest inside another active
    ``repro.nn.trace`` scope (e.g. a graphcheck run) — the tracer's
    no-nesting rule applies.

    ``site_provenance=False`` skips the per-op stack walk (dropping the
    module column) when tracing very hot loops.
    """
    t_start = time.perf_counter()
    with TimedTrace(site_provenance=site_provenance) as tape:
        result = fn()
    wall = time.perf_counter() - t_start

    rows: dict[tuple[str, str, str], OpStats] = {}
    events: list[tuple[str, float, float]] = []
    prev = t_start
    for rec in tape.records:
        stamp = rec.time
        dt = stamp - prev
        prev = stamp
        module = _module_from_site(rec.site) if site_provenance else ""
        key = (rec.op, rec.label, module)
        row = rows.get(key)
        if row is None:
            row = rows[key] = OpStats(rec.op, rec.label, module)
        row.calls += 1
        row.seconds += dt
        row.bytes += rec.nbytes
        row.flops += estimate_flops(rec.op, rec.shape, rec.parent_shapes)
        if len(events) < max_events:
            name = f"{rec.op} [{rec.label}]" if rec.label else rec.op
            events.append((name, stamp - t_start - dt, dt))
    return OpProfile(list(rows.values()), events, wall, result)
