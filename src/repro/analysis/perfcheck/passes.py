"""Performance passes over the graphcheck IR (report mode).

Where the PF rules read *source*, these read the *compiled graph* of a
real traced training step (:mod:`repro.analysis.graphcheck.ir`):

* **PC001 fusion-group discovery** — maximal chains of elementwise ops
  where every internal edge has a single consumer.  Each group can
  execute as one fused kernel with no intermediate materialisation; the
  emitted :class:`FusionPlan` lists the groups and the bytes they stop
  allocating.
* **PC002 buffer-lifetime analysis** — last-use liveness for every
  op output, the peak of live bytes over the execution order, and a
  greedy arena assignment mapping each output to a reusable slot.  The
  :class:`ArenaPlan`'s invariant — ``peak_live_bytes <= arena_bytes <
  total_alloc_bytes`` on any non-trivial graph — is what per-op
  allocation leaves on the table.
* **PC003 cross-phase recompute** — value-numbered subgraphs (GC005's
  numbering) whose instances span *different* trace phases: work the
  forward pass already did and the loss phase pays for again.

The fusion/liveness/value-numbering machinery itself lives in
:mod:`repro.analysis.graphcheck.transforms`, shared with GC005; this
module keeps the analyzer-facing surface (same names, same artifacts)
plus the PC003 pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graphcheck.ir import ELEMENTWISE_OPS, GraphIR, IRNode
from ..graphcheck.transforms import (ArenaPlan, FusionGroup, FusionPlan,
                                     analyze_buffers, find_fusion_groups,
                                     node_bytes as _node_bytes, value_number)

__all__ = ["FusionGroup", "FusionPlan", "ArenaPlan", "RecomputeFinding",
           "find_fusion_groups", "analyze_buffers", "find_cross_phase_recompute",
           "ELEMENTWISE_OPS"]


# ----------------------------------------------------------------------
# PC003 — cross-phase recompute
# ----------------------------------------------------------------------
@dataclass
class RecomputeFinding:
    """One value-numbered subgraph recomputed across trace phases."""

    op: str
    label: str
    shape: tuple[int, ...]
    count: int
    phases: list[str]
    bytes_each: int
    sites: list[str]

    def as_dict(self) -> dict:
        return {"op": self.op, "label": self.label, "shape": list(self.shape),
                "count": self.count, "phases": self.phases,
                "bytes_each": self.bytes_each, "sites": self.sites}


def find_cross_phase_recompute(ir: GraphIR,
                               max_reports: int = 20) -> list[RecomputeFinding]:
    """PC003: GC005's value numbering, filtered to phase-spanning groups.

    Two nodes share a value number only when they computed the same
    value from the same expression (op + input numbers + output data
    fingerprint).  A group whose instances span more than one phase is
    the forward pass's work being redone in the loss phase — exactly
    what a cross-phase cache eliminates.
    """
    vn = value_number(ir)
    groups: dict[int, list[IRNode]] = {}
    for n in ir:
        if not n.is_leaf:
            groups.setdefault(vn[n.id], []).append(n)

    findings: list[RecomputeFinding] = []
    for nodes in groups.values():
        if len(nodes) < 2:
            continue
        phases = sorted({n.phase for n in nodes if n.phase})
        if len(phases) < 2:
            continue
        head = nodes[0]
        findings.append(RecomputeFinding(
            op=head.op, label=head.label, shape=tuple(head.shape),
            count=len(nodes), phases=phases,
            bytes_each=_node_bytes(head),
            sites=sorted({n.location() for n in nodes})))
    findings.sort(key=lambda f: (-f.count * f.bytes_each, f.op))
    return findings[:max_reports]
