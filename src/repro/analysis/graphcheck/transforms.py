"""Shared IR passes: value numbering, fusion grouping, buffer liveness.

The GC005 common-subexpression check (:mod:`.passes`) and the perfcheck
report passes (:mod:`repro.analysis.perfcheck.passes`: PC001 fusion
groups, PC002 arena plans, PC003 recompute findings) all run on these.

Value numbering keys by data: two leaves share a number when their
*data* matches (shape + dtype + fingerprint), and op keys include an
output-data fingerprint.  ``x + y`` computed twice from equal arrays is
a caching opportunity regardless of where the arrays came from.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .ir import ELEMENTWISE_OPS, GraphIR, IRNode

__all__ = [
    "FusionGroup", "FusionPlan", "ArenaPlan",
    "find_fusion_groups", "analyze_buffers",
    "value_number", "find_duplicates", "node_bytes",
]


def node_bytes(node: IRNode) -> int:
    """Output-buffer size of one op, from its recorded shape and dtype."""
    elems = int(np.prod(node.shape)) if node.shape else 1
    try:
        itemsize = np.dtype(node.dtype).itemsize
    except TypeError:
        itemsize = 8
    return elems * itemsize


# ----------------------------------------------------------------------
# Value numbering (generalises GC005; feeds PC003)
# ----------------------------------------------------------------------
def value_number(ir: GraphIR) -> dict[int, int]:
    """Assign interned value numbers to every node (see module docstring).

    Keys are interned to small integers so a key never nests another
    key: hashing stays O(fan-in) per node instead of exploding with
    graph depth.
    """
    numbers: dict[tuple, int] = {}
    vn: dict[int, int] = {}
    for n in ir:
        if n.is_leaf:
            key = ("leaf", n.requires_grad, _data_fingerprint(n))
        else:
            key = (n.op, tuple(vn[i] for i in n.inputs),
                   _data_fingerprint(n))
        vn[n.id] = numbers.setdefault(key, len(numbers))
    return vn


def _data_fingerprint(n: IRNode) -> tuple:
    if n.data is None:
        return ("nodata", n.id)
    return (n.data.shape, str(n.data.dtype), zlib.adler32(n.data.tobytes()))


def find_duplicates(ir: GraphIR, vn: dict[int, int]) -> dict[int, int]:
    """Map each duplicated non-leaf node to its first (representative)
    occurrence under the given value numbering."""
    rep_of_number: dict[int, int] = {}
    dup: dict[int, int] = {}
    for n in ir:
        if n.is_leaf:
            continue
        number = vn[n.id]
        rep = rep_of_number.setdefault(number, n.id)
        if rep != n.id:
            dup[n.id] = rep
    return dup


# ----------------------------------------------------------------------
# Elementwise fusion (PC001)
# ----------------------------------------------------------------------
@dataclass
class FusionGroup:
    """One fusable chain: node ids in topological order."""

    id: int
    nodes: list[IRNode]
    attributed_seconds: float = 0.0

    @property
    def ops(self) -> list[str]:
        return [n.op for n in self.nodes]

    @property
    def saved_bytes(self) -> int:
        """Intermediates a fused kernel never materialises (all but last)."""
        return sum(node_bytes(n) for n in self.nodes[:-1])

    @property
    def label(self) -> str:
        labels = [n.label for n in self.nodes if n.label]
        return labels[0] if labels else ""

    def sites(self) -> list[str]:
        return sorted({n.location() for n in self.nodes})

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "ops": self.ops,
            "label": self.label,
            "output_shape": list(self.nodes[-1].shape),
            "saved_bytes": self.saved_bytes,
            "attributed_seconds": self.attributed_seconds,
            "sites": self.sites(),
            "nodes": [n.id for n in self.nodes],
        }


@dataclass
class FusionPlan:
    """The PC001 artifact: every discovered group, largest first."""

    groups: list[FusionGroup] = field(default_factory=list)

    @property
    def saved_bytes(self) -> int:
        return sum(g.saved_bytes for g in self.groups)

    def as_dict(self) -> dict:
        return {"version": 1,
                "groups": [g.as_dict() for g in self.groups],
                "saved_bytes": self.saved_bytes}

    def to_dot(self, ir: GraphIR) -> str:
        """DOT rendering: fusion groups as clusters over the op graph."""
        member: dict[int, int] = {}
        for g in self.groups:
            for n in g.nodes:
                member[n.id] = g.id
        lines = ["digraph fusion {", "  rankdir=BT;",
                 '  node [fontsize=9, fontname="monospace"];']
        for g in self.groups:
            lines.append(f"  subgraph cluster_{g.id} {{")
            lines.append(f'    label="group {g.id}'
                         + (f" [{g.label}]" if g.label else "")
                         + f'\\nsaves {g.saved_bytes} B"; color=blue;')
            for n in g.nodes:
                lines.append(f'    n{n.id} [label="{n.op}\\n{tuple(n.shape)}"];')
            lines.append("  }")
        for n in ir:
            if n.is_leaf:
                continue
            if n.id not in member:
                lines.append(f'  n{n.id} [label="{n.op}", color=gray];')
            for src in n.inputs:
                if src in member or not ir.node(src).is_leaf:
                    lines.append(f"  n{src} -> n{n.id};")
        lines.append("}")
        return "\n".join(lines)


def find_fusion_groups(ir: GraphIR, min_size: int = 2) -> FusionPlan:
    """Greedy maximal single-consumer elementwise chains (PC001).

    Walk the IR in topological order.  An elementwise node joins its
    producer's group when that producer is elementwise and the node is
    its *only* consumer (so fusing never duplicates work or keeps a
    buffer alive for an outside reader); otherwise it starts a new
    group.  Groups below ``min_size`` are dropped — a single op has
    nothing to fuse with.
    """
    consumers = ir.consumers()
    group_of: dict[int, list[IRNode]] = {}
    for node in ir:
        if node.is_leaf or node.op not in ELEMENTWISE_OPS:
            continue
        joined = None
        for src in node.inputs:
            parent = ir.node(src)
            if (not parent.is_leaf and parent.op in ELEMENTWISE_OPS
                    and len(consumers[src]) == 1 and src in group_of):
                joined = group_of[src]
                break
        if joined is None:
            joined = []
        joined.append(node)
        group_of[node.id] = joined

    seen: set[int] = set()
    groups: list[FusionGroup] = []
    for node in ir:
        chain = group_of.get(node.id)
        if chain is None or id(chain) in seen or len(chain) < min_size:
            continue
        seen.add(id(chain))
        groups.append(FusionGroup(id=len(groups), nodes=chain))
    groups.sort(key=lambda g: (-len(g.nodes), -g.saved_bytes, g.nodes[0].id))
    for i, g in enumerate(groups):
        g.id = i
    return FusionPlan(groups)


# ----------------------------------------------------------------------
# Buffer lifetime + arena assignment (PC002)
# ----------------------------------------------------------------------
@dataclass
class ArenaPlan:
    """The PC002 artifact: liveness, peak bytes, and slot assignments."""

    total_alloc_bytes: int = 0
    peak_live_bytes: int = 0
    peak_at_node: int = -1
    arena_bytes: int = 0
    slot_sizes: list[int] = field(default_factory=list)
    # node id -> (slot index, bytes, first topo index, last-use topo index)
    assignments: dict[int, tuple[int, int, int, int]] = field(default_factory=dict)

    @property
    def reuse_ratio(self) -> float:
        """Fraction of per-op allocation an arena avoids (1 = everything)."""
        if self.total_alloc_bytes <= 0:
            return 0.0
        return 1.0 - self.arena_bytes / self.total_alloc_bytes

    def as_dict(self) -> dict:
        return {
            "version": 1,
            "total_alloc_bytes": self.total_alloc_bytes,
            "peak_live_bytes": self.peak_live_bytes,
            "peak_at_node": self.peak_at_node,
            "arena_bytes": self.arena_bytes,
            "reuse_ratio": self.reuse_ratio,
            "slots": [{"slot": i, "bytes": b}
                      for i, b in enumerate(self.slot_sizes)],
            "assignments": [
                {"node": nid, "slot": slot, "bytes": size,
                 "live": [first, last]}
                for nid, (slot, size, first, last)
                in sorted(self.assignments.items())
            ],
        }


def analyze_buffers(ir: GraphIR) -> ArenaPlan:
    """Last-use liveness, peak-live-bytes, greedy arena slots (PC002).

    Only op outputs count — leaves and parameters live outside the tape
    and are not the allocator's to reuse.  Roots (the loss) stay live to
    the end of the program, like the real tape does.  The greedy slot
    policy is best-fit on size: when a buffer is freed its slot returns
    to a free list; an allocation takes the smallest free slot that
    fits, growing it if the fit is only partial, and opens a new slot
    only when none is free.
    An op's output slot is assigned *before* its inputs' slots are
    released, so a slot never aliases a live operand.
    """
    order = {n.id: i for i, n in enumerate(ir)}
    last_use: dict[int, int] = {}
    ops = [n for n in ir if not n.is_leaf]
    pinned = set(ir.roots)
    end = len(ir.nodes)
    for n in ir:
        for src in n.inputs:
            last_use[src] = order[n.id]
    plan = ArenaPlan()

    # Liveness sweep in execution order for the true peak.
    live: dict[int, int] = {}
    live_bytes = 0
    for n in ir:
        if n.is_leaf:
            continue
        size = node_bytes(n)
        plan.total_alloc_bytes += size
        live[n.id] = size
        live_bytes += size
        if live_bytes > plan.peak_live_bytes:
            plan.peak_live_bytes = live_bytes
            plan.peak_at_node = n.id
        # Free every buffer whose last consumer just ran.
        for nid in [nid for nid in live
                    if last_use.get(nid, end if nid in pinned else order[nid])
                    <= order[n.id] and nid != n.id and nid not in pinned]:
            live_bytes -= live.pop(nid)

    # Greedy best-fit arena assignment over the same order.
    free: list[int] = []          # free slot indices
    slot_sizes: list[int] = []
    slot_of: dict[int, int] = {}
    for n in ops:
        size = node_bytes(n)
        fit = None
        for idx in free:
            if fit is None or abs(slot_sizes[idx] - size) < abs(slot_sizes[fit] - size):
                fit = idx
        if fit is not None:
            free.remove(fit)
            slot_sizes[fit] = max(slot_sizes[fit], size)
            slot = fit
        else:
            slot = len(slot_sizes)
            slot_sizes.append(size)
        slot_of[n.id] = slot
        plan.assignments[n.id] = (
            slot, size, order[n.id],
            last_use.get(n.id, end if n.id in pinned else order[n.id]))
        # Release slots of inputs whose last use was this node.
        for src in n.inputs:
            if (src in slot_of and src not in pinned
                    and last_use.get(src) == order[n.id]
                    and slot_of[src] not in free):
                free.append(slot_of[src])
    plan.slot_sizes = slot_sizes
    plan.arena_bytes = sum(slot_sizes)
    return plan
