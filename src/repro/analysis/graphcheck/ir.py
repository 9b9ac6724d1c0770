"""Typed graph IR compiled from a traced autodiff tape.

:func:`build_ir` turns the :class:`repro.nn.tracer.trace` records of one
step into a :class:`GraphIR`: a topologically ordered list of
:class:`IRNode` carrying op name, shape, dtype, ``requires_grad``,
creation site, ``annotate()`` label, phase tag and input edges.  Leaves
(tensors created outside the engine's ``_make_child`` — inputs,
constants, parameters) get synthetic nodes so every edge resolves.

The IR is *value-carrying*: each node keeps a reference to the traced
tensor's array so data-dependent invariant passes (softmax rows) can
inspect actual values.  Serialisation (:meth:`GraphIR.to_json`,
:meth:`GraphIR.to_dot`) drops the values and keeps the structure.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

__all__ = ["IRNode", "GraphIR", "build_ir", "OpSpec", "OP_REGISTRY",
           "UNARY_SAME_SHAPE_OPS", "BINARY_BROADCAST_OPS",
           "OPAQUE_BATCH_PRESERVING_OPS", "VIEW_OPS", "REDUCTION_OPS"]


# ----------------------------------------------------------------------
# Op registry
# ----------------------------------------------------------------------
# The single classification table for every op the engine records (plus
# a few legacy aliases that lower to other ops before recording).  The
# GC001 shape checker derives its op sets from here.
@dataclass(frozen=True)
class OpSpec:
    """Classification of one engine op.

    ``kind`` is the structural family:

    * ``unary`` / ``binary`` / ``select`` — pointwise math (select is
      ``where``: condition plus two broadcast operands);
    * ``rowwise`` — same-shape but normalises along an axis
      (softmax/log_softmax);
    * ``reduction`` — collapses axes (sum/max/...);
    * ``view`` — pure data movement, no arithmetic;
    * ``contraction`` — matmul;
    * ``opaque`` — batch-preserving ops the shape checker treats as
      black boxes (indexing, conv, pooling, the fused MC-GCN layer).
    """

    kind: str


OP_REGISTRY: dict[str, OpSpec] = {
    # Pointwise unaries.
    "neg": OpSpec("unary"), "exp": OpSpec("unary"),
    "log": OpSpec("unary"), "sqrt": OpSpec("unary"),
    "tanh": OpSpec("unary"), "sigmoid": OpSpec("unary"),
    "relu": OpSpec("unary"), "leaky_relu": OpSpec("unary"),
    "abs": OpSpec("unary"), "clip": OpSpec("unary"),
    "erf": OpSpec("unary"), "dropout": OpSpec("unary"),
    # Row-local composites: same shape, not elementwise.
    "softmax": OpSpec("rowwise"), "log_softmax": OpSpec("rowwise"),
    # Broadcasting binaries.
    "add": OpSpec("binary"), "sub": OpSpec("binary"),
    "mul": OpSpec("binary"), "truediv": OpSpec("binary"),
    "pow": OpSpec("binary"), "maximum": OpSpec("binary"),
    "minimum": OpSpec("binary"),
    # Masked select.
    "where": OpSpec("select"),
    # Contractions.
    "matmul": OpSpec("contraction"),
    # Reductions.
    "sum": OpSpec("reduction"), "mean": OpSpec("reduction"),
    "max": OpSpec("reduction"), "min": OpSpec("reduction"),
    # Pure data movement.
    "reshape": OpSpec("view"), "flatten": OpSpec("view"),
    "transpose": OpSpec("view"), "swapaxes": OpSpec("view"),
    "expand_dims": OpSpec("view"), "squeeze": OpSpec("view"),
    "concat": OpSpec("view"), "stack": OpSpec("view"), "pad": OpSpec("view"),
    # Opaque batch-preserving ops.
    "getitem": OpSpec("opaque"), "gather": OpSpec("opaque"),
    "embedding_lookup": OpSpec("opaque"), "conv2d": OpSpec("opaque"),
    "max_pool2d": OpSpec("opaque"), "avg_pool2d": OpSpec("opaque"),
    "mc_gcn_layer": OpSpec("opaque"), "ecomm_fused": OpSpec("opaque"),
}


def _ops_where(predicate) -> frozenset:
    return frozenset(name for name, spec in OP_REGISTRY.items()
                     if predicate(spec))


#: Shape-preserving unaries for GC001 symbolic shape propagation.
UNARY_SAME_SHAPE_OPS = _ops_where(lambda s: s.kind in ("unary", "rowwise"))
#: Broadcasting binaries for GC001.
BINARY_BROADCAST_OPS = _ops_where(lambda s: s.kind == "binary")
#: Black-box batch-preserving ops for GC001.
OPAQUE_BATCH_PRESERVING_OPS = _ops_where(lambda s: s.kind == "opaque")
#: Pure data movement (zero estimated FLOPs).
VIEW_OPS = _ops_where(lambda s: s.kind == "view")
#: Axis-collapsing reductions.
REDUCTION_OPS = _ops_where(lambda s: s.kind == "reduction")


@dataclass
class IRNode:
    """One vertex of the compiled graph."""

    id: int
    op: str                      # engine op name, or "leaf" / "param"
    shape: tuple[int, ...]
    dtype: str
    requires_grad: bool
    site: str = ""               # "path:line in func" creation site
    label: str = ""              # annotate() label, if any
    phase: str = ""              # trace phase tag ("forward", "loss", ...)
    inputs: tuple[int, ...] = ()
    param_path: str = ""         # module path when this is a Parameter leaf
    has_grad: bool = False       # grad was populated when the IR was built
    # Reference to the traced array; not serialised.
    data: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def is_leaf(self) -> bool:
        return not self.inputs

    @property
    def is_param(self) -> bool:
        return bool(self.param_path)

    def location(self) -> str:
        """``path:line`` of the creation site (for diagnostics)."""
        head = self.site.split(" in ", 1)[0]
        return head or "<graph>"

    def describe(self) -> str:
        name = f"'{self.op}'" + (f" [{self.label}]" if self.label else "")
        return f"op {name} {tuple(self.shape)} {self.dtype}"


class GraphIR:
    """Topologically ordered op graph for one traced step."""

    def __init__(self, nodes: list[IRNode], roots: tuple[int, ...] = ()):
        self.nodes = nodes
        self.roots = roots
        self._by_id = {n.id: n for n in nodes}
        # Maps the traced tensors' python ids to IR node ids; populated by
        # build_ir and used by the cross-step diff to align two IRs.
        self.tensor_ids: dict[int, int] = {}

    # -- access ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[IRNode]:
        return iter(self.nodes)

    def node(self, node_id: int) -> IRNode:
        return self._by_id[node_id]

    def ops(self) -> dict[str, int]:
        """Histogram of op names over non-leaf nodes."""
        counts: dict[str, int] = {}
        for n in self.nodes:
            if not n.is_leaf:
                counts[n.op] = counts.get(n.op, 0) + 1
        return dict(sorted(counts.items()))

    def find(self, op: str | None = None, label: str | None = None) -> list[IRNode]:
        """Nodes matching an op name and/or a label substring."""
        out = []
        for n in self.nodes:
            if op is not None and n.op != op:
                continue
            if label is not None and label not in n.label:
                continue
            out.append(n)
        return out

    def consumers(self) -> dict[int, list[int]]:
        """Reverse adjacency: node id -> ids of nodes consuming it."""
        out: dict[int, list[int]] = {n.id: [] for n in self.nodes}
        for n in self.nodes:
            for src in n.inputs:
                out[src].append(n.id)
        return out

    def grad_reachable(self, root_id: int | None = None) -> set[int]:
        """Node ids on a gradient path from the root(s).

        Walks ancestor edges from the root, but only continues through
        nodes with ``requires_grad`` — matching what backward() visits.
        A parameter is *detached* iff its node id is not in this set.
        """
        starts = [root_id] if root_id is not None else list(self.roots)
        seen: set[int] = set()
        stack = [i for i in starts if self._by_id[i].requires_grad]
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            for src in self._by_id[nid].inputs:
                parent = self._by_id[src]
                if parent.requires_grad and src not in seen:
                    stack.append(src)
        return seen

    # -- serialisation --------------------------------------------------
    def to_json(self) -> str:
        payload = {
            "roots": list(self.roots),
            "nodes": [
                {
                    "id": n.id,
                    "op": n.op,
                    "shape": list(n.shape),
                    "dtype": n.dtype,
                    "requires_grad": n.requires_grad,
                    "site": n.site,
                    "label": n.label,
                    "phase": n.phase,
                    "inputs": list(n.inputs),
                    "param_path": n.param_path,
                    "has_grad": n.has_grad,
                }
                for n in self.nodes
            ],
        }
        return json.dumps(payload, indent=2)

    def to_dot(self, max_label: int = 40) -> str:
        """Graphviz rendering: params green, roots red, labels boxed."""
        lines = ["digraph tape {", "  rankdir=BT;",
                 '  node [fontsize=9, fontname="monospace"];']
        root_set = set(self.roots)
        for n in self.nodes:
            text = n.op
            if n.param_path:
                text = n.param_path
            if n.label:
                text += f"\\n[{n.label}]"
            text += f"\\n{tuple(n.shape)}"
            text = text[:max_label * 2]
            attrs = [f'label="{text}"']
            if n.id in root_set:
                attrs.append('color=red, penwidth=2')
            elif n.is_param:
                attrs.append('shape=box, color=darkgreen')
            elif n.is_leaf:
                attrs.append('shape=box, color=gray')
            elif n.label:
                attrs.append('shape=box, color=blue')
            if not n.requires_grad:
                attrs.append('style=dashed')
            lines.append(f"  n{n.id} [{', '.join(attrs)}];")
        for n in self.nodes:
            for src in n.inputs:
                lines.append(f"  n{src} -> n{n.id};")
        lines.append("}")
        return "\n".join(lines)


def _fingerprint(arr: np.ndarray) -> tuple:
    return (arr.shape, zlib.adler32(arr.tobytes()))


def build_ir(tape, roots: Iterable = (), params: dict[str, object] | None = None) -> GraphIR:
    """Compile a :class:`repro.nn.tracer.trace` tape into a :class:`GraphIR`.

    Parameters
    ----------
    tape:
        The trace object (iterable of :class:`TapeRecord`).
    roots:
        Output/loss tensors; their node ids land in ``GraphIR.roots``.
        Roots not recorded on the tape (e.g. created outside the scope)
        are added as leaves.
    params:
        ``dict(module.named_parameters())`` — matching leaf nodes are
        tagged with their module path; parameters that never appear in
        the traced step still get a node (so the detached-parameter pass
        can report them).
    """
    nodes: list[IRNode] = []
    ids: dict[int, int] = {}
    param_paths: dict[int, str] = {}
    if params:
        for path, p in params.items():
            param_paths[id(p)] = path

    def leaf_node(tensor) -> int:
        key = id(tensor)
        if key in ids:
            return ids[key]
        nid = len(nodes)
        ids[key] = nid
        path = param_paths.get(key, "")
        nodes.append(IRNode(
            id=nid, op="param" if path else "leaf",
            shape=tuple(tensor.shape), dtype=str(tensor.dtype),
            requires_grad=bool(tensor.requires_grad),
            label=getattr(tensor, "name", "") or "",
            param_path=path,
            has_grad=tensor.grad is not None,
            data=tensor.data,
        ))
        return nid

    for rec in tape:
        input_ids = tuple(ids[id(p)] if id(p) in ids else leaf_node(p)
                          for p in rec.parents)
        t = rec.tensor
        key = id(t)
        if key in ids:
            # A tensor recorded twice should not happen, but be defensive.
            continue
        nid = len(nodes)
        ids[key] = nid
        nodes.append(IRNode(
            id=nid, op=rec.op, shape=tuple(t.shape), dtype=str(t.dtype),
            requires_grad=bool(t.requires_grad), site=rec.site,
            label=rec.label, phase=rec.phase, inputs=input_ids,
            has_grad=t.grad is not None, data=t.data,
        ))

    root_ids = []
    for r in roots:
        root_ids.append(ids[id(r)] if id(r) in ids else leaf_node(r))

    # Parameters that never entered the traced step still need nodes.
    if params:
        for path, p in params.items():
            leaf_node(p)
            # A parameter recorded as a plain leaf earlier gets its path.
            node = nodes[ids[id(p)]]
            if not node.param_path:
                node.param_path = path
                node.op = "param"

    ir = GraphIR(nodes, tuple(root_ids))
    ir.tensor_ids = ids
    return ir
