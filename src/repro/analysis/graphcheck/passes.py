"""Analysis passes over the graph IR.

Each pass takes a :class:`~repro.analysis.graphcheck.ir.GraphIR` and
returns a list of :class:`GraphDiagnostic`.  Codes follow the reprolint
convention (``RLxxx`` for source rules, ``GCxxx`` for graph passes):

========  =====================  ========  ==================================
code      name                   severity  what it verifies
========  =====================  ========  ==================================
GC001     shape-check            error     symbolic shape propagation with a
                                           polymorphic batch dimension, plus
                                           suspicious mutual broadcasts
GC002     detached-parameter     error     every parameter has a gradient
                                           path to the traced loss
GC003     softmax-invariant      error     softmax rows sum to 1; masked
                                           logits carry no probability
GC004     tape-growth            error     consecutive steps neither grow the
                                           tape across step boundaries nor
                                           drift in op structure
GC005     common-subexpression   info      identical subgraphs computed more
                                           than once (caching opportunities)
========  =====================  ========  ==================================
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .ir import (GraphIR, IRNode, BINARY_BROADCAST_OPS,
                 OPAQUE_BATCH_PRESERVING_OPS, UNARY_SAME_SHAPE_OPS)

__all__ = [
    "GraphDiagnostic",
    "PASSES",
    "check_shapes",
    "check_detached_params",
    "check_softmax_invariants",
    "check_tape_growth",
    "check_common_subexpressions",
    "run_all_passes",
]

# Logits at or below this are treated as masked (the codebase masks
# infeasible actions by adding a -1e9 penalty before softmax).
_MASK_THRESHOLD = -1e8


class GraphDiagnostic:
    """One finding, formatted in the reprolint ``path:line:`` style."""

    __slots__ = ("code", "name", "severity", "message", "site")

    def __init__(self, code: str, name: str, severity: str, message: str,
                 node: IRNode | None = None, site: str = ""):
        self.code = code
        self.name = name
        self.severity = severity  # "error" | "warning" | "info"
        self.message = message
        self.site = site or (node.location() if node is not None else "<graph>")

    def format(self) -> str:
        return f"{self.site}: {self.code} {self.message} [{self.name}]"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GraphDiagnostic({self.format()!r})"


# ----------------------------------------------------------------------
# GC001 — symbolic shape propagation
# ----------------------------------------------------------------------
# A symbolic dimension is (size, sym): the concrete size observed in the
# trace plus an optional symbol name ("B" marks the polymorphic batch
# axis).  Propagating symbols through the recorded ops proves that a
# graph traced at one batch size is shape-correct at every batch size;
# an op that contracts, reshapes away, or misaligns the symbol only
# works at the traced size and is reported.

# Classification sets come from the shared op registry in ``ir.py`` so
# the shape checker and the perf passes agree on what each op is.
_UNARY_SAME_SHAPE = UNARY_SAME_SHAPE_OPS
_BINARY_BROADCAST = BINARY_BROADCAST_OPS
_OPAQUE_BATCH_PRESERVING = OPAQUE_BATCH_PRESERVING_OPS


def _dims(shape: tuple[int, ...]) -> list[tuple[int, str | None]]:
    return [(int(d), None) for d in shape]


def _concrete(sym_shape: list[tuple[int, str | None]]) -> tuple[int, ...]:
    return tuple(d for d, _ in sym_shape)


def _fmt(sym_shape: list[tuple[int, str | None]]) -> str:
    return "(" + ", ".join(s if s else str(d) for d, s in sym_shape) + ")"


def _broadcast_sym(a: list, b: list) -> tuple[list, bool]:
    """Numpy-style broadcast of two symbolic shapes.

    Returns the output shape and whether the broadcast *implicitly*
    expanded both operands — the (B,) + (B,1) -> (B,B) footgun where a
    missing reshape silently builds a quadratic intermediate.  Operands
    of equal rank with explicit singleton axes (the deliberate pairwise
    pattern ``x.expand_dims(1) - x.expand_dims(0)``) are not flagged:
    the explicit axes signal intent, implicit left-padding is where the
    accidents happen.
    """
    n = max(len(a), len(b))
    out: list = []
    a_expanded = b_expanded = False
    for i in range(n):
        da = a[i - (n - len(a))] if i >= n - len(a) else (1, None)
        db = b[i - (n - len(b))] if i >= n - len(b) else (1, None)
        if da[0] == 1 and db[0] > 1:
            a_expanded = True
            out.append(db)
        elif db[0] == 1 and da[0] > 1:
            b_expanded = True
            out.append(da)
        else:
            # Equal sizes: keep the symbol if either side carries one.
            out.append(da if da[1] else db)
    mutual = a_expanded and b_expanded and len(a) != len(b)
    return out, mutual


def _match_reduced(in_ss: list, out_shape: tuple[int, ...]) -> list:
    """Symbolic shape after a reduction, inferred from concrete shapes."""
    if len(out_shape) == len(in_ss):
        # keepdims: reduced axes became 1.
        return [d if d[0] == s else (int(s), None)
                for d, s in zip(in_ss, out_shape)]
    out: list = []
    j = 0
    for d in in_ss:
        if j < len(out_shape) and d[0] == out_shape[j]:
            out.append(d)
            j += 1
    while j < len(out_shape):  # pragma: no cover - defensive
        out.append((int(out_shape[j]), None))
        j += 1
    return out


def check_shapes(ir: GraphIR, batch_size: int | None = None,
                 prev_ir: GraphIR | None = None) -> list[GraphDiagnostic]:
    """GC001: propagate symbolic shapes; flag batch-breaking ops."""
    diags: list[GraphDiagnostic] = []
    sym: dict[int, list] = {}

    def diag(severity: str, message: str, node: IRNode) -> None:
        diags.append(GraphDiagnostic(
            "GC001", "shape-check", severity, message, node))

    for n in ir:
        if n.is_leaf:
            ss = _dims(n.shape)
            # Trainable leaves are parameters — their axes are fixed;
            # only data inputs carry the polymorphic batch axis.
            if (batch_size is not None and not n.is_param
                    and not n.requires_grad
                    and len(ss) >= 1 and ss[0][0] == batch_size):
                ss[0] = (batch_size, "B")
            sym[n.id] = ss
            continue

        ins = [sym[i] for i in n.inputs]
        out: list | None = None

        if n.op in _UNARY_SAME_SHAPE and len(ins) >= 1:
            out = list(ins[0])
        elif n.op in _BINARY_BROADCAST and len(ins) == 2:
            out, mutual = _broadcast_sym(ins[0], ins[1])
            if mutual:
                diag("warning",
                     f"broadcast of '{n.op}' expands both operands "
                     f"{_fmt(ins[0])} x {_fmt(ins[1])} -> {_fmt(out)}; "
                     f"if unintended, add the missing reshape/expand_dims",
                     n)
        elif n.op == "where" and len(ins) == 3:
            out, _ = _broadcast_sym(ins[1], ins[2])
            out, _ = _broadcast_sym(ins[0], out)
        elif n.op == "matmul" and len(ins) == 2:
            a, b = ins
            if len(a) >= 2 and len(b) >= 2:
                inner_a, inner_b = a[-1], b[-2]
                if inner_a[1] != inner_b[1]:
                    which = inner_a if inner_a[1] else inner_b
                    diag("error",
                         f"matmul contracts the batch dimension "
                         f"'{which[1]}' (size {which[0]}) against a fixed "
                         f"axis of size {inner_b[0] if inner_a[1] else inner_a[0]}; "
                         f"this only works at the traced batch size", n)
                batch, _ = _broadcast_sym(a[:-2], b[:-2])
                out = batch + [a[-2], b[-1]]
            else:
                out = _dims(n.shape)
        elif n.op in ("sum", "max", "min", "mean") and ins:
            out = _match_reduced(ins[0], n.shape)
        elif n.op == "reshape" and ins:
            src = ins[0]
            syms = [d for d in src if d[1]]
            if not syms:
                out = _dims(n.shape)
            else:
                size, name = syms[0]
                out = _dims(n.shape)
                hits = [i for i, d in enumerate(n.shape) if d == size]
                if hits:
                    out[hits[0]] = (size, name)
                else:
                    diag("error",
                         f"reshape {_fmt(src)} -> {n.shape} absorbs the "
                         f"batch dimension '{name}' into a fixed axis; the "
                         f"graph is not batch-polymorphic", n)
        elif n.op == "transpose" and ins:
            src = ins[0]
            sizes = [d for d, _ in src]
            if len(src) == 2:
                out = [src[1], src[0]]
            elif len(set(sizes)) == len(sizes):
                out = [src[sizes.index(d)] for d in n.shape]
            else:
                out = _dims(n.shape)
        elif n.op == "expand_dims" and ins:
            src = list(ins[0])
            axis = 0
            for i, d in enumerate(n.shape):
                if i >= len(src) or src[i][0] != d:
                    axis = i
                    break
            src.insert(axis, (1, None))
            out = src
        elif n.op == "squeeze" and ins:
            out = _match_reduced(ins[0], n.shape)
        elif n.op == "concat" and ins:
            rank = len(ins[0])
            out = []
            for ax in range(rank):
                dims = [s[ax] for s in ins if len(s) == rank]
                total = sum(d for d, _ in dims)
                if n.shape[ax] == total and total != dims[0][0]:
                    out.append((int(n.shape[ax]), None))  # the concat axis
                elif all(d[1] == dims[0][1] for d in dims):
                    out.append(dims[0])
                else:
                    out.append((int(n.shape[ax]), None))
        elif n.op == "stack" and ins:
            src = list(ins[0])
            axis = 0
            for i, d in enumerate(n.shape):
                if i >= len(src) or src[i][0] != d:
                    axis = i
                    break
            out = src[:axis] + [(len(ins), None)] + src[axis:]
        elif n.op in _OPAQUE_BATCH_PRESERVING and ins:
            out = _dims(n.shape)
            src = ins[0]
            if (src and src[0][1] and len(n.shape) >= 1
                    and len(n.shape) == len(src)
                    and n.shape[0] == src[0][0]):
                out[0] = src[0]
        elif len(ins) == 1 and _concrete(ins[0]) == n.shape:
            out = list(ins[0])

        if out is None or _concrete(out) != tuple(n.shape):
            # Unknown op or inference mismatch: fall back to the concrete
            # recorded shape rather than propagate a wrong symbol.
            out = _dims(n.shape)
        sym[n.id] = out

        # Mixed float precision silently upcasts through the whole graph.
        if n.op in _BINARY_BROADCAST | {"matmul"} and len(n.inputs) == 2:
            d0 = ir.node(n.inputs[0]).dtype
            d1 = ir.node(n.inputs[1]).dtype
            if d0 != d1 and d0.startswith("float") and d1.startswith("float"):
                diag("warning",
                     f"'{n.op}' mixes dtypes {d0} and {d1}; the result "
                     f"promotes to {n.dtype}", n)
    return diags


# ----------------------------------------------------------------------
# GC002 — detached parameters
# ----------------------------------------------------------------------
def check_detached_params(ir: GraphIR) -> list[GraphDiagnostic]:
    """GC002: every module parameter must have a gradient path to the loss."""
    diags: list[GraphDiagnostic] = []
    reachable = ir.grad_reachable()
    consumers = ir.consumers()
    for n in ir:
        if not n.is_param:
            continue
        if n.id in reachable or n.has_grad:
            continue
        if consumers[n.id]:
            why = ("is used in the traced step but has no gradient path to "
                   "the loss (every path passes through a detached tensor)")
        else:
            why = "is never used in the traced step"
        diags.append(GraphDiagnostic(
            "GC002", "detached-parameter", "error",
            f"parameter '{n.param_path}' {tuple(n.shape)} {why}; it will "
            f"never receive a gradient", n))
    return diags


# ----------------------------------------------------------------------
# GC003 — softmax invariants
# ----------------------------------------------------------------------
def check_softmax_invariants(ir: GraphIR, atol: float = 1e-5) -> list[GraphDiagnostic]:
    """GC003: softmax rows sum to 1 and masked logits carry no mass."""
    diags: list[GraphDiagnostic] = []
    for n in ir:
        if n.op not in ("softmax", "log_softmax") or n.data is None:
            continue
        what = f"'{n.label}'" if n.label else f"'{n.op}'"
        probs = np.exp(n.data) if n.op == "log_softmax" else n.data
        if probs.size == 0:
            continue
        # Find the normalisation axis: the one whose sums are closest to 1.
        best_axis, best_err = None, np.inf
        for axis in range(probs.ndim) if probs.ndim else [None]:
            err = float(np.abs(probs.sum(axis=axis) - 1.0).max())
            if err < best_err:
                best_axis, best_err = axis, err
        if probs.ndim == 0:
            best_axis, best_err = None, abs(float(probs) - 1.0)
        if best_err > atol:
            diags.append(GraphDiagnostic(
                "GC003", "softmax-invariant", "error",
                f"{what} rows do not sum to 1 on any axis (best axis "
                f"{best_axis}, max deviation {best_err:.3g}); output is not "
                f"a probability distribution", n))
            continue
        # Masked-entry check needs the logits that fed the op.
        if not n.inputs:
            continue
        logits = ir.node(n.inputs[0]).data
        if logits is None or logits.shape != probs.shape:
            continue
        masked = logits <= _MASK_THRESHOLD
        if not masked.any():
            continue
        # Only rows with at least one feasible entry must zero the rest.
        moved = np.moveaxis(masked, best_axis, -1).reshape(-1, probs.shape[best_axis])
        pmoved = np.moveaxis(probs, best_axis, -1).reshape(-1, probs.shape[best_axis])
        rows = ~moved.all(axis=-1)
        leak = float((pmoved[rows] * moved[rows]).max()) if rows.any() else 0.0
        if leak > 1e-6:
            diags.append(GraphDiagnostic(
                "GC003", "softmax-invariant", "error",
                f"{what} assigns probability {leak:.3g} to a masked logit "
                f"(input <= {_MASK_THRESHOLD:g}); infeasible entries must "
                f"get zero mass", n))
    return diags


# ----------------------------------------------------------------------
# GC004 — cross-step tape growth / structure drift
# ----------------------------------------------------------------------
def check_tape_growth(prev_ir: GraphIR, ir: GraphIR) -> list[GraphDiagnostic]:
    """GC004: diff two consecutive steps' graphs.

    Both IRs must come from traces that are still alive (the trace holds
    strong references, keeping ``id()`` identity stable between steps).
    """
    diags: list[GraphDiagnostic] = []
    prev_nonleaf = {tid for tid, nid in prev_ir.tensor_ids.items()
                    if not prev_ir.node(nid).is_leaf}
    cur_tensor_of = {nid: tid for tid, nid in ir.tensor_ids.items()}
    for n in ir:
        if not n.is_leaf or n.is_param or not n.requires_grad:
            continue
        tid = cur_tensor_of.get(n.id)
        if tid in prev_nonleaf:
            src = prev_ir.node(prev_ir.tensor_ids[tid])
            diags.append(GraphDiagnostic(
                "GC004", "tape-growth", "error",
                f"step N consumes a differentiable op output from step N-1 "
                f"({src.describe()} created at {src.location()}); the tape "
                f"grows across steps — detach() carried state", node=src))
    prev_ops, cur_ops = prev_ir.ops(), ir.ops()
    if prev_ops != cur_ops:
        drift = []
        for op in sorted(set(prev_ops) | set(cur_ops)):
            a, b = prev_ops.get(op, 0), cur_ops.get(op, 0)
            if a != b:
                drift.append(f"{op}: {a} -> {b}")
        diags.append(GraphDiagnostic(
            "GC004", "tape-growth", "error",
            f"graph structure drifts between consecutive steps "
            f"({'; '.join(drift)}); per-step graphs should be congruent",
            site="<graph>"))
    return diags


# ----------------------------------------------------------------------
# GC005 — common subexpressions
# ----------------------------------------------------------------------
_EXPENSIVE_OPS = {"matmul", "conv2d", "softmax", "exp", "max_pool2d"}


def check_common_subexpressions(ir: GraphIR, min_group: int = 2,
                                max_reports: int = 10) -> list[GraphDiagnostic]:
    """GC005: value-number the graph; report recomputed subgraphs.

    Value numbers (shared with the perfcheck passes via
    :func:`repro.analysis.graphcheck.transforms.value_number`)
    combine op, input value numbers and an output data fingerprint, so
    two nodes share a number only when they computed the same value
    from the same expression — no false positives from e.g. ``x[0]``
    vs ``x[1]``.  Informational: a finding is a caching opportunity,
    not a bug.
    """
    from .transforms import value_number

    diags: list[GraphDiagnostic] = []
    vn = value_number(ir)
    depth: dict[int, int] = {}
    groups: dict[int, list[IRNode]] = {}
    for n in ir:
        if n.is_leaf:
            depth[n.id] = 0
        else:
            depth[n.id] = 1 + max((depth[i] for i in n.inputs), default=0)
            groups.setdefault(vn[n.id], []).append(n)

    findings = []
    for key, nodes in groups.items():
        if len(nodes) < min_group:
            continue
        head = nodes[0]
        if depth[head.id] < 2 and head.op not in _EXPENSIVE_OPS:
            continue
        findings.append((len(nodes), depth[head.id], nodes))
    findings.sort(key=lambda f: (-f[0], -f[1]))

    for count, dep, nodes in findings[:max_reports]:
        head = nodes[0]
        name = head.label or head.op
        sites = sorted({n.location() for n in nodes})
        diags.append(GraphDiagnostic(
            "GC005", "common-subexpression", "info",
            f"subgraph '{name}' {tuple(head.shape)} (depth {dep}) is "
            f"computed {count}x from identical inputs at "
            f"{', '.join(sites[:3])}{'...' if len(sites) > 3 else ''}; "
            f"consider computing once and caching", head))
    if len(findings) > max_reports:
        diags.append(GraphDiagnostic(
            "GC005", "common-subexpression", "info",
            f"{len(findings) - max_reports} further duplicated subgraphs "
            f"not shown (pass max_reports to see all)", site="<graph>"))
    return diags


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
PASSES: list[tuple[str, str, Callable]] = [
    ("GC001", "shape-check", check_shapes),
    ("GC002", "detached-parameter", check_detached_params),
    ("GC003", "softmax-invariant", check_softmax_invariants),
    ("GC004", "tape-growth", check_tape_growth),
    ("GC005", "common-subexpression", check_common_subexpressions),
]


def run_all_passes(ir: GraphIR, prev_ir: GraphIR | None = None,
                   batch_size: int | None = None,
                   include_cse: bool = True) -> list[GraphDiagnostic]:
    """Run the full catalogue over one IR (plus the previous step's for GC004)."""
    diags: list[GraphDiagnostic] = []
    diags += check_shapes(ir, batch_size=batch_size)
    diags += check_detached_params(ir)
    diags += check_softmax_invariants(ir)
    if prev_ir is not None:
        diags += check_tape_growth(prev_ir, ir)
    if include_cse:
        diags += check_common_subexpressions(ir)
    return diags
