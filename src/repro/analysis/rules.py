"""reprolint rule implementations.

Every rule is a function ``check(tree, ctx)`` yielding ``(node, message)``
pairs.  Rules are deliberately tuned to this repository's autodiff engine
(``repro.nn``) rather than being generic Python lint: each one encodes a
failure mode that corrupts training silently instead of raising.

Rule codes are stable; suppress a finding with an inline comment::

    param.data = new_value  # reprolint: disable=RL001
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

__all__ = ["Context", "Rule", "RULES"]


@dataclass(frozen=True)
class Context:
    """Per-file information rules may consult."""

    path: str          # posix-style path of the file being linted
    is_src: bool       # library code (as opposed to tests/benchmarks)
    is_engine: bool    # part of the autodiff engine / analysis whitelist


@dataclass(frozen=True)
class Rule:
    code: str
    name: str
    description: str
    check: Callable[[ast.AST, Context], Iterator[tuple[ast.AST, str]]]
    src_only: bool = True       # skip test files entirely
    engine_exempt: bool = False  # skip whitelisted engine modules


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
_NP_MODULES = {"np", "numpy"}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _functions(tree: ast.AST) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, _FUNCTIONS):
            yield node


def _calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def _attr_call_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _names_in(node: ast.AST) -> set[str]:
    out: set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def _flatten_targets(target: ast.AST) -> Iterator[ast.AST]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _flatten_targets(elt)
    else:
        yield target


# ----------------------------------------------------------------------
# RL001 — tensor-state-mutation
# ----------------------------------------------------------------------
_STATE_ATTRS = {"data", "grad"}


def _is_state_target(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute) and node.attr in _STATE_ATTRS:
        return True
    if isinstance(node, (ast.Subscript, ast.Starred)):
        return _is_state_target(node.value)
    return False


def check_state_mutation(tree: ast.AST, ctx: Context):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets: Iterable[ast.AST] = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = (node.target,)
        else:
            continue
        for target in targets:
            for leaf in _flatten_targets(target):
                if _is_state_target(leaf):
                    yield (node, "direct mutation of Tensor `.data`/`.grad` outside "
                                 "the engine bypasses autograd bookkeeping; use "
                                 "engine APIs (optimizer.step, load_state_dict, "
                                 "zero_grad) or suppress if intentional")


# ----------------------------------------------------------------------
# RL002 — raw-numpy-on-tensor
# ----------------------------------------------------------------------
_NP_MATH_FUNCS = {
    "exp", "exp2", "log", "log2", "log10", "log1p", "sqrt", "cbrt",
    "tanh", "sinh", "cosh", "sin", "cos", "tan", "abs", "absolute",
    "maximum", "minimum", "clip", "where", "sum", "mean", "power",
    "sign", "square", "matmul", "dot", "einsum",
}

_TENSOR_CONSTRUCTORS = {"Tensor", "Parameter", "as_tensor"}


def _is_tensor_value(node: ast.AST, tensor_names: set[str]) -> bool:
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _TENSOR_CONSTRUCTORS:
            return True
        if isinstance(func, ast.Attribute) and func.attr in _TENSOR_CONSTRUCTORS:
            return True
    if isinstance(node, ast.Name) and node.id in tensor_names:
        return True
    return False


def _annotation_is_tensor(annotation: ast.AST | None) -> bool:
    if annotation is None:
        return False
    try:
        text = ast.unparse(annotation)
    except Exception:  # pragma: no cover - malformed annotation
        return False
    return bool(re.search(r"\b(Tensor|Parameter)\b", text))


def _iter_stmts(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    """Yield statements in lexical order, descending into compound blocks
    but *not* into nested function/class definitions."""
    for stmt in body:
        yield stmt
        for field in ("body", "orelse", "finalbody"):
            inner = getattr(stmt, field, None)
            if inner and not isinstance(stmt, (*_FUNCTIONS, ast.ClassDef)):
                yield from _iter_stmts(inner)
        for handler in getattr(stmt, "handlers", []) or []:
            yield from _iter_stmts(handler.body)


def check_raw_numpy_on_tensor(tree: ast.AST, ctx: Context):
    for fn in _functions(tree):
        tensor_names: set[str] = set()
        args = fn.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if _annotation_is_tensor(arg.annotation):
                tensor_names.add(arg.arg)
        for stmt in _iter_stmts(fn.body):
            # Flag np-math calls on currently tensor-typed names first.
            for call in _calls(stmt):
                func = call.func
                if not (isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Name)
                        and func.value.id in _NP_MODULES
                        and func.attr in _NP_MATH_FUNCS):
                    continue
                for arg_node in call.args:
                    if isinstance(arg_node, ast.Name) and arg_node.id in tensor_names:
                        yield (call, f"`np.{func.attr}({arg_node.id})` on a Tensor "
                                     f"operand escapes the autograd graph; use the "
                                     f"Tensor method (e.g. `{arg_node.id}.{func.attr}(...)`) "
                                     f"or `.numpy()` explicitly if no gradient is wanted")
            # Then update the symbol table from assignments in this stmt.
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    if _is_tensor_value(stmt.value, tensor_names):
                        tensor_names.add(target.id)
                    else:
                        tensor_names.discard(target.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                if _annotation_is_tensor(stmt.annotation):
                    tensor_names.add(stmt.target.id)


# ----------------------------------------------------------------------
# RL003 — missing-no-grad
# ----------------------------------------------------------------------
_EVAL_NAME = re.compile(r"evaluate|rollout|greedy|predict|infer|episode"
                        r"|(^|_)eval(_|$)|(^|_)act(_|$)")


def check_missing_no_grad(tree: ast.AST, ctx: Context):
    for fn in _functions(tree):
        if not _EVAL_NAME.search(fn.name):
            continue
        referenced = _names_in(fn)
        if "no_grad" in referenced or "enable_grad" in referenced:
            continue
        calls = list(_calls(fn))
        if any(_attr_call_name(c) == "backward" for c in calls):
            continue  # training code, not a rollout
        calls_policy = False
        for call in calls:
            func = call.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else "")
            if "policy" in name.lower() or name == "forward":
                calls_policy = True
                break
        if calls_policy:
            yield (fn, f"evaluation/rollout function `{fn.name}` invokes a policy "
                       f"without `no_grad()`; graph recording leaks memory and "
                       f"slows rollouts")


# ----------------------------------------------------------------------
# RL004 — half-precision
# ----------------------------------------------------------------------
_HALF_ATTRS = {"float16", "half"}  # reprolint: disable=RL004


def check_half_precision(tree: ast.AST, ctx: Context):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in _HALF_ATTRS
                and isinstance(node.value, ast.Name)
                and node.value.id in _NP_MODULES):
            yield (node, f"`np.{node.attr}` mixes half precision into the "
                         f"float32 models; gradients and Adam state lose "
                         f"precision when arrays are promoted back")
        elif isinstance(node, ast.Constant) and node.value in ("float16", "half"):  # reprolint: disable=RL004
            yield (node, f"dtype literal {node.value!r} mixes half precision "
                         f"into the float32 models")


# ----------------------------------------------------------------------
# RL005 — backward-loop-capture
# ----------------------------------------------------------------------
def check_backward_loop_capture(tree: ast.AST, ctx: Context):
    for loop in ast.walk(tree):
        if not isinstance(loop, ast.For):
            continue
        loop_vars = {n.id for n in ast.walk(loop.target) if isinstance(n, ast.Name)}
        if not loop_vars:
            continue
        for fn in ast.walk(loop):
            if not (isinstance(fn, _FUNCTIONS) and "backward" in fn.name):
                continue
            args = fn.args
            bound = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}
            captured = {n.id for n in ast.walk(fn)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            leaked = sorted((captured & loop_vars) - bound)
            if leaked:
                yield (fn, f"backward closure `{fn.name}` captures loop "
                           f"variable(s) {', '.join(leaked)} by reference; "
                           f"late binding makes every closure see the final "
                           f"iteration — bind via a default argument "
                           f"(`def {fn.name}({leaked[0]}={leaked[0]})`)")


# ----------------------------------------------------------------------
# RL006 — bare-assert
# ----------------------------------------------------------------------
def check_bare_assert(tree: ast.AST, ctx: Context):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield (node, "bare `assert` in library code vanishes under "
                         "`python -O`; raise an explicit exception instead")


# ----------------------------------------------------------------------
# RL007 — missing-zero-grad
# ----------------------------------------------------------------------
def check_missing_zero_grad(tree: ast.AST, ctx: Context):
    for fn in _functions(tree):
        calls = [c for c in _calls(fn) if isinstance(c.func, ast.Attribute)]
        if not any(c.func.attr == "backward" for c in calls):
            continue
        steps_optimizer = any(
            c.func.attr == "step"
            and any("opt" in s.lower() for s in _names_in(c.func.value))
            for c in calls)
        if not steps_optimizer:
            continue
        if any(c.func.attr == "zero_grad" for c in calls):
            continue
        yield (fn, f"`{fn.name}` calls backward() and optimizer step() but "
                   f"never zero_grad(); gradients accumulate across steps "
                   f"silently")


# ----------------------------------------------------------------------
# RL008 — unguarded-reciprocal
# ----------------------------------------------------------------------
def check_unguarded_reciprocal(tree: ast.AST, ctx: Context):
    for node in ast.walk(tree):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)):
            continue
        left, right = node.left, node.right
        if not (isinstance(left, ast.Constant) and left.value in (1, 1.0)):
            continue
        if isinstance(right, (ast.Name, ast.Attribute, ast.Subscript)):
            yield (node, "unguarded reciprocal `1 / x`: zero distances or "
                         "degenerate shortest paths produce Inf that flows "
                         "into softmax/log downstream; add an epsilon "
                         "(`1.0 / (x + 1e-6)`) or clamp with np.maximum")


# ----------------------------------------------------------------------
# RL009 — tensor-attr-tape-leak
# ----------------------------------------------------------------------
# A graph-attached Tensor parked on ``self`` inside a Module's forward
# path keeps the whole step's tape alive into the next step: backward
# then re-traverses the previous step's graph (wrong gradients) and
# memory grows without bound.  Carried state must be detached first —
# ``.detach()`` / ``.numpy()`` / re-wrapping in a fresh ``Tensor(...)``.
# Lifecycle methods (__init__, reset*/begin*/load*/...) construct state
# from scratch, so they are exempt; the runtime counterpart is
# graphcheck's GC004 cross-step diff.
_RL009_EXEMPT_METHOD = re.compile(
    r"^(__init__$|__setstate__$|reset|begin|load|init|save|set_|post|clear)")

# Calls that yield a detached value (fresh leaf or plain ndarray).
_DETACHING_CALLS = {"detach", "numpy", "copy", "item", "init_state",
                    "zeros_like", "asarray"} | _TENSOR_CONSTRUCTORS

_TENSOR_OP_METHODS = {
    "tanh", "relu", "sigmoid", "leaky_relu", "softmax", "log_softmax",
    "exp", "log", "sqrt", "sum", "mean", "max", "min", "reshape",
    "squeeze", "transpose", "expand_dims", "concat", "stack", "matmul",
    "norm", "clip", "abs", "backward_through", "forward",
}


def _rhs_is_detached(node: ast.AST) -> bool:
    for n in ast.walk(node):
        if isinstance(n, ast.Call):
            f = n.func
            name = f.attr if isinstance(f, ast.Attribute) else (
                f.id if isinstance(f, ast.Name) else "")
            if name in _DETACHING_CALLS:
                return True
    return False


def _produces_tensor(node: ast.AST, tensor_names: set[str],
                     tensor_attrs: frozenset[str] = frozenset()) -> bool:
    if isinstance(node, (ast.Tuple, ast.List)):
        return any(_produces_tensor(e, tensor_names, tensor_attrs)
                   for e in node.elts)
    if isinstance(node, ast.Name):
        return node.id in tensor_names
    if isinstance(node, ast.Attribute):
        return (isinstance(node.value, ast.Name) and node.value.id == "self"
                and node.attr in tensor_attrs)
    if isinstance(node, ast.BinOp):
        return (_produces_tensor(node.left, tensor_names, tensor_attrs)
                or _produces_tensor(node.right, tensor_names, tensor_attrs))
    if isinstance(node, ast.Subscript):
        return _produces_tensor(node.value, tensor_names, tensor_attrs)
    if isinstance(node, ast.Call):
        f = node.func
        if isinstance(f, ast.Attribute):
            if f.attr in _TENSOR_OP_METHODS:
                return True
            # ``self.submodule(...)``: a module call returns graph tensors.
            if isinstance(f.value, ast.Name) and f.value.id == "self":
                return True
    return False


def check_tensor_attr_tape_leak(tree: ast.AST, ctx: Context):
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        bases = {b for base in cls.bases for b in _names_in(base)}
        if "Module" not in bases:
            continue
        for fn in cls.body:
            if not isinstance(fn, _FUNCTIONS) or _RL009_EXEMPT_METHOD.match(fn.name):
                continue
            tensor_names: set[str] = set()
            tensor_attrs: set[str] = set()
            for stmt in _iter_stmts(fn.body):
                if not isinstance(stmt, ast.Assign):
                    continue
                produces = (_produces_tensor(stmt.value, tensor_names,
                                             frozenset(tensor_attrs))
                            and not _rhs_is_detached(stmt.value))
                for target in stmt.targets:
                    for leaf in _flatten_targets(target):
                        if (isinstance(leaf, ast.Attribute)
                                and isinstance(leaf.value, ast.Name)
                                and leaf.value.id == "self" and produces):
                            tensor_attrs.add(leaf.attr)
                            yield (stmt, f"`self.{leaf.attr}` stores a graph-attached "
                                         f"Tensor across timesteps; the autodiff tape "
                                         f"grows step over step and backward revisits "
                                         f"stale graphs — detach carried state "
                                         f"(`.detach()`, `.numpy()`, or wrap in a "
                                         f"fresh `Tensor(...)`)")
                        elif isinstance(leaf, ast.Name) and produces:
                            tensor_names.add(leaf.id)
                        elif isinstance(leaf, ast.Name):
                            tensor_names.discard(leaf.id)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
RULES: list[Rule] = [
    Rule("RL001", "tensor-state-mutation",
         "Direct `.data`/`.grad` writes outside the engine whitelist",
         check_state_mutation, src_only=True, engine_exempt=True),
    Rule("RL002", "raw-numpy-on-tensor",
         "`np.*` math called on Tensor operands, escaping the autograd graph",
         check_raw_numpy_on_tensor, src_only=True),
    Rule("RL003", "missing-no-grad",
         "Evaluation/rollout functions that call policies without no_grad()",
         check_missing_no_grad, src_only=True),
    Rule("RL004", "half-precision",
         "Half-precision dtypes mixed into the float32 models",
         check_half_precision, src_only=True),
    Rule("RL005", "backward-loop-capture",
         "Backward closures capturing loop variables by late binding",
         check_backward_loop_capture, src_only=False),
    Rule("RL006", "bare-assert",
         "Bare asserts in library hot paths (stripped under -O)",
         check_bare_assert, src_only=True),
    Rule("RL007", "missing-zero-grad",
         "backward() + optimizer step() without zero_grad() in between",
         check_missing_zero_grad, src_only=True),
    Rule("RL008", "unguarded-reciprocal",
         "`1 / x` with no epsilon or clamp on the denominator",
         check_unguarded_reciprocal, src_only=True),
    Rule("RL009", "tensor-attr-tape-leak",
         "Graph-attached Tensors stored on `self` across timesteps without detach",
         check_tensor_attr_tape_leak, src_only=True, engine_exempt=True),
]
