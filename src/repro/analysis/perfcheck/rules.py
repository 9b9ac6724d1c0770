"""PF rule implementations: profile-guided performance lint.

Source-level companions to the IR passes in
:mod:`repro.analysis.perfcheck.passes`.  Each rule encodes an allocation
or complexity pattern that costs wall time *every environment step* —
the patterns the ROADMAP's fleet-scaling items have to clear first.
The rules ride the reprolint framework (:mod:`repro.analysis.rules`),
so inline suppression uses the same syntax::

    arr = np.array([s.remaining for s in self.sensors])  # reprolint: disable=PF001

========  =========================  ==========================================
code      name                       pattern
========  =========================  ==========================================
PF001     per-step-array-rebuild     ``np.array([... for e in entities])``
                                     outside lifecycle methods: the array is
                                     reconstructed from Python objects on
                                     every call
PF002     alloc-in-hot-loop          ``np.zeros``/``np.concatenate``/... in a
                                     loop inside a function reachable from the
                                     training entrypoints
PF003     python-elementwise-loop    ``for i in range(...)`` indexing ndarrays
                                     element by element where a vectorized
                                     form exists
PF004     quadratic-entity-scan      nested loops over entity collections, or
                                     a per-entity full distance scan —
                                     O(N·M) work a spatial index removes
PF005     dtype-promotion-copy       float32/float64 operands mixed in one
                                     expression, forcing a silent upcast copy
========  =========================  ==========================================
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..rules import Context, Rule, _FUNCTIONS
from .hotpath import HotIndex

__all__ = ["PF_RULES", "build_pf_rules", "ENTITY_NAME"]

_NP_MODULES = {"np", "numpy"}

# Collections of simulation entities: rebuilding arrays from these every
# step (PF001) or scanning all pairs of them (PF004) is the cost model
# the rules encode.
ENTITY_NAME = re.compile(
    r"(sensor|ugv|uav|agent|stop|user|node|entit|vehicle|drone)s?$",
    re.IGNORECASE)

# Arrays holding one row per entity (the "all positions" arrays a
# per-entity loop rescans in full - the PF004 (b) pattern).
_ENTITY_ARRAY_NAME = re.compile(
    r"(position|cell|centre|center|coord|point)s$|_(positions|cells)$",
    re.IGNORECASE)

# Methods that build state once rather than per step.
_LIFECYCLE = re.compile(
    r"^(__init__$|__post_init__$|__setstate__$|reset|from_|allocate"
    r"|load|save|setup|init)")

_ARRAY_BUILDERS = {"array", "asarray", "stack", "concatenate", "fromiter",
                   "vstack", "hstack"}

_ALLOCATORS = {"zeros", "empty", "ones", "full", "zeros_like", "empty_like",
               "ones_like", "full_like", "concatenate", "stack", "vstack",
               "hstack", "tile", "pad", "eye", "arange", "linspace"}

_DISTANCE_CALLS = {"hypot", "norm", "cdist", "sqrt"}

_REDUCED_DTYPES = {"float32", "float16", "half", "single"}  # reprolint: disable=RL004


def _np_call_name(call: ast.Call) -> str | None:
    """``np.<name>`` / ``numpy.<name>`` / ``np.linalg.<name>`` or None."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    base = func.value
    if isinstance(base, ast.Name) and base.id in _NP_MODULES:
        return func.attr
    if (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
            and base.value.id in _NP_MODULES):
        return func.attr  # np.linalg.norm, np.random.rand, ...
    return None


def _iter_entity_name(node: ast.AST) -> str | None:
    """The entity-collection name an iterable refers to, or None.

    Matches ``self.sensors``, ``sensors``, ``env.uavs`` and enumerated /
    ranged forms like ``range(len(self.sensors))``.
    """
    if isinstance(node, ast.Call):
        func = node.func
        fname = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else "")
        if fname in ("enumerate", "range", "len", "zip", "reversed", "sorted"):
            for arg in node.args:
                name = _iter_entity_name(arg)
                if name:
                    return name
        return None
    if isinstance(node, ast.Attribute):
        return node.attr if ENTITY_NAME.search(node.attr) else None
    if isinstance(node, ast.Name):
        return node.id if ENTITY_NAME.search(node.id) else None
    if isinstance(node, ast.Subscript):
        return _iter_entity_name(node.value)
    return None


def _functions_with_quals(tree: ast.AST) -> Iterator[tuple[ast.FunctionDef, str]]:
    """Every function paired with its class-qualified local name."""

    def walk(node: ast.AST, stack: list[str]) -> Iterator[tuple[ast.FunctionDef, str]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTIONS):
                yield child, ".".join([*stack, child.name])
                yield from walk(child, stack)  # nested defs keep the outer qual
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, [*stack, child.name])
            else:
                yield from walk(child, stack)

    yield from walk(tree, [])


# ----------------------------------------------------------------------
# PF001 — per-step-array-rebuild
# ----------------------------------------------------------------------
def check_array_rebuild(tree: ast.AST, ctx: Context):
    for fn, _qual in _functions_with_quals(tree):
        if _LIFECYCLE.match(fn.name):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            fname = _np_call_name(node)
            if fname not in _ARRAY_BUILDERS or not node.args:
                continue
            first = node.args[0]
            comps: list[ast.AST] = []
            if isinstance(first, (ast.ListComp, ast.GeneratorExp)):
                comps = [first]
            elif isinstance(first, (ast.List, ast.Tuple)):
                comps = [e for e in first.elts
                         if isinstance(e, (ast.ListComp, ast.GeneratorExp))]
            for comp in comps:
                entity = _iter_entity_name(comp.generators[0].iter)
                if entity is None:
                    continue
                yield (node, f"`np.{fname}` rebuilds an array from a Python "
                             f"comprehension over `{entity}` on every call; "
                             f"cache a preallocated array and update it in "
                             f"place at the mutation sites instead")
                break


# ----------------------------------------------------------------------
# PF002 — alloc-in-hot-loop
# ----------------------------------------------------------------------
def make_check_hot_loop_alloc(hot: HotIndex | None):
    """PF002 bound to a hot-path index (None = treat everything as hot)."""

    def check_hot_loop_alloc(tree: ast.AST, ctx: Context):
        seen: set[int] = set()  # a nested def is walked from every enclosing fn
        for fn, qual in _functions_with_quals(tree):
            if hot is not None and not hot.is_hot(ctx.path, qual):
                continue
            for loop in ast.walk(fn):
                if not isinstance(loop, (ast.For, ast.While)):
                    continue
                for node in ast.walk(loop):
                    if node is loop or not isinstance(node, ast.Call):
                        continue
                    fname = _np_call_name(node)
                    if fname not in _ALLOCATORS or id(node) in seen:
                        continue
                    seen.add(id(node))
                    yield (node, f"`np.{fname}` allocates inside a loop on "
                                 f"the training path (`{qual}` is reachable "
                                 f"from the train entrypoints); hoist the "
                                 f"allocation out of the loop and reuse the "
                                 f"buffer")

    return check_hot_loop_alloc


# ----------------------------------------------------------------------
# PF003 — python-elementwise-loop
# ----------------------------------------------------------------------
def _ndarray_names(fn: ast.FunctionDef) -> set[str]:
    """Names bound to ndarrays: np.* results or ndarray-annotated args."""
    names: set[str] = set()
    args = fn.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        try:
            text = ast.unparse(arg.annotation) if arg.annotation else ""
        except Exception:  # pragma: no cover - malformed annotation
            text = ""
        if "ndarray" in text:
            names.add(arg.arg)
    for node in ast.walk(fn):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and _np_call_name(node.value) is not None):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def check_python_elementwise_loop(tree: ast.AST, ctx: Context):
    for fn, _qual in _functions_with_quals(tree):
        arrays = _ndarray_names(fn)
        if not arrays:
            continue
        for loop in ast.walk(fn):
            if not (isinstance(loop, ast.For) and isinstance(loop.iter, ast.Call)):
                continue
            func = loop.iter.func
            if not (isinstance(func, ast.Name) and func.id == "range"):
                continue
            loop_vars = {n.id for n in ast.walk(loop.target)
                         if isinstance(n, ast.Name)}
            hits: set[str] = set()
            for node in ast.walk(loop):
                if not isinstance(node, ast.Subscript):
                    continue
                if isinstance(node.slice, ast.Slice) or (
                        isinstance(node.slice, ast.Tuple)
                        and any(isinstance(e, ast.Slice)
                                for e in node.slice.elts)):
                    continue  # slices (`a[i:j]`, `a[:, k]`) are vectorized block ops
                base = node.value
                if not (isinstance(base, ast.Name) and base.id in arrays):
                    continue
                index_names = {n.id for n in ast.walk(node.slice)
                               if isinstance(n, ast.Name)}
                if index_names & loop_vars:
                    hits.add(base.id)
            if hits:
                which = ", ".join(f"`{h}`" for h in sorted(hits))
                yield (loop, f"Python-level loop indexes ndarray(s) {which} "
                             f"element by element; a vectorized numpy "
                             f"expression (fancy indexing, `np.add.at`, "
                             f"broadcasting) does this in one pass")
                break  # one finding per function is enough signal


# ----------------------------------------------------------------------
# PF004 — quadratic-entity-scan
# ----------------------------------------------------------------------
def _entity_array_names(fn: ast.FunctionDef) -> set[str]:
    """Names bound to per-entity row arrays (positions, cells, ...)."""
    names: set[str] = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        from_entities = False
        if isinstance(value, ast.Call) and _np_call_name(value) in _ARRAY_BUILDERS:
            if value.args and isinstance(value.args[0],
                                         (ast.ListComp, ast.GeneratorExp)):
                from_entities = (_iter_entity_name(
                    value.args[0].generators[0].iter) is not None)
        if isinstance(value, ast.Attribute) and _ENTITY_ARRAY_NAME.search(value.attr):
            from_entities = True
        if isinstance(value, ast.Name) and _ENTITY_ARRAY_NAME.search(value.id):
            from_entities = True
        if from_entities:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    args = fn.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if _ENTITY_ARRAY_NAME.search(arg.arg):
            names.add(arg.arg)
    return names


def check_quadratic_entity_scan(tree: ast.AST, ctx: Context):
    for fn, _qual in _functions_with_quals(tree):
        if _LIFECYCLE.match(fn.name):
            continue  # building entities once is not a per-step scan
        entity_arrays = _entity_array_names(fn)
        reported: set[int] = set()
        for outer in ast.walk(fn):
            if not isinstance(outer, ast.For):
                continue
            outer_entity = _iter_entity_name(outer.iter)
            if outer_entity is None or outer.lineno in reported:
                continue
            # (a) nested loop over a second entity collection
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(inner, ast.For):
                    continue
                inner_entity = _iter_entity_name(inner.iter)
                if inner_entity is not None:
                    reported.add(outer.lineno)
                    yield (outer, f"nested loops scan all "
                                  f"`{outer_entity}` x `{inner_entity}` "
                                  f"pairs every step; index entities in a "
                                  f"spatial grid hash so each one only "
                                  f"visits its neighbourhood")
                    break
            if outer.lineno in reported:
                continue
            # (b) per-entity full distance scan over an entity array
            for node in ast.walk(outer):
                if not isinstance(node, ast.Call):
                    continue
                fname = _np_call_name(node)
                if fname not in _DISTANCE_CALLS:
                    continue
                arg_names = {n.id for a in node.args for n in ast.walk(a)
                             if isinstance(n, ast.Name)}
                scanned = arg_names & entity_arrays
                if scanned:
                    reported.add(outer.lineno)
                    yield (node, f"per-`{outer_entity}` iteration computes "
                                 f"distances against the full "
                                 f"`{sorted(scanned)[0]}` array — an "
                                 f"O(N*M) all-pairs scan; a grid hash "
                                 f"reduces it to the local neighbourhood")
                    break
        # (c) one comprehension, two entity generators
        for node in ast.walk(fn):
            if not isinstance(node, (ast.ListComp, ast.SetComp,
                                     ast.GeneratorExp, ast.DictComp)):
                continue
            entities = [e for e in (_iter_entity_name(g.iter)
                                    for g in node.generators) if e]
            if len(entities) >= 2:
                yield (node, f"comprehension iterates the product of "
                             f"`{entities[0]}` x `{entities[1]}`; this "
                             f"all-pairs scan is the pattern the spatial "
                             f"grid index replaces")


# ----------------------------------------------------------------------
# PF005 — dtype-promotion-copy
# ----------------------------------------------------------------------
def _mentions_reduced_dtype(node: ast.AST) -> bool:
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and n.attr in _REDUCED_DTYPES:
            return True
        if isinstance(n, ast.Constant) and n.value in _REDUCED_DTYPES:
            return True
    return False


def check_dtype_promotion(tree: ast.AST, ctx: Context):
    for fn, _qual in _functions_with_quals(tree):
        reduced: set[str] = set()
        full: set[str] = set()
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)):
                continue
            call = node.value
            is_np = _np_call_name(call) is not None
            is_astype = (isinstance(call.func, ast.Attribute)
                         and call.func.attr == "astype")
            if not (is_np or is_astype):
                continue
            has_reduced = _mentions_reduced_dtype(call)
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    continue
                (reduced if has_reduced else full).add(target.id)
                (full if has_reduced else reduced).discard(target.id)
        if not reduced or not full:
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.BinOp):
                continue
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            lo, hi = names & reduced, names & full
            if lo and hi:
                yield (node, f"expression mixes float32 array "
                             f"`{sorted(lo)[0]}` with float64 array "
                             f"`{sorted(hi)[0]}`; numpy silently promotes "
                             f"and copies to float64 — pick one dtype for "
                             f"the whole pipeline")


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def build_pf_rules(hot: HotIndex | None = None) -> list[Rule]:
    """The PF rule family, with PF002 bound to a hot-path index.

    Passing ``hot=None`` treats every function as hot — right for corpus
    tests and single-file scans; the ``repro perfcheck`` driver builds a
    real index over the package root first.
    """
    return [
        Rule("PF001", "per-step-array-rebuild",
             "Arrays rebuilt from Python comprehensions over entity lists "
             "on every call",
             check_array_rebuild, src_only=True),
        Rule("PF002", "alloc-in-hot-loop",
             "numpy allocations inside loops reachable from the training "
             "entrypoints",
             make_check_hot_loop_alloc(hot), src_only=True),
        Rule("PF003", "python-elementwise-loop",
             "Python loops indexing ndarrays element by element where a "
             "vectorized form exists",
             check_python_elementwise_loop, src_only=True),
        Rule("PF004", "quadratic-entity-scan",
             "All-pairs scans over entity collections (the grid-hash "
             "candidates)",
             check_quadratic_entity_scan, src_only=True),
        Rule("PF005", "dtype-promotion-copy",
             "float32/float64 operands mixed in one expression, forcing a "
             "silent upcast copy",
             check_dtype_promotion, src_only=True),
    ]


#: Standalone registry (every function treated as hot), for tests and
#: ad-hoc ``lint_source(..., rules=PF_RULES)`` calls.
PF_RULES: list[Rule] = build_pf_rules(None)
