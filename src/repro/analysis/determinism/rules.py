"""DT-rule family: static determinism hazards.

A rule family beside reprolint's RL-rules, focused on silent
*nondeterminism* rather than silent numerical corruption.  Every rule
is a ``check(tree, ctx)`` generator on the :mod:`repro.analysis.rules`
framework; ``repro lint`` runs them with the RL rules, and the standard
``# reprolint: disable=DT00x`` inline suppression applies.

The four rules encode the failure modes that break the repo's
bit-determinism contract (resume ≡ uninterrupted, K=1 ≡ sequential):

* **DT001** — global-state RNG (``np.random.rand`` and friends,
  stdlib ``random.*``, ``os.urandom``) instead of an injected
  ``np.random.Generator``.  Global streams are shared across every
  caller and every fork, so draw order depends on unrelated code.
* **DT002** — wall-clock values (``time.time()``, ``datetime.now()``)
  feeding *control flow* rather than telemetry.
* **DT003** — unordered-iteration hazards: iterating a ``set``,
  ``os.listdir``/``glob`` results used unsorted, and ``id()``-keyed
  dict access (the PR 3 ``(episode, t)`` grouping bug class).
* **DT004** — fork-unsafety across the multi-process worker pool:
  module-level mutable state (weakref containers included) mutated from
  functions, and module-level file handles / rng objects that a forked
  worker would share.  Globals reset by an ``os.register_at_fork``
  cleanup hook are exempt — the hook makes the fork boundary safe by
  construction (see :func:`_fork_guarded_names`).
"""

from __future__ import annotations

import ast

from ..rules import Context, Rule, _calls

__all__ = ["DT_RULES", "check_global_rng",
           "check_wall_clock_control_flow", "check_unordered_iteration",
           "check_fork_unsafe_state"]


# ----------------------------------------------------------------------
# DT001 — global-rng
# ----------------------------------------------------------------------
# Constructors that *produce an independent, seedable stream* are the
# sanctioned alternative and are never flagged.
_NP_RANDOM_ALLOWED = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937", "RandomState",
}

# stdlib ``random`` module functions drawing from the hidden global
# Mersenne-Twister instance.
_STDLIB_RANDOM_FUNCS = {
    "random", "randint", "randrange", "randbytes", "getrandbits",
    "choice", "choices", "sample", "shuffle", "uniform", "triangular",
    "betavariate", "expovariate", "gammavariate", "gauss",
    "lognormvariate", "normalvariate", "vonmisesvariate",
    "paretovariate", "weibullvariate", "seed", "setstate", "getstate",
    "binomialvariate", "SystemRandom",
}


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of an attribute chain (``np.random.rand``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def check_global_rng(tree: ast.AST, ctx: Context):
    """Yield ``(node, message)`` for every global-RNG draw in ``tree``."""
    for call in _calls(tree):
        func = call.func
        if not isinstance(func, ast.Attribute):
            continue
        value = func.value
        # np.random.<fn>(...) — module-function form on the global stream.
        if (isinstance(value, ast.Attribute) and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in ("np", "numpy")
                and func.attr not in _NP_RANDOM_ALLOWED):
            yield (call, f"`{_dotted(func)}(...)` draws from numpy's "
                         f"process-global stream; draw order then depends on "
                         f"every other caller (and differs across forked "
                         f"workers) — inject a `np.random.Generator` "
                         f"(`np.random.default_rng(seed)`) instead")
        # stdlib random.<fn>(...) on the hidden module instance.
        elif (isinstance(value, ast.Name) and value.id == "random"
                and func.attr in _STDLIB_RANDOM_FUNCS):
            yield (call, f"`random.{func.attr}(...)` uses the stdlib's hidden "
                         f"global Mersenne-Twister; seed it nowhere and share "
                         f"it everywhere — inject a seeded "
                         f"`np.random.Generator` (or `random.Random(seed)`) "
                         f"instead")
        # os.urandom: OS entropy, unseedable by construction.
        elif (isinstance(value, ast.Name) and value.id == "os"
                and func.attr == "urandom"):
            yield (call, "`os.urandom(...)` is OS entropy and can never be "
                         "seeded; derive bytes from an injected "
                         "`np.random.Generator` if reproducibility matters")


# ----------------------------------------------------------------------
# DT002 — wall-clock-control-flow
# ----------------------------------------------------------------------
_CLOCK_CALLS = {
    ("time", "time"), ("time", "monotonic"), ("time", "time_ns"),
    ("time", "monotonic_ns"), ("datetime", "now"), ("datetime", "utcnow"),
    ("date", "today"),
}


def _is_clock_call(node: ast.AST) -> bool:
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    func = node.func
    owner = func.value
    owner_name = (owner.id if isinstance(owner, ast.Name)
                  else owner.attr if isinstance(owner, ast.Attribute) else "")
    return (owner_name, func.attr) in _CLOCK_CALLS


def _contains_clock(node: ast.AST) -> ast.AST | None:
    for n in ast.walk(node):
        if _is_clock_call(n):
            return n
    return None


def check_wall_clock_control_flow(tree: ast.AST, ctx: Context):
    """Wall-clock reads are fine as *telemetry* but poison *logic*.

    Flagged: clock calls inside ``if``/``while`` tests, comparison
    operands, and seed arguments.  Durations recorded into metrics
    (``time.perf_counter()`` spans assigned and reported) pass clean.
    """
    flagged: set[int] = set()

    def _flag(clock: ast.AST, where: str):
        if id(clock) not in flagged:
            flagged.add(id(clock))
            return [(clock, f"wall-clock value feeds {where}; two identical "
                            f"runs take different branches depending on host "
                            f"speed — gate on iteration/step counters instead, "
                            f"and keep clock reads for telemetry only")]
        return []

    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While)):
            clock = _contains_clock(node.test)
            if clock is not None:
                yield from _flag(clock, "a branch condition")
        elif isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                clock = _contains_clock(operand)
                if clock is not None:
                    yield from _flag(clock, "a comparison")
        elif isinstance(node, ast.Call):
            # seeding from the clock: seed(time.time()), default_rng(now…)
            name = (node.func.attr if isinstance(node.func, ast.Attribute)
                    else node.func.id if isinstance(node.func, ast.Name) else "")
            if "seed" in name.lower() or name == "default_rng":
                for arg in (*node.args, *(kw.value for kw in node.keywords)):
                    clock = _contains_clock(arg)
                    if clock is not None:
                        yield from _flag(clock, "an rng seed")


# ----------------------------------------------------------------------
# DT003 — unordered-iteration
# ----------------------------------------------------------------------
_LISTING_CALLS = {"listdir", "glob", "iglob", "rglob", "iterdir", "scandir"}


def _is_set_expr(node: ast.AST, set_names: set[str]) -> bool:
    if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call):
        f = node.func
        if isinstance(f, ast.Name) and f.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitAnd, ast.BitOr,
                                                            ast.BitXor, ast.Sub)):
        return (_is_set_expr(node.left, set_names)
                and _is_set_expr(node.right, set_names))
    return False


def _sorted_subtrees(tree: ast.AST) -> set[int]:
    """ids of all nodes living under a ``sorted(...)`` call."""
    inside: set[int] = set()
    for call in _calls(tree):
        f = call.func
        if isinstance(f, ast.Name) and f.id == "sorted":
            for sub in ast.walk(call):
                inside.add(id(sub))
    return inside


def check_unordered_iteration(tree: ast.AST, ctx: Context):
    in_sorted = _sorted_subtrees(tree)

    # (a) iterating sets: for-loops and comprehension generators.
    set_names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            if _is_set_expr(node.value, set_names):
                set_names.add(node.targets[0].id)
            else:
                set_names.discard(node.targets[0].id)
    for node in ast.walk(tree):
        iters: list[ast.AST] = []
        if isinstance(node, ast.For):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if id(it) in in_sorted:
                continue
            if _is_set_expr(it, set_names):
                yield (it, "iterating a `set` visits elements in hash order, "
                           "which varies across processes (PYTHONHASHSEED) "
                           "and runs; wrap in `sorted(...)` before iterating")

    # (b) directory listings consumed unsorted.
    for call in _calls(tree):
        f = call.func
        name = (f.attr if isinstance(f, ast.Attribute)
                else f.id if isinstance(f, ast.Name) else "")
        if name in _LISTING_CALLS and id(call) not in in_sorted:
            yield (call, f"`{name}(...)` returns entries in filesystem order, "
                         f"which differs across machines and runs; wrap the "
                         f"listing in `sorted(...)`")

    # (c) id()-keyed dicts: the PR 3 grouping bug class.
    key_exprs: list[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            key_exprs.append(node.slice)
        elif isinstance(node, ast.Dict):
            key_exprs.extend(k for k in node.keys if k is not None)
        elif isinstance(node, ast.DictComp):
            key_exprs.append(node.key)
    for key in key_exprs:
        for n in ast.walk(key):
            if (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                    and n.func.id == "id"):
                yield (n, "dict keyed by `id(...)`: object addresses change "
                          "every run, so grouping/ordering built on them is "
                          "unreproducible (the PR 3 rollout-grouping bug) — "
                          "key by a stable value such as `(episode, t)`")
                break


# ----------------------------------------------------------------------
# DT004 — fork-unsafe-state
# ----------------------------------------------------------------------
_MUTABLE_CONSTRUCTORS = {"dict", "list", "set", "defaultdict", "OrderedDict",
                         "deque", "Counter",
                         # weakref containers hold registries and fork
                         # exactly like their strong counterparts.
                         "WeakSet", "WeakValueDictionary",
                         "WeakKeyDictionary"}
_MUTATOR_METHODS = {"append", "add", "update", "extend", "insert", "pop",
                    "popitem", "remove", "discard", "clear", "setdefault",
                    "appendleft", "extendleft"}


def _module_level_hazards(tree: ast.Module) -> tuple[set[str], list[tuple[ast.AST, str]]]:
    """(mutable global names, immediate per-definition findings)."""
    mutable: set[str] = set()
    findings: list[tuple[ast.AST, str]] = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            continue
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target])
        value = stmt.value
        if value is None:
            continue
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names:
            continue
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                              ast.ListComp, ast.SetComp)):
            mutable.update(names)
        elif isinstance(value, ast.Call):
            f = value.func
            fname = (f.id if isinstance(f, ast.Name)
                     else f.attr if isinstance(f, ast.Attribute) else "")
            if fname in _MUTABLE_CONSTRUCTORS:
                mutable.update(names)
            elif fname == "open":
                findings.append((stmt, f"module-level `open(...)` handle "
                                       f"`{names[0]}` is shared by forked "
                                       f"workers — interleaved writes corrupt "
                                       f"the file; open per-process instead"))
            elif fname in ("default_rng", "Generator", "RandomState", "Random"):
                findings.append((stmt, f"module-level rng object `{names[0]}` "
                                       f"is cloned into every forked worker — "
                                       f"all workers then draw *identical* "
                                       f"streams; construct per-worker rngs "
                                       f"from `replica_seed`/`SeedSequence.spawn` "
                                       f"instead"))
    return mutable, findings


def _fork_guarded_names(tree: ast.Module) -> set[str]:
    """Module globals reset by an ``os.register_at_fork`` hook.

    Two sanctioned guard shapes (both used across the repo)::

        os.register_at_fork(after_in_child=_CACHE.clear)
        os.register_at_fork(after_in_child=_reset_in_child)

    A bound-method callback guards its owner directly; a function
    callback guards every module global it touches (names it loads,
    stores, or declares ``global``).  State a child is guaranteed to
    clear at the fork boundary cannot leak parent mutations into a
    worker, so DT004 exempts mutations of guarded names — the audit
    trail for *what* is guarded lives in the shared-state map.
    """
    funcs = {fn.name: fn for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))}
    guarded: set[str] = set()
    for call in _calls(tree):
        f = call.func
        if not (isinstance(f, ast.Attribute) and f.attr == "register_at_fork"):
            continue
        for value in (*call.args, *(kw.value for kw in call.keywords)):
            if (isinstance(value, ast.Attribute)
                    and isinstance(value.value, ast.Name)):
                guarded.add(value.value.id)
            elif isinstance(value, ast.Name) and value.id in funcs:
                for node in ast.walk(funcs[value.id]):
                    if isinstance(node, ast.Name):
                        guarded.add(node.id)
                    elif isinstance(node, ast.Global):
                        guarded.update(node.names)
    return guarded


def check_fork_unsafe_state(tree: ast.AST, ctx: Context):
    if not isinstance(tree, ast.Module):
        return
    mutable_globals, findings = _module_level_hazards(tree)
    yield from findings
    mutable_globals -= _fork_guarded_names(tree)
    if not mutable_globals:
        return
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        declared_global = {name for node in ast.walk(fn)
                           if isinstance(node, ast.Global)
                           for name in node.names}
        for node in ast.walk(fn):
            # NAME[...] = value / del NAME[...]
            target_name = None
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = (node.targets if isinstance(node, (ast.Assign, ast.Delete))
                           else [node.target])
                for t in targets:
                    if (isinstance(t, ast.Subscript)
                            and isinstance(t.value, ast.Name)
                            and t.value.id in mutable_globals):
                        target_name = t.value.id
                    elif (isinstance(t, ast.Name) and t.id in declared_global
                            and t.id in mutable_globals):
                        target_name = t.id
            # NAME.mutator(...)
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATOR_METHODS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in mutable_globals):
                target_name = node.func.value.id
            if target_name is not None:
                yield (node, f"function `{fn.name}` mutates module-level "
                             f"state `{target_name}`; after fork each worker "
                             f"mutates its own silent copy (or races over "
                             f"shared memory) and replicas diverge — pass "
                             f"state explicitly, or confine it to one process "
                             f"and document it in the shared-state map")


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
DT_RULES: list[Rule] = [
    Rule("DT001", "global-rng",
         "Global-stream RNG draws (np.random.*, random.*, os.urandom) "
         "instead of an injected np.random.Generator",
         check_global_rng, src_only=True),
    Rule("DT002", "wall-clock-control-flow",
         "time.time()/datetime.now() feeding branches, comparisons or seeds",
         check_wall_clock_control_flow, src_only=True),
    # engine_exempt: the tape tracer / IR builder key maps by tensor
    # id() as *identity* (never ordered or persisted), which is exactly
    # the pattern this rule exists to flag everywhere else.
    Rule("DT003", "unordered-iteration",
         "set iteration, unsorted directory listings, id()-keyed dicts",
         check_unordered_iteration, src_only=True, engine_exempt=True),
    Rule("DT004", "fork-unsafe-state",
         "Module-level mutable state (incl. weakref containers) mutated "
         "from functions; module-level file handles / rng objects shared "
         "across forks; os.register_at_fork cleanup hooks exempt",
         check_fork_unsafe_state, src_only=True, engine_exempt=True),
]
