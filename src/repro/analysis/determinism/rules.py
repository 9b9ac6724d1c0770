"""DT-rule family: static determinism hazards.

A rule family beside reprolint's RL-rules, focused on silent
*nondeterminism* rather than silent numerical corruption.  Every rule
is a ``check(tree, ctx)`` generator on the :mod:`repro.analysis.rules`
framework; ``repro lint`` runs them with the RL rules, and the standard
``# reprolint: disable=DT00x`` inline suppression applies.

The three rules encode the failure modes that break the repo's
bit-determinism contract (resume ≡ uninterrupted, K=1 ≡ sequential):

* **DT001** — global-state RNG (``np.random.rand`` and friends,
  stdlib ``random.*``, ``os.urandom``, and a generator object held at
  module level) instead of an injected ``np.random.Generator``.  Global
  streams are shared across every caller, so draw order depends on
  unrelated code.
* **DT002** — wall-clock values (``time.time()``, ``datetime.now()``)
  feeding *control flow* rather than telemetry.
* **DT003** — unordered-iteration hazards: iterating a ``set``,
  ``os.listdir``/``glob`` results used unsorted, and ``id()``-keyed
  dict access (the PR 3 ``(episode, t)`` grouping bug class).
"""

from __future__ import annotations

import ast

from ..rules import Context, Rule, _calls

__all__ = ["DT_RULES", "check_global_rng",
           "check_wall_clock_control_flow", "check_unordered_iteration"]


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

# Generator constructors that, called at module level, make one stream
# every importer shares.
_RNG_CONSTRUCTORS = {"default_rng", "Generator", "RandomState", "Random"}


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of an attribute chain (``np.random.rand``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _module_level_rngs(tree: ast.AST):
    """Yield ``(stmt, name)`` for each generator bound at module level."""
    if not isinstance(tree, ast.Module):
        return
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        value = stmt.value
        if not names or not isinstance(value, ast.Call):
            continue
        f = value.func
        fname = (f.id if isinstance(f, ast.Name)
                 else f.attr if isinstance(f, ast.Attribute) else "")
        if fname in _RNG_CONSTRUCTORS:
            yield stmt, names[0]


def check_global_rng(tree: ast.AST, ctx: Context):
    """Yield ``(node, message)`` for every global-RNG draw in ``tree``.

    The seedable constructors are fine at call sites, but a generator
    bound at module level is a process-global stream again.
    """
    for stmt, name in _module_level_rngs(tree):
        yield (stmt, f"module-level rng object `{name}` is one stream "
                     f"shared by every caller in the process; draw order "
                     f"then depends on unrelated code — construct the "
                     f"generator where it is used, or inject one")
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
                         f"every other caller — inject a `np.random.Generator` "
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
# Registry
# ----------------------------------------------------------------------
DT_RULES: list[Rule] = [
    Rule("DT001", "global-rng",
         "Global-stream RNG draws (np.random.*, random.*, os.urandom) "
         "and module-level rng objects instead of an injected "
         "np.random.Generator",
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
]
