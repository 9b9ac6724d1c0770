"""Hierarchical scope timers with a compiled-to-nothing disabled path.

``scope("rollout")`` is the single instrumentation primitive the rest of
the codebase uses: a context manager that, while a :class:`Profiler` is
installed, times the enclosed block and files it under a
``/``-separated path built from the enclosing scopes, e.g.
``train/rollout/forward/ugv``.  Scopes nest naturally — entering
``scope("forward/ugv")`` inside ``scope("rollout")`` records under
``rollout/forward/ugv`` — so call sites only name their local stage.

When no profiler is installed every primitive short-circuits on a
single module-global ``is None`` test (the same trick
``repro.nn.tracer`` uses) and ``scope()`` returns one shared do-nothing
context manager, so the instrumented hot paths cost within run-to-run
noise (≈0.04% of a smoke iteration).

While a profiler is installed each scope also reads the process's peak
resident set size (``getrusage(RUSAGE_SELF).ru_maxrss``) on entry and
exit, and accumulates the rise of that high-water mark inside it
(``ScopeStats.rss_rise_mb``); the profiler keeps the peak at its exit
(``Profiler.peak_rss_mb``).  A memory-hungry stage shows up as the scope
whose rise is large.

Usage::

    from repro.obs import Profiler, scope

    with Profiler() as prof:
        with scope("rollout"):
            ...
    print(prof.stats["rollout"].total_seconds)
"""

from __future__ import annotations

import os
import time
from typing import Iterator

from .metrics import MetricsRegistry

__all__ = [
    "Profiler",
    "ScopeStats",
    "scope",
    "counter_add",
    "gauge_set",
    "histogram_observe",
    "is_profiling",
    "active_profiler",
]

# The currently installed profiler, or None.  Every primitive tests this
# once; keeping it a plain module global makes the disabled path a single
# LOAD_GLOBAL + POP_JUMP (mirrors repro.nn.tracer._ACTIVE).
_ACTIVE: "Profiler | None" = None


def _reset_in_child() -> None:
    """Uninstall any inherited profiler in a forked child process.

    A rollout worker forked mid-``Profiler`` would otherwise keep timing
    into the parent's registry object (its own copy-on-write copy,
    silently dropped on exit).  Workers start unprofiled; the parent
    attributes worker time from the step acks instead.
    """
    global _ACTIVE
    _ACTIVE = None


if hasattr(os, "register_at_fork"):  # not available on all platforms
    os.register_at_fork(after_in_child=_reset_in_child)


def _max_rss_kb() -> int:
    """Peak resident set size of this process so far, in KiB (Linux)."""
    # Imported here so only profiled runs load the extension module.
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def is_profiling() -> bool:
    """Return whether a :class:`Profiler` is currently installed."""
    return _ACTIVE is not None


def active_profiler() -> "Profiler | None":
    """Return the installed profiler (or None when profiling is off)."""
    return _ACTIVE


class _NullScope:
    """Shared do-nothing context manager returned while profiling is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SCOPE = _NullScope()


def scope(name: str):
    """Time the enclosed block under ``name`` (pure no-op when disabled).

    ``name`` may itself contain ``/`` separators to declare several
    hierarchy levels at one call site (``scope("forward/ugv")``).
    """
    prof = _ACTIVE
    if prof is None:
        return _NULL_SCOPE
    return _Scope(prof, name)


def counter_add(name: str, amount: float = 1) -> None:
    """Add to the installed profiler's counter ``name`` (no-op when off)."""
    prof = _ACTIVE
    if prof is not None:
        prof.metrics.counter(name).add(amount)


def gauge_set(name: str, value: float) -> None:
    """Set the installed profiler's gauge ``name`` (no-op when off)."""
    prof = _ACTIVE
    if prof is not None:
        prof.metrics.gauge(name).set(value)


def histogram_observe(name: str, value: float) -> None:
    """Record ``value`` into histogram ``name`` (no-op when off)."""
    prof = _ACTIVE
    if prof is not None:
        prof.metrics.histogram(name).observe(value)


class ScopeStats:
    """Accumulated timing for one scope path.

    ``total_seconds`` includes time spent in child scopes;
    ``self_seconds`` subtracts it, so summing ``self_seconds`` over every
    path partitions the attributed wall time with no double counting.
    """

    __slots__ = ("path", "count", "total_seconds", "child_seconds",
                 "min_seconds", "max_seconds", "rss_rise_kb")

    def __init__(self, path: str):
        self.path = path
        self.count = 0
        self.total_seconds = 0.0
        self.child_seconds = 0.0
        self.min_seconds = float("inf")
        self.max_seconds = 0.0
        self.rss_rise_kb = 0

    @property
    def rss_rise_mb(self) -> float:
        """How far the process's peak RSS rose inside this scope (MB,
        summed over calls; includes child scopes, like ``total_seconds``)."""
        return self.rss_rise_kb / 1024.0

    @property
    def self_seconds(self) -> float:
        """Time inside this scope minus time inside child scopes."""
        return self.total_seconds - self.child_seconds

    @property
    def depth(self) -> int:
        """Nesting depth (0 for a root scope)."""
        return self.path.count("/")

    @property
    def name(self) -> str:
        """The last path component."""
        return self.path.rsplit("/", 1)[-1]

    def as_dict(self) -> dict:
        """JSON-able summary of this scope's accumulated timing."""
        return {
            "path": self.path,
            "count": self.count,
            "total_seconds": self.total_seconds,
            "self_seconds": self.self_seconds,
            "min_seconds": self.min_seconds if self.count else 0.0,
            "max_seconds": self.max_seconds,
            "rss_rise_mb": self.rss_rise_mb,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ScopeStats({self.path!r}, count={self.count}, "
                f"total={self.total_seconds:.6f}s)")


class _Scope:
    """Live timing frame for one ``with scope(...)`` entry."""

    __slots__ = ("_prof", "_name", "_path", "_t0", "_rss0_kb", "child_seconds")

    def __init__(self, prof: "Profiler", name: str):
        self._prof = prof
        self._name = name

    def __enter__(self) -> "_Scope":
        prof = self._prof
        stack = prof._stack
        if stack:
            self._path = stack[-1]._path + "/" + self._name
        else:
            self._path = self._name
        self.child_seconds = 0.0
        stack.append(self)
        self._rss0_kb = _max_rss_kb()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._t0
        rss_rise_kb = _max_rss_kb() - self._rss0_kb
        prof = self._prof
        prof._stack.pop()
        stats = prof._stats.get(self._path)
        if stats is None:
            stats = prof._stats[self._path] = ScopeStats(self._path)
        stats.count += 1
        stats.total_seconds += elapsed
        stats.rss_rise_kb += rss_rise_kb
        stats.child_seconds += self.child_seconds
        if elapsed < stats.min_seconds:
            stats.min_seconds = elapsed
        if elapsed > stats.max_seconds:
            stats.max_seconds = elapsed
        if prof._stack:
            prof._stack[-1].child_seconds += elapsed
        else:
            prof._attributed_seconds += elapsed
        if prof.keep_events and len(prof.events) < prof.max_events:
            prof.events.append((self._path, self._t0 - prof._origin, elapsed))
        return False


class Profiler:
    """Collects scope timings, a metrics registry and a trace timeline.

    Install it as a context manager (installation does not nest — one
    measurement per profiler)::

        with Profiler() as prof:
            agent.train(2)
        print(format_top_table(prof))

    Parameters
    ----------
    keep_events:
        Record a ``(path, start, duration)`` event per scope exit for the
        Chrome ``trace_event`` exporter.  Disable for very long runs
        where only the aggregate table matters.
    max_events:
        Cap on retained events; later scope exits still aggregate into
        ``stats`` but stop appending to the timeline.
    registry:
        An existing :class:`~repro.obs.metrics.MetricsRegistry` to attach
        (e.g. one restored from a training checkpoint); a fresh registry
        is created by default.
    """

    def __init__(self, keep_events: bool = True, max_events: int = 200_000,
                 registry: MetricsRegistry | None = None):
        self._stats: dict[str, ScopeStats] = {}
        self._stack: list[_Scope] = []
        self.events: list[tuple[str, float, float]] = []
        self.keep_events = bool(keep_events)
        self.max_events = int(max_events)
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._origin = time.perf_counter()
        self._attributed_seconds = 0.0
        self.wall_seconds: float | None = None
        # The process's peak RSS (MB) when the profiler exits.
        self.peak_rss_mb: float | None = None

    # -- installation ---------------------------------------------------
    def __enter__(self) -> "Profiler":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a repro.obs.Profiler is already installed")
        _ACTIVE = self
        self._origin = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _ACTIVE
        _ACTIVE = None
        self.wall_seconds = time.perf_counter() - self._origin
        self.peak_rss_mb = _max_rss_kb() / 1024.0
        return False

    # -- introspection --------------------------------------------------
    @property
    def stats(self) -> dict[str, ScopeStats]:
        """Accumulated per-path scope statistics (insertion-ordered)."""
        return self._stats

    def __iter__(self) -> Iterator[ScopeStats]:
        return iter(self._stats.values())

    @property
    def attributed_seconds(self) -> float:
        """Wall time spent inside root scopes (no double counting)."""
        return self._attributed_seconds

    def coverage(self) -> float:
        """Fraction of wall time attributed to named scopes.

        Meaningful after the profiler exits (``wall_seconds`` is set);
        while still installed it measures against the elapsed time so
        far.  A well-instrumented workload attributes ≥ 0.95.
        """
        wall = (self.wall_seconds if self.wall_seconds is not None
                else time.perf_counter() - self._origin)
        if wall <= 0.0:
            return 0.0
        return min(1.0, self._attributed_seconds / wall)

    def sorted_stats(self, key: str = "self_seconds") -> list[ScopeStats]:
        """Scope stats sorted descending by ``key``."""
        return sorted(self._stats.values(),
                      key=lambda s: getattr(s, key), reverse=True)
