"""In-memory span recorder, self-time arithmetic and function wrapping.

Nothing here knows about ``repro``: :mod:`bench.layers` decides which
functions become spans.  Spans are kept in memory while the run lasts and
written out once, at the end (:meth:`Tracer.dump`).
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import threading
import time
from dataclasses import asdict, dataclass, field


def max_rss_mb() -> float:
    """High-water mark of this process's resident set, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    """One timed call: ``parent`` is the index of the enclosing span in
    the same thread, or -1 at the top of that thread's stack."""

    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    thread: int = 0
    phase: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans per thread; ``phase`` tags each new span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.phase = ""
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **attrs) -> int:
        stack = self._stack()
        span = Span(name, self.clock(), parent=stack[-1] if stack else -1,
                    thread=threading.get_ident(), phase=self.phase, attrs=attrs)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack().pop()

    def wrap(self, fn, name: str, attrs_fn=None, rss: bool = False):
        """Return ``fn`` wrapped in a span; ``attrs_fn(*args, **kwargs)``
        supplies counts (rows, centres, ...) recorded on the span, and
        ``rss`` records the process high-water mark at both ends."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = attrs_fn(*args, **kwargs) if attrs_fn is not None else {}
            if rss:
                attrs["rss0"] = max_rss_mb()
            index = self.begin(name, **attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
                if rss:
                    self.spans[index].attrs["rss1"] = max_rss_mb()

        return wrapper

    def dump(self, path) -> None:
        """Write every recorded span as one JSON list."""
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def load_spans(path) -> list[Span]:
    with open(path) as fh:
        return [Span(**blob) for blob in json.load(fh)]


# ----------------------------------------------------------------------
# Arithmetic over a finished span list
# ----------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def children_of(spans: list[Span]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        kids.setdefault(span.parent, []).append(i)
    return kids


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    kids = children_of(spans)
    return [s.duration - _covered([(spans[c].start, spans[c].end)
                                   for c in kids.get(i, ())], s.start, s.end)
            for i, s in enumerate(spans)]


def ancestors(spans: list[Span], index: int):
    """Indices of the enclosing spans, innermost first."""
    parent = spans[index].parent
    while parent >= 0:
        yield parent
        parent = spans[parent].parent


def nearest(spans: list[Span], index: int, names) -> str | None:
    """Name of the innermost enclosing span whose name is in ``names``."""
    for a in ancestors(spans, index):
        if spans[a].name in names:
            return spans[a].name
    return None


@dataclass
class Totals:
    """Aggregate of a selection of spans sharing one name."""

    total_s: float = 0.0  # outermost occurrences only: recursion counts once
    self_s: float = 0.0
    calls: int = 0
    attrs: dict = field(default_factory=dict)


def aggregate(spans: list[Span], keep=lambda i, span: True,
              key=lambda i, span: span.name) -> dict[str, Totals]:
    """Group spans by ``key`` (default: name) among those ``keep`` accepts.

    A span nested inside a span of the same name adds to ``self_s`` and
    ``calls`` but not again to ``total_s``; integer/float attributes sum.
    """
    selfs = self_times(spans)
    out: dict[str, Totals] = {}
    for i, span in enumerate(spans):
        if not keep(i, span):
            continue
        k = key(i, span)
        if k is None:
            continue
        agg = out.setdefault(k, Totals())
        agg.calls += 1
        agg.self_s += selfs[i]
        if all(spans[a].name != span.name for a in ancestors(spans, i)):
            agg.total_s += span.duration
        for name, value in span.attrs.items():
            if isinstance(value, (int, float)):
                agg.attrs[name] = agg.attrs.get(name, 0) + value
    return out


# ----------------------------------------------------------------------
# Installing wrappers
# ----------------------------------------------------------------------

class Patches:
    """Replaced attributes, restorable in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, tracer: Tracer, module, name: str, span: str,
                 prefix: str, **kw) -> None:
        """Wrap module-level function ``module.name`` everywhere it is
        bound: every loaded module under ``prefix`` that imported it by
        name gets the wrapper too."""
        original = getattr(module, name)
        wrapper = tracer.wrap(original, span, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix
                                   or mod_name.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, wrapper)

    def method(self, tracer: Tracer, cls, name: str, span: str, **kw) -> None:
        """Wrap ``cls.name`` (a plain function defined on ``cls``)."""
        self.set(cls, name, tracer.wrap(cls.__dict__[name], span, **kw))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
