"""Graph tracer: capture the autodiff tape into an inspectable record.

This is the *third* leg of the correctness tooling (source lint in
``repro.analysis.rules``, runtime sanitizer in ``repro.nn.anomaly``): a
zero-configuration tape capture that records every tensor the engine
creates while a :class:`trace` scope is active, together with op name,
creation site, parents and an optional phase tag.  The records are the
raw material :mod:`repro.analysis.graphcheck` compiles into a typed
graph IR for static verification (shape propagation, gradient flow,
softmax invariants, cross-step diffs, common-subexpression detection).

Unlike the anomaly provenance, trace records

* keep *all* parent edges, even through tensors with
  ``requires_grad=False`` — invariants like "attention rows sum to 1"
  live on constant subgraphs the backward tape prunes away;
* never raise: tracing observes, analyses judge afterwards;
* skip input fingerprinting, so tracing is cheap enough to wrap a full
  forward+backward step.

When no trace is active the engine pays a single ``is None`` test per
op; that cost sits on the training path, which ``bench/`` times end to
end.

Usage::

    from repro.nn import trace

    with trace() as tape:
        tape.set_phase("forward")
        out = policy(observations)
        tape.set_phase("loss")
        loss = surrogate_loss(out)
        loss.backward()          # backward creates no new tape entries
    print(len(tape))             # number of recorded ops
"""

from __future__ import annotations

import sys
import traceback
from typing import Iterator, Sequence

__all__ = ["TapeRecord", "trace", "is_tracing", "active_trace"]

# The currently active trace, or None.  ``_make_child`` tests this once
# per op; keeping it a plain module global (not a list/stack) makes the
# disabled path a single LOAD_GLOBAL + POP_JUMP.
_ACTIVE: "trace | None" = None

# Engine-internal files skipped when attributing an op to user code
# (mirrors repro.nn.anomaly._ENGINE_FILES).
_ENGINE_FILES = ("tensor.py", "functional.py", "anomaly.py", "tracer.py")


def is_tracing() -> bool:
    """Return whether a :class:`trace` scope is currently active."""
    return _ACTIVE is not None


def active_trace() -> "trace | None":
    """Return the active trace (used by ``annotate`` to attach labels)."""
    return _ACTIVE


def _creation_site(extra_skip: tuple = ()) -> str:
    """First stack frame outside the engine, as ``path:line in func``.

    ``extra_skip`` lets :class:`trace` subclasses that add their own
    frames to the record path (e.g. ``repro.obs.opprof.TimedTrace``)
    exclude those files from the attribution walk.
    """
    for frame in reversed(traceback.extract_stack()):
        fname = frame.filename.replace("\\", "/")
        base = fname.rsplit("/", 1)[-1]
        if "repro/nn/" in fname and base in _ENGINE_FILES:
            continue
        if extra_skip and base in extra_skip:
            continue
        return f"{fname}:{frame.lineno} in {frame.name}"
    return "<unknown>"


class TapeRecord:
    """One recorded op: the created tensor plus its provenance.

    Strong references to ``tensor`` and ``parents`` keep the traced step's
    tape alive for as long as the trace object itself, which is what lets
    the cross-step diff pass compare tensor identities between steps.
    """

    __slots__ = ("tensor", "op", "site", "label", "phase", "parents")

    def __init__(self, tensor, op: str, site: str, phase: str, parents: tuple):
        self.tensor = tensor
        self.op = op
        self.site = site
        self.label = ""
        self.phase = phase
        self.parents = parents

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TapeRecord(op={self.op!r}, shape={tuple(self.tensor.shape)}, "
                f"site={self.site!r})")


class trace:
    """Context manager capturing every engine op into a tape.

    Nesting raises: a trace is a measurement of one step, and nested
    scopes would silently attribute inner ops to the outer tape.
    """

    # Subclasses whose ``record_op`` override adds stack frames list their
    # file names here so site attribution skips them (see _creation_site).
    _extra_site_skip: tuple = ()

    def __init__(self, site_provenance: bool = True):
        # site_provenance=False skips the stack walk per op
        # (``profile_ops`` exposes it for very hot loops).
        self.records: list[TapeRecord] = []
        self._by_id: dict[int, TapeRecord] = {}
        self._phase = "forward"
        self._sites = site_provenance

    # -- context protocol ----------------------------------------------
    def __enter__(self) -> "trace":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("repro.nn.trace scopes do not nest")
        _ACTIVE = self
        return self

    def __exit__(self, *exc_info) -> None:
        global _ACTIVE
        _ACTIVE = None

    # -- recording ------------------------------------------------------
    def record_op(self, child, parents: Sequence, op: str | None) -> None:
        """Called by ``Tensor._make_child`` while this trace is active."""
        if op is None:
            # record_op <- _make_child <- the op method: two frames up.
            op = sys._getframe(2).f_code.co_name.strip("_")
        site = (_creation_site(self._extra_site_skip) if self._sites
                else "<untracked>")
        rec = TapeRecord(child, op, site, self._phase, tuple(parents))
        self.records.append(rec)
        self._by_id[id(child)] = rec

    def label(self, tensor, label: str) -> None:
        """Attach a semantic label (from ``annotate``) to a traced tensor."""
        rec = self._by_id.get(id(tensor))
        if rec is not None:
            rec.label = label

    # -- phases ---------------------------------------------------------
    def set_phase(self, phase: str) -> None:
        """Tag subsequently recorded ops with ``phase`` (e.g. "loss")."""
        self._phase = str(phase)

    # -- introspection --------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TapeRecord]:
        return iter(self.records)

    def record_for(self, tensor) -> TapeRecord | None:
        """The record that created ``tensor``, or None for leaves."""
        return self._by_id.get(id(tensor))
