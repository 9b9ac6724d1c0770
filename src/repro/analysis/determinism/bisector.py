"""Runtime divergence bisector behind ``repro check-determinism``.

Runs the same training segment twice from the same seed and certifies
bit-identical state at every iteration boundary.  On mismatch it narrows
the divergence in two stages:

1. **Iteration**: both runs advance in lockstep, fingerprinted after
   every iteration (:mod:`.fingerprint`), so the first divergent
   iteration — and which state component diverged (params / trainer /
   env / telemetry) — falls straight out of the comparison.
2. **Op**: both agents are rewound to their pre-iteration snapshots
   (the PR 4 ``state_dict`` round-trip) and the divergent iteration is
   replayed under a :class:`FingerprintTrace` — the PR 2 tape tracer
   extended to digest every op output at record time.  The first tape
   index where op, creation site or value digest disagrees names the
   exact op that injected nondeterminism.

Lockstep (rather than two sequential runs) is deliberate: any hidden
*shared* state — a global rng, a module cache — is interleaved between
the two runs, so contamination that two back-to-back runs might
coincidentally reproduce identically shows up as a divergence here.
"""

from __future__ import annotations

import copy
import inspect
import sys
from dataclasses import dataclass, field

from ...nn.tracer import trace

__all__ = ["DivergenceReport", "FingerprintTrace", "check_determinism",
           "first_tape_divergence"]


class FingerprintTrace(trace):
    """A tape that digests every op output the moment it is recorded.

    Digesting at record time (not after the step) pins the value *as
    produced*: later in-place mutation of an intermediate cannot mask a
    divergence.  ``fingerprints[i]`` aligns with ``records[i]``.
    """

    # Like obs.opprof.TimedTrace: this override adds a stack frame, so
    # site attribution must skip this file and the op-name lookup has to
    # happen here where _getframe(2) still lands on the op method.
    _extra_site_skip = ("bisector.py",)

    def __init__(self, site_provenance: bool = True):
        super().__init__(site_provenance=site_provenance)
        self.fingerprints: list[str] = []

    def record_op(self, child, parents, op) -> None:
        if op is None:
            op = sys._getframe(2).f_code.co_name.strip("_")
        super().record_op(child, parents, op)
        self.fingerprints.append(child.fingerprint())


@dataclass
class DivergenceReport:
    """Outcome of one two-run determinism check."""

    method: str
    iterations: int
    num_envs: int
    equal: bool
    first_divergent_iteration: int | None = None
    divergent_components: list[str] = field(default_factory=list)
    op_index: int | None = None
    op: str | None = None
    site: str | None = None
    op_note: str = ""
    fingerprint_history: list[dict] = field(default_factory=list)

    def format(self) -> str:
        mode = f"num_envs={self.num_envs}"
        if self.equal:
            return (f"check-determinism: {self.method} ({mode}): OK — "
                    f"{self.iterations} iteration(s) bit-identical across "
                    f"two same-seed runs")
        lines = [f"check-determinism: {self.method} ({mode}): DIVERGED at "
                 f"iteration {self.first_divergent_iteration} "
                 f"(components: {', '.join(self.divergent_components) or '?'})"]
        if self.op is not None:
            lines.append(f"  first divergent op: #{self.op_index} `{self.op}` "
                         f"at {self.site}")
        if self.op_note:
            lines.append(f"  {self.op_note}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {"method": self.method, "iterations": self.iterations,
                "num_envs": self.num_envs, "equal": self.equal,
                "first_divergent_iteration": self.first_divergent_iteration,
                "divergent_components": self.divergent_components,
                "op_index": self.op_index, "op": self.op, "site": self.site,
                "op_note": self.op_note}


def first_tape_divergence(tape_a: FingerprintTrace,
                          tape_b: FingerprintTrace) -> tuple[int, str, str, str] | None:
    """First index where the two tapes disagree, or None if identical.

    Returns ``(index, op, site, why)`` where ``why`` distinguishes a
    *structural* divergence (different op/site sequence — control flow
    already forked upstream) from a *value* divergence (same op, byte-
    different output — this op or its inputs injected the difference).
    """
    for i in range(min(len(tape_a), len(tape_b))):
        ra, rb = tape_a.records[i], tape_b.records[i]
        if ra.op != rb.op or ra.site != rb.site:
            return (i, ra.op, ra.site,
                    f"structural: run A recorded `{ra.op}` at {ra.site}, "
                    f"run B `{rb.op}` at {rb.site} — control flow diverged "
                    f"before this op")
        if tape_a.fingerprints[i] != tape_b.fingerprints[i]:
            return (i, ra.op, ra.site,
                    "value: same op and site, byte-different output — the "
                    "first nondeterministic input enters here")
    if len(tape_a) != len(tape_b):
        i = min(len(tape_a), len(tape_b))
        longer = tape_a if len(tape_a) > len(tape_b) else tape_b
        rec = longer.records[i]
        return (i, rec.op, rec.site,
                f"structural: tapes have different lengths "
                f"({len(tape_a)} vs {len(tape_b)} ops)")
    return None


def _default_factory(method, campus, preset, num_ugvs, num_uavs_per_ugv, seed):
    """Build a fresh agent exactly as ``run_training`` does."""
    from ...experiments.runner import build_agent

    return build_agent(method, campus, preset, num_ugvs, num_uavs_per_ugv,
                       seed)


def _step(agent, episodes: int, num_envs: int, tape=None):
    """Advance one training iteration; returns the iteration's record."""
    captured: list = []
    sig = inspect.signature(agent.train).parameters
    kwargs = {}
    if "callback" in sig:
        kwargs["callback"] = captured.append
    if num_envs > 1 and "num_envs" in sig:
        kwargs["num_envs"] = num_envs
    if tape is not None:
        with tape:
            agent.train(1, episodes, **kwargs)
    else:
        agent.train(1, episodes, **kwargs)
    if captured:
        return captured[-1]
    history = getattr(agent, "trainer", agent)
    records = getattr(history, "history", None)
    return records[-1] if records else None


def check_determinism(method: str = "garl", campus: str = "kaist",
                      preset: str = "smoke", iterations: int = 3,
                      episodes_per_iteration: int = 1, num_envs: int = 1,
                      num_ugvs: int = 2, num_uavs_per_ugv: int = 1,
                      seed: int = 0, agent_factory=None,
                      keep_history: bool = False) -> DivergenceReport:
    """Two-run lockstep determinism check with iteration→op bisection.

    ``agent_factory`` (a zero-argument callable returning a fresh agent)
    overrides the default registry construction — the test suite uses it
    to inject deliberately nondeterministic policies and assert the
    bisector names the injected op.
    """
    from .fingerprint import diff_components, fingerprint_agent

    def build():
        if agent_factory is not None:
            return agent_factory()
        return _default_factory(method, campus, preset, num_ugvs,
                                num_uavs_per_ugv, seed)

    agent_a, agent_b = build(), build()
    report = DivergenceReport(method=method, iterations=iterations,
                              num_envs=num_envs, equal=True)

    can_rewind = (hasattr(agent_a, "state_dict")
                  and hasattr(agent_a, "load_state_dict"))
    for t in range(iterations):
        snap_a = copy.deepcopy(agent_a.state_dict()) if can_rewind else None
        snap_b = copy.deepcopy(agent_b.state_dict()) if can_rewind else None
        rec_a = _step(agent_a, episodes_per_iteration, num_envs)
        rec_b = _step(agent_b, episodes_per_iteration, num_envs)
        fp_a = fingerprint_agent(agent_a, rec_a)
        fp_b = fingerprint_agent(agent_b, rec_b)
        if keep_history:
            report.fingerprint_history.append({"iteration": t, "a": fp_a,
                                               "b": fp_b})
        if fp_a == fp_b:
            continue

        report.equal = False
        report.first_divergent_iteration = t
        report.divergent_components = diff_components(fp_a, fp_b)
        if not can_rewind:
            report.op_note = ("agent exposes no state_dict/load_state_dict; "
                              "cannot rewind for the op-level replay")
            return report

        # Rewind both runs to the pre-iteration snapshot and replay the
        # divergent iteration under the fingerprinting tape tracer.
        agent_a.load_state_dict(snap_a)
        agent_b.load_state_dict(snap_b)
        tape_a = FingerprintTrace()
        tape_b = FingerprintTrace()
        _step(agent_a, episodes_per_iteration, num_envs, tape=tape_a)
        _step(agent_b, episodes_per_iteration, num_envs, tape=tape_b)
        hit = first_tape_divergence(tape_a, tape_b)
        if hit is None:
            report.op_note = ("the traced replay did not reproduce the "
                              "divergence (state-only nondeterminism, or a "
                              "race that the replay ordering hid); the "
                              "component diff above still localises the "
                              "iteration")
        else:
            report.op_index, report.op, report.site, report.op_note = hit
        return report
    return report
