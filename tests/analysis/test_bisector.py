"""Runtime divergence bisector: clean runs certify, injected
nondeterminism is localised to the iteration and the op."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.analysis.determinism.bisector import (
    check_determinism,
    first_tape_divergence,
)
from repro.core.policies import UGVPolicyOutput
from repro.experiments.runner import build_agent


def _build(noisy: bool = False):
    agent = build_agent("garl", "kaist", "smoke", num_ugvs=2,
                        num_uavs_per_ugv=1, seed=0)
    if noisy:
        # Jitter both forwards: training runs ``forward_batched`` and
        # evaluation the per-timestep ``forward``.
        for name in ("forward", "forward_batched"):
            setattr(agent.ugv_policy, name,
                    _noisy(getattr(agent.ugv_policy, name)))
    return agent


def _noisy(orig):
    def noisy_forward(*args, **kwargs):
        out = orig(*args, **kwargs)
        jitter = float(1.0 + 1e-3 * np.random.rand())  # the injected bug
        return UGVPolicyOutput(out.logits * jitter, out.values)
    return noisy_forward


def test_identical_runs_certify_equal():
    report = check_determinism(iterations=2, num_ugvs=2, num_uavs_per_ugv=1,
                               agent_factory=_build, keep_history=True)
    assert report.equal
    assert report.first_divergent_iteration is None
    assert len(report.fingerprint_history) == 2
    for entry in report.fingerprint_history:
        assert entry["a"] == entry["b"]
    assert "OK" in report.format()


def test_injected_global_rng_is_caught_at_iteration_and_op():
    report = check_determinism(iterations=2, num_ugvs=2, num_uavs_per_ugv=1,
                               agent_factory=lambda: _build(noisy=True))
    assert not report.equal
    # Both lockstep runs draw from the shared global stream, so the very
    # first iteration diverges.
    assert report.first_divergent_iteration == 0
    assert report.divergent_components  # at least one component named
    # The rewind-replay names the op that consumed the random value: the
    # logits scaling in _noisy above.
    assert report.op == "mul"
    assert "test_bisector.py" in (report.site or "")
    assert report.op_note.startswith("value:")
    assert f"`{report.op}`" in report.format()


class _FakeTape:
    def __init__(self, ops, fingerprints):
        self.records = [SimpleNamespace(op=op, site=site) for op, site in ops]
        self.fingerprints = list(fingerprints)

    def __len__(self):
        return len(self.records)


def test_first_tape_divergence_value_structural_and_length():
    a = _FakeTape([("add", "x.py:1"), ("mul", "x.py:2")], ["aa", "bb"])
    assert first_tape_divergence(a, _FakeTape(
        [("add", "x.py:1"), ("mul", "x.py:2")], ["aa", "bb"])) is None

    idx, op, site, why = first_tape_divergence(a, _FakeTape(
        [("add", "x.py:1"), ("mul", "x.py:2")], ["aa", "zz"]))
    assert (idx, op, site) == (1, "mul", "x.py:2")
    assert why.startswith("value:")

    idx, op, _, why = first_tape_divergence(a, _FakeTape(
        [("add", "x.py:1"), ("sub", "x.py:9")], ["aa", "bb"]))
    assert (idx, op) == (1, "mul")
    assert why.startswith("structural:")

    idx, _, _, why = first_tape_divergence(a, _FakeTape(
        [("add", "x.py:1")], ["aa"]))
    assert idx == 1
    assert "different lengths" in why
