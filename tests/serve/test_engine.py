"""Micro-batcher semantics: no hold, coalesce, deadline, shed, drain,
non-finite outputs, stage accounting.

``submit`` makes loop futures, so each scenario runs inside a running
event loop (:func:`_in_loop`); the engine has no thread, so a scenario
stages its queue and then runs the batches itself with ``run_batch``.
"""

from __future__ import annotations

import asyncio
import statistics
import time
import warnings

import numpy as np
import pytest

from repro.serve import engine as engine_module
from repro.serve.artifact import _probe_arrays
from repro.serve.engine import (EngineOverloaded, InferenceEngine,
                                NonFiniteOutput)


def _ugv_payload(policy, rng):
    obs, _, _ = _probe_arrays(policy.schema, seed=int(rng.integers(1 << 30)))
    return (obs.stop_features[0], obs.ugv_positions[0], obs.ugv_stops[0],
            obs.action_mask[0])


def _uav_payload(policy, rng, n=2):
    _, grids, aux = _probe_arrays(policy.schema, seed=int(rng.integers(1 << 30)))
    return (grids[:n], aux[:n])


def _in_loop(scenario):
    """Run ``scenario()`` inside a running event loop, let the loop run
    the done-callbacks its batches scheduled, and return its result."""
    async def main():
        out = scenario()
        await asyncio.sleep(0)
        return out
    return asyncio.run(main())


def _staged(eng, requests):
    """Submit every ``(kind, payload, submit kwargs)`` in ``requests``,
    then run batches until the queue is empty; returns the futures."""
    def scenario():
        futures = [eng.submit(kind, payload, **kwargs)
                   for kind, payload, kwargs in requests]
        while eng.pending:
            eng.run_batch()
        return futures
    return _in_loop(scenario)


@pytest.fixture
def engine(frozen_policy):
    return InferenceEngine(frozen_policy, max_batch=8,
                           queue_limit=16, timeout_ms=2000)


def test_lone_request_runs_as_batch_of_one_without_hold(frozen_policy):
    """A lone request on an idle engine runs at once as a batch of one:
    ``run_batch`` never holds a batch open waiting for company."""
    eng = InferenceEngine(frozen_policy, max_batch=64, timeout_ms=5000)
    rng = np.random.default_rng(0)
    waits_ms = []

    def scenario():
        for _ in range(5):
            before = eng.stats["queue_wait_ms"]
            future = eng.submit("ugv", _ugv_payload(frozen_policy, rng), rng=rng)
            eng.run_batch()
            assert future.result().batch_size == 1
            waits_ms.append(eng.stats["queue_wait_ms"] - before)

    _in_loop(scenario)
    assert eng.stats["batches"] == 5
    # Nothing but the call itself separates submit from batch start.
    assert statistics.median(waits_ms) < 1.0, waits_ms


def test_coalesces_up_to_max_batch(frozen_policy):
    """Requests staged before a batch runs ride one batched forward."""
    eng = InferenceEngine(frozen_policy, max_batch=8,
                          queue_limit=32, timeout_ms=5000)
    rng = np.random.default_rng(1)

    def scenario():
        futures = [eng.submit("ugv", _ugv_payload(frozen_policy, rng), rng=rng)
                   for _ in range(5)]
        eng.run_batch()
        assert eng.pending == 0
        return futures

    sizes = {f.result().batch_size for f in _in_loop(scenario)}
    assert sizes == {5}
    assert eng.stats["batches"] == 1
    assert eng.stats["completed"] == 5


def test_mixed_kinds_share_one_assembly(frozen_policy):
    eng = InferenceEngine(frozen_policy, max_batch=8, timeout_ms=5000)
    rng = np.random.default_rng(2)
    f_ugv, f_uav = _staged(eng, [
        ("ugv", _ugv_payload(frozen_policy, rng), {"rng": rng}),
        ("uav", _uav_payload(frozen_policy, rng), {"rng": rng})])
    r_ugv = f_ugv.result()
    r_uav = f_uav.result()
    assert r_ugv.kind == "ugv" and r_uav.kind == "uav"
    # One assembly, two per-kind forwards of one request each.
    assert eng.stats["batches"] == 1
    assert r_ugv.batch_size == r_uav.batch_size == 1
    assert r_uav.moves is not None
    np.testing.assert_array_equal(
        r_uav.moves, r_uav.actions * frozen_policy.schema["uav_max_step"])


def test_completed_counts_a_request_before_its_future_resolves(frozen_policy):
    """A done-callback (which the loop runs once the batch is over)
    already sees its own request in ``stats["completed"]``, so a metrics
    read issued after a response can never miss it."""
    eng = InferenceEngine(frozen_policy, max_batch=8, timeout_ms=5000)
    rng = np.random.default_rng(10)
    seen = {"ugv": [], "uav": []}

    def scenario():
        for kind, payload in (("ugv", _ugv_payload(frozen_policy, rng)),
                              ("ugv", _ugv_payload(frozen_policy, rng)),
                              ("uav", _uav_payload(frozen_policy, rng))):
            future = eng.submit(kind, payload, rng=rng)
            future.add_done_callback(
                lambda _f, kind=kind: seen[kind].append(eng.stats["completed"]))
        eng.run_batch()
        # Resolving a loop future only schedules its callbacks.
        assert seen == {"ugv": [], "uav": []}

    _in_loop(scenario)
    # Both groups (2 UGV + 1 UAV) are counted before any callback runs.
    assert seen == {"ugv": [3, 3], "uav": [3]}


def test_expired_requests_time_out_without_a_forward(frozen_policy):
    eng = InferenceEngine(frozen_policy, max_batch=8, timeout_ms=5000)
    rng = np.random.default_rng(3)

    def scenario():
        future = eng.submit("ugv", _ugv_payload(frozen_policy, rng), rng=rng,
                            timeout_s=0.005)
        time.sleep(0.05)  # expire before any batch runs
        eng.run_batch()
        return future

    future = _in_loop(scenario)
    with pytest.raises(TimeoutError):
        future.result()
    assert eng.stats["timeouts"] == 1
    assert eng.stats["completed"] == 0


def test_cancelled_request_is_dropped_without_a_forward(frozen_policy):
    """A caller that gave up (its future cancelled, as ``wait_for`` does
    on timeout) costs no forward, and the rest of the batch is served."""
    eng = InferenceEngine(frozen_policy, max_batch=8, timeout_ms=5000)
    rng = np.random.default_rng(14)

    def scenario():
        gone, kept = (eng.submit("ugv", _ugv_payload(frozen_policy, rng),
                                 rng=rng) for _ in range(2))
        gone.cancel()
        eng.run_batch()
        return kept

    assert _in_loop(scenario).result().batch_size == 1
    assert eng.stats["batches"] == 1 and eng.stats["completed"] == 1


def test_sheds_when_queue_is_full(frozen_policy):
    eng = InferenceEngine(frozen_policy, max_batch=4, queue_limit=2,
                          timeout_ms=5000)
    rng = np.random.default_rng(4)
    payload = _ugv_payload(frozen_policy, rng)

    def scenario():
        eng.submit("ugv", payload, rng=rng)
        eng.submit("ugv", payload, rng=rng)
        with pytest.raises(EngineOverloaded):
            eng.submit("ugv", payload, rng=rng)
        eng.stop()

    _in_loop(scenario)
    assert eng.stats["shed"] == 1


def test_stop_drains_queued_requests(frozen_policy):
    """stop() is a drain: everything already queued still completes."""
    eng = InferenceEngine(frozen_policy, max_batch=4,
                          queue_limit=32, timeout_ms=5000)
    rng = np.random.default_rng(5)

    def scenario():
        futures = [eng.submit("ugv", _ugv_payload(frozen_policy, rng), rng=rng)
                   for _ in range(6)]
        eng.stop()
        return futures

    futures = _in_loop(scenario)
    assert all(f.result().actions.shape ==
               (frozen_policy.schema["num_ugvs"],) for f in futures)
    assert eng.stats["batches"] == 2
    with pytest.raises(RuntimeError, match="stopping"):
        _in_loop(lambda: eng.submit("ugv", _ugv_payload(frozen_policy, rng),
                                    rng=rng))


def test_session_rng_isolation(frozen_policy, engine):
    """A stream's actions depend on its own seed/order, not co-batching."""
    payload = _ugv_payload(frozen_policy, np.random.default_rng(6))

    def run(seed, noise_streams):
        rng = np.random.default_rng(seed)
        others = [np.random.default_rng(100 + k) for k in range(noise_streams)]
        results = []
        for _ in range(4):
            futures = _staged(engine, [("ugv", payload, {"rng": o})
                                       for o in [*others, rng]])
            results.append(futures[-1].result().actions)
        return np.stack(results)

    alone = run(7, noise_streams=0)
    crowded = run(7, noise_streams=3)
    np.testing.assert_array_equal(alone, crowded)


def test_greedy_matches_argmax(frozen_policy, engine):
    payload = _ugv_payload(frozen_policy, np.random.default_rng(8))
    (future,) = _staged(engine, [("ugv", payload, {"greedy": True})])
    result = future.result()
    # Greedy = per-agent argmax over the masked logits for this payload.
    from repro.env.observation import UGVObsArrays

    single = UGVObsArrays(payload[0][None], payload[1][None],
                          payload[2][None], payload[3][None])
    logits, _ = frozen_policy.ugv_forward(single)
    np.testing.assert_array_equal(result.actions, logits[0].argmax(axis=-1))


def _serve_staged(policy, kind, payloads):
    """Stage ``payloads`` as one batch (each with a seed-12 rng), run it
    with every warning turned into an error, and return the engine and
    the futures."""
    eng = InferenceEngine(policy, max_batch=8, timeout_ms=5000)
    with warnings.catch_warnings():
        # A RuntimeWarning in the batch would fail the whole group.
        warnings.simplefilter("error")
        futures = _staged(eng, [(kind, payload,
                                 {"rng": np.random.default_rng(12)})
                                for payload in payloads])
    return eng, futures


def _assert_bitwise(got, want):
    for field in ("actions", "log_probs", "values", "moves"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a is None and b is None) or a.tobytes() == b.tobytes(), field


def test_huge_observation_fails_only_its_own_request(frozen_policy):
    """A finite but huge observation overflows the UGV forward to NaN:
    that request fails with NonFiniteOutput, without a RuntimeWarning,
    and a normal request in the same batch gets bitwise the outputs it
    gets alone."""
    normal = _ugv_payload(frozen_policy, np.random.default_rng(11))
    huge = (normal[0] * 1e200,) + normal[1:]
    _, (alone,) = _serve_staged(frozen_policy, "ugv", [normal])
    eng, (bad, good) = _serve_staged(frozen_policy, "ugv", [huge, normal])
    with pytest.raises(NonFiniteOutput):
        bad.result()
    assert good.result().batch_size == 2
    _assert_bitwise(good.result(), alone.result())
    assert eng.stats["completed"] == 1


class _NaNOnHugeCrops:
    """Delegates to a frozen policy, but its UAV forward gives NaN means
    for crops with a value over 1e100."""

    def __init__(self, policy):
        self._policy = policy

    def __getattr__(self, name):
        return getattr(self._policy, name)

    def uav_forward(self, grids, aux):
        mean, log_std, values = self._policy.uav_forward(grids, aux)
        huge = np.abs(grids).max(axis=(1, 2, 3)) > 1e100
        return np.where(huge[:, None], np.nan, mean), log_std, values


def test_non_finite_uav_output_fails_only_its_own_request(frozen_policy):
    """The same for the UAV path.  Its forward's floats move with the
    number of rows in the batch (docs/serving.md), so the control batch
    has the same rows with a normal twin in place of the huge crops."""
    policy = _NaNOnHugeCrops(frozen_policy)
    normal = _uav_payload(frozen_policy, np.random.default_rng(13))
    huge = (normal[0] * 1e200, normal[1])
    _, (control, _) = _serve_staged(policy, "uav", [normal, normal])
    eng, (good, bad) = _serve_staged(policy, "uav", [normal, huge])
    with pytest.raises(NonFiniteOutput):
        bad.result()
    _assert_bitwise(good.result(), control.result())
    assert eng.stats["completed"] == 1


class _SteppedClock:
    """Stands in for the engine's ``time`` module: the clock moves only
    when the test (or a forward) advances it."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now


class _ClockedPolicy:
    """Delegates to a frozen policy; each forward advances the clock by
    ``forward_s`` and is counted per kind."""

    def __init__(self, policy, clock, forward_s):
        self._policy = policy
        self._clock = clock
        self._forward_s = forward_s
        self.calls = {"ugv": 0, "uav": 0}

    def __getattr__(self, name):
        return getattr(self._policy, name)

    def _advance(self, kind, out):
        self.calls[kind] += 1
        self._clock.now += self._forward_s
        return out

    def ugv_forward(self, obs):
        return self._advance("ugv", self._policy.ugv_forward(obs))

    def uav_forward(self, grids, aux):
        return self._advance("uav", self._policy.uav_forward(grids, aux))


def test_stage_accounting_on_a_staged_queue(frozen_policy, monkeypatch):
    """k staged requests record k queue waits (submit -> batch start) and
    one forward per kind in ``stats``."""
    clock = _SteppedClock()
    monkeypatch.setattr(engine_module, "time", clock)
    policy = _ClockedPolicy(frozen_policy, clock, forward_s=0.25)
    eng = InferenceEngine(policy, max_batch=8, timeout_ms=60_000)
    rng = np.random.default_rng(9)

    def scenario():
        futures = [eng.submit("ugv", _ugv_payload(frozen_policy, rng),
                              rng=rng) for _ in range(3)]
        clock.now = 1.0
        futures.append(eng.submit("uav", _uav_payload(frozen_policy, rng),
                                  rng=rng))
        clock.now = 5.0
        eng.run_batch()
        return futures

    results = [future.result() for future in _in_loop(scenario)]
    assert policy.calls == {"ugv": 1, "uav": 1}
    assert eng.stats["batches"] == 1
    assert eng.stats["queue_wait_ms"] == 3 * 5000.0 + 4000.0
    assert eng.stats["forward_ms"] == 2 * 250.0
    # Each result carries its own wait and its group's forward.
    assert [(r.queue_ms, r.forward_ms) for r in results] == [
        (5000.0, 250.0)] * 3 + [(4000.0, 250.0)]
