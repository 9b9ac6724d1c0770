"""Training workloads: ``agent.train(1, ...)`` per timed iteration.

``train_smoke_seq`` runs ``repro train``'s defaults (``num_envs=1``,
``workers=1``, compile off) on the per-sample sequential pipeline;
``train_small_vec4`` runs the ``small`` preset with ``num_envs=4`` on the
vectorized pipeline.  Both: GARL on KAIST, 4 UGVs x 2 UAVs each.  Timed
mode reports host-normalized seconds (``common.HostClock``); the wall
times are in the details.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import time

from . import layers
from .common import (WORK, HostClock, emit, host_facts, median,
                     tail_percentile, with_units)
from .spans import Tracer, max_rss_mb

#: workload -> (preset, num_envs)
WORKLOADS = {"train_smoke_seq": ("smoke", 1), "train_small_vec4": ("small", 4)}
SETUP_REPEATS = 5  # before the first iteration; one more follows each timed one
MIN_TIMED = 3  # timed iterations per run, however long they take; peak RSS is read after them
DIGEST_RECORDS = 3  # the untimed iteration and the next two, in either mode


def record_problem(record) -> str | None:
    """Why a ``TrainRecord`` is unacceptable, or ``None``."""
    values = {"efficiency": record.metrics.get("efficiency", math.nan),
              "ugv_reward": record.ugv_reward, "uav_reward": record.uav_reward,
              **record.losses}
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    return f"non-finite {', '.join(sorted(bad))}" if bad else None


def records_digest(records) -> str:
    """sha256 over the exact floats of the given records."""
    blob = json.dumps([[r.iteration, r.metrics, r.ugv_reward, r.uav_reward,
                        r.losses] for r in records], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class _Loop:
    """One agent trained an iteration at a time, failures counted."""

    def __init__(self, agent, episodes: int, num_envs: int):
        self.agent = agent
        self.episodes = episodes
        self.num_envs = num_envs
        self.records = []
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_mb: float | None = None
        self.wall_times: list[float] = []

    def _train(self):
        return self.agent.train(1, self.episodes, num_envs=self.num_envs)

    def iterate(self, clock: HostClock | None = None) -> float | None:
        """One ``train(1)``; its seconds, host-normalized when a ``clock``
        is given, or ``None`` if it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if clock is None:
                history = self._train()
                elapsed = time.perf_counter() - t0
            else:
                history, wall, elapsed = clock.measure(self._train)
                self.wall_times.append(wall)
        except Exception as exc:  # noqa: BLE001 — counted, reported
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None
        problem = record_problem(history[-1])
        if problem is not None:
            self.failures.append(f"iteration {history[-1].iteration}: {problem}")
            return None
        self.records.append(history[-1])
        return elapsed

    def timed(self, budget_s: float, minimum: int, between=None,
              clock: HostClock | None = None) -> list[float]:
        """Iterate until ``budget_s`` has passed and ``minimum`` ran.

        The high-water mark is read right after the ``minimum``-th
        iteration, so it does not depend on how many fit in the budget.
        ``between()`` runs after each iteration, outside its time.
        """
        times: list[float] = []
        gc.collect()
        start = time.perf_counter()
        while time.perf_counter() - start < budget_s or len(times) < minimum:
            elapsed = self.iterate(clock)
            if elapsed is None:
                break
            times.append(elapsed)
            if len(times) == minimum:
                self.peak_rss_mb = max_rss_mb()
            if between is not None:
                between()
        return times


def _build(preset: str, seed: int,
           clock: HostClock | None = None) -> tuple[object, float, float]:
    """One ``build_agent`` from a cold campus cache: the agent, its wall
    time and its time host-normalized by ``clock`` (wall without one)."""
    from repro.experiments.runner import build_agent, campus_cache_clear

    campus_cache_clear()
    gc.collect()
    build = lambda: build_agent("garl", "kaist", preset, seed=seed)  # noqa: E731
    if clock is not None:
        return clock.measure(build)
    t0 = time.perf_counter()
    agent = build()
    wall = time.perf_counter() - t0
    return agent, wall, wall


def run(workload: str, seed: int, seconds: float, trace: bool) -> None:
    from repro.experiments.presets import get_preset

    preset, num_envs = WORKLOADS[workload]
    episodes = get_preset(preset).episodes_per_iteration
    tracer = Tracer() if trace else None
    patches = layers.install(tracer) if trace else None
    clock = None if trace else HostClock()
    if trace:
        tracer.phase = "setup"
    setup_times, setup_wall = [], []

    def setup():
        agent, wall, elapsed = _build(preset, seed, clock)
        setup_wall.append(wall)
        setup_times.append(elapsed)
        return agent

    for _ in range(SETUP_REPEATS):
        agent = None
        agent = setup()
    loop = _Loop(agent, episodes, num_envs)

    if trace:
        tracer.phase = "warmup"
    loop.iterate(clock)  # untimed: lazy set-up and first-touch allocations
    details = {"workload": workload, "preset": preset, "num_envs": num_envs,
               "setup_s_samples": setup_times, "setup_wall_s_samples": setup_wall,
               "host": host_facts(seed)}

    if not trace:
        # One more set-up sample after every timed iteration, so the
        # samples cover the whole run rather than its first second.
        times = loop.timed(seconds, MIN_TIMED, between=setup, clock=clock)
        ms = [t * 1e3 for t in times]
        q, tail, n = tail_percentile(ms) if ms else (0.0, 0.0, 0)
        iter_s = median(times) if times else 0.0
        # An operation is one iteration: latency is its time, and the rate
        # is that of the median iteration (a mean over the few iterations
        # of train_small_vec4 would follow its one slowest).
        rate = 1.0 / iter_s if iter_s else 0.0
        metrics = with_units({
            "setup_s": median(setup_times), "iter_s": iter_s,
            "peak_rss_mb": loop.peak_rss_mb or max_rss_mb(),
            "latency_p50_ms": iter_s * 1e3,
            "latency_p99_ms": tail, "throughput_rps": rate})
        details.update(iter_s_samples=times, iter_wall_s_samples=loop.wall_times[1:],
                       host_speed_samples=clock.speeds, tail_percentile=q, samples=n)
    else:
        patches.restore()
        untraced = loop.timed(seconds / 2, 1)
        patches = layers.install(tracer)
        tracer.phase = "measure"
        traced = loop.timed(seconds / 2, 1)
        patches.restore()
        values = layers.train_layer_metrics(tracer.spans, len(traced))
        coverage = layers.iteration_coverage(tracer.spans)
        values["trace.iter_coverage"] = coverage
        if untraced and traced:
            values["trace.overhead_pct"] = 100.0 * (median(traced) / median(untraced) - 1)
        metrics = layers.report(values)
        WORK.mkdir(exist_ok=True)
        spans_path = WORK / f"trace-{workload}-seed{seed}.json"
        tracer.dump(spans_path)
        details.update(untraced_iter_s=untraced, traced_iter_s=traced,
                       spans=spans_path.name)
        if coverage < 0.95:
            loop.failures.append(f"iteration spans cover only {coverage:.3f}")

    digest = (records_digest(loop.records[:DIGEST_RECORDS])
              if len(loop.records) >= DIGEST_RECORDS else None)
    details.update(records_digest=digest, failures=loop.failures[:5])
    failed = loop.attempted - len(loop.records)
    correct = failed == 0 and digest is not None and not loop.failures
    emit(correct, loop.attempted, failed, metrics, details)
