"""Train-and-evaluate driver producing :class:`ResultRecord` rows."""

from __future__ import annotations

import inspect
import os
import time
import zlib
from pathlib import Path

import numpy as np

from ..baselines.registry import make_agent
from ..core.config import GARLConfig
from ..env.airground import AirGroundEnv
from ..env.vector import replica_seed
from ..maps.campus import CampusMap, build_campus
from ..maps.stop_graph import StopGraph, build_stop_graph
from ..obs.scope import active_profiler, scope as obs_scope
from .checkpoint import (
    GracefulInterrupt,
    TrainingCheckpointer,
    config_fingerprint,
    find_latest,
    load_training_checkpoint,
)
from .presets import ScalePreset, get_preset
from .records import ResultRecord
from .telemetry import TrainingLogger

__all__ = ["run_method", "run_training", "build_agent", "build_env",
           "campus_cache_clear", "get_campus", "method_seed", "replica_seed"]

# Campus construction is deterministic but not free; cache per (name, scale).
_CAMPUS_CACHE: dict[tuple[str, float], tuple[CampusMap, StopGraph]] = {}

if hasattr(os, "register_at_fork"):  # not available on all platforms
    # Rollout workers (repro.env.workers) receive their campus/stop graph
    # through the worker spec; a forked child must not alias the parent's
    # cached objects, so the cache is emptied on the child side of every
    # fork (spawned children start empty by construction).
    os.register_at_fork(after_in_child=_CAMPUS_CACHE.clear)


def get_campus(name: str, scale: float) -> tuple[CampusMap, StopGraph]:
    """Cached campus + stop graph (both are treated as immutable)."""
    key = (name, scale)
    if key not in _CAMPUS_CACHE:
        campus = build_campus(name, scale=scale)
        # Deliberate process-local cache of immutable values; the
        # at-fork clear above makes every worker rebuild it per process.
        _CAMPUS_CACHE[key] = (campus, build_stop_graph(campus))  # reprolint: disable=DT004
    return _CAMPUS_CACHE[key]


def campus_cache_clear() -> None:
    """Drop all cached campus/stop-graph pairs (test isolation hook)."""
    _CAMPUS_CACHE.clear()  # reprolint: disable=DT004


def method_seed(method: str, seed: int) -> int:
    """Derive a per-method seed so undertrained (near-uniform) policies do
    not share identical sampling streams and collapse to one trajectory.

    Vectorized collection derives env-replica seeds from this value via
    :func:`repro.env.replica_seed` — the per-method offsets live in
    ``[0, 1000)`` while replicas stride by a large prime, so no two
    (method, replica) pairs collide."""
    return seed + (zlib.crc32(method.encode()) % 1000)


def build_env(campus_name: str, preset: ScalePreset, num_ugvs: int,
              num_uavs_per_ugv: int, seed: int = 0) -> AirGroundEnv:
    """Construct an env for a (campus, preset, coalition, seed) choice."""
    campus, stops = get_campus(campus_name, preset.campus_scale)
    env_cfg = preset.env_config(num_ugvs, num_uavs_per_ugv)
    return AirGroundEnv(campus, env_cfg, stops=stops, seed=seed)


def build_agent(method: str, campus_name: str,
                preset: str | ScalePreset = "smoke", num_ugvs: int = 4,
                num_uavs_per_ugv: int = 2, seed: int = 0,
                garl_config: GARLConfig | None = None):
    """Construct the fully seeded agent exactly as training runs do.

    The single construction path shared by :func:`run_method`,
    :func:`run_training` and the determinism bisector's two-run setup —
    env seeding and the per-method config seed derivation live here so
    every consumer builds bit-identical agents from the same inputs.
    """
    preset_obj = get_preset(preset) if isinstance(preset, str) else preset
    env = build_env(campus_name, preset_obj, num_ugvs, num_uavs_per_ugv, seed)
    config = (garl_config
              or preset_obj.garl_config()).replace(seed=method_seed(method, seed))
    return make_agent(method, env, config)


def run_method(method: str, campus_name: str, preset: str | ScalePreset = "smoke",
               num_ugvs: int = 4, num_uavs_per_ugv: int = 2, seed: int = 0,
               garl_config: GARLConfig | None = None,
               train_iterations: int | None = None,
               num_envs: int = 1, num_workers: int = 1) -> ResultRecord:
    """Train ``method`` on ``campus_name`` at ``preset`` scale and evaluate.

    Evaluation samples stochastically (greedy=False): at smoke training
    budgets the stochastic policy is the better-behaved estimator, and it
    is how the paper's own evaluation episodes are rolled.

    Training runs the batched pipeline at every ``num_envs``, the
    default 1 included; ``num_envs > 1`` collects training episodes from
    that many env replicas at once (replica k reseeds with
    ``replica_seed(method_seed, k)``); ``num_workers > 1`` shards those
    replicas over rollout worker processes (results are bitwise
    worker-count invariant).  Agents with stateful policies (IC3Net)
    train on the per-sample path.
    """
    preset_obj = get_preset(preset) if isinstance(preset, str) else preset
    _check_workers(num_workers, num_envs)
    with obs_scope("setup"):
        agent = build_agent(method, campus_name, preset_obj, num_ugvs,
                            num_uavs_per_ugv, seed, garl_config)

    iterations = (train_iterations if train_iterations is not None
                  else preset_obj.train_iterations)
    sig = inspect.signature(agent.train).parameters
    train_kwargs = {}
    if num_envs > 1 and "num_envs" in sig:
        train_kwargs["num_envs"] = num_envs
    if num_workers > 1 and "num_workers" in sig:
        train_kwargs["num_workers"] = num_workers
    t_train = time.perf_counter()
    try:
        with obs_scope("train"):
            agent.train(iterations, preset_obj.episodes_per_iteration,
                        **train_kwargs)
        train_seconds = time.perf_counter() - t_train

        t_eval = time.perf_counter()
        snapshot = agent.evaluate(episodes=preset_obj.eval_episodes, greedy=False)
        eval_seconds = time.perf_counter() - t_eval
    finally:
        _close_agent(agent)

    return ResultRecord(
        method=method, campus=campus_name,
        num_ugvs=num_ugvs, num_uavs_per_ugv=num_uavs_per_ugv,
        metrics=snapshot.as_dict(), seed=seed, preset=preset_obj.name,
        extra={"train_seconds": round(train_seconds, 3),
               "eval_seconds": round(eval_seconds, 3)})


def _check_workers(num_workers: int, num_envs: int) -> None:
    """Fail fast on an unsatisfiable worker/replica combination."""
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    if num_workers > max(1, num_envs):
        raise ValueError(f"num_workers={num_workers} needs at least as many "
                         f"env replicas, got num_envs={num_envs}")


def _close_agent(agent) -> None:
    """Release an agent's rollout workers, if it holds any."""
    close = getattr(agent, "close", None)
    if close is not None:
        close()


def run_training(method: str, campus_name: str,
                 preset: str | ScalePreset = "smoke",
                 num_ugvs: int = 4, num_uavs_per_ugv: int = 2, seed: int = 0,
                 garl_config: GARLConfig | None = None,
                 train_iterations: int | None = None, num_envs: int = 1,
                 num_workers: int = 1,
                 checkpoint_dir: str | Path | None = None,
                 save_every: int = 10, keep_last: int = 3,
                 resume: str | Path | None = None,
                 handle_signals: bool = True) -> tuple[ResultRecord, object]:
    """Fault-tolerant variant of :func:`run_method`.

    Identical seeding and training flow — without checkpoint options it
    produces exactly :func:`run_method`'s result — plus:

    * ``checkpoint_dir``: write full-training-state checkpoints (every
      ``save_every`` iterations, last-``keep_last`` + best-by-λ
      retention) and per-iteration telemetry to ``train.jsonl`` in that
      directory.
    * ``resume``: ``"latest"`` (resolve via the run directory's pointer)
      or a path to a specific checkpoint; the manifest's config
      fingerprint must match this invocation's configuration.  The
      telemetry log is rewound to the checkpoint's cursor, so the
      resumed file ends up bit-for-bit identical to an uninterrupted
      run's.
    * graceful SIGINT/SIGTERM: the in-flight iteration finishes, a
      resume-ready checkpoint is saved, and
      :class:`~repro.experiments.checkpoint.TrainingInterrupted`
      propagates (the CLI turns it into exit code
      :data:`~repro.experiments.checkpoint.RESUME_EXIT_CODE`).

    Training takes :func:`run_method`'s pipeline: batched at every
    ``num_envs`` (1 included) unless the policy is stateful.
    ``num_workers > 1`` shards the ``num_envs`` replicas over that many
    rollout worker processes.  The worker count is deliberately *not*
    part of the config fingerprint: collection is bitwise identical for
    every worker count, so a ``--workers 1`` checkpoint may resume with
    ``--workers 4`` (and vice versa) without breaking the byte-for-byte
    resume guarantee.

    Returns ``(record, agent)`` so callers can persist or further
    inspect the trained agent without retraining.
    """
    preset_obj = get_preset(preset) if isinstance(preset, str) else preset
    _check_workers(num_workers, num_envs)
    # Resolve the per-method seeded config here too: the checkpoint
    # fingerprint below must hash exactly what the agent was built with.
    config = (garl_config
              or preset_obj.garl_config()).replace(seed=method_seed(method, seed))
    with obs_scope("setup"):
        agent = build_agent(method, campus_name, preset_obj, num_ugvs,
                            num_uavs_per_ugv, seed, config)

    total = (train_iterations if train_iterations is not None
             else preset_obj.train_iterations)
    fingerprint = config_fingerprint(
        {"method": method, "campus": campus_name, "preset": preset_obj.name,
         "num_ugvs": num_ugvs, "num_uavs_per_ugv": num_uavs_per_ugv,
         "seed": seed, "num_envs": num_envs, "total_iterations": total},
        config)

    checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
    telemetry = (TrainingLogger(checkpoint_dir / "train.jsonl")
                 if checkpoint_dir is not None else None)

    iterations_done = 0
    if resume is not None:
        if checkpoint_dir is None:
            raise ValueError("--resume requires a checkpoint directory")
        path = (find_latest(checkpoint_dir) if str(resume) == "latest"
                else Path(resume))
        manifest = load_training_checkpoint(path, agent,
                                            expect_fingerprint=fingerprint)
        iterations_done = int(manifest["iterations_completed"])
        telemetry.rewind(int(manifest["telemetry_cursor"]))
        # Restore the observability metrics registry, if one is live and
        # the checkpoint carried a snapshot (see TrainingCheckpointer's
        # extra_state hook): counters continue from the interrupted run.
        prof = active_profiler()
        metrics_state = (manifest.get("extra_state") or {}).get("metrics")
        if prof is not None and metrics_state:
            prof.metrics.load_state_dict(metrics_state)

    sig = inspect.signature(agent.train).parameters
    train_kwargs = {}
    if num_envs > 1 and "num_envs" in sig:
        train_kwargs["num_envs"] = num_envs
    if num_workers > 1 and "num_workers" in sig:
        train_kwargs["num_workers"] = num_workers
    if "total_iterations" in sig:
        train_kwargs["total_iterations"] = total

    interrupt = GracefulInterrupt() if (handle_signals and checkpoint_dir
                                        is not None) else None

    def _obs_extra_state() -> dict:
        prof = active_profiler()
        if prof is None:
            return {}
        return {"metrics": prof.metrics.state_dict()}

    checkpointer = None
    if checkpoint_dir is not None:
        checkpointer = TrainingCheckpointer(
            checkpoint_dir, agent, total_iterations=total,
            save_every=save_every, keep_last=keep_last,
            config_fingerprint=fingerprint,
            manifest_extra={"method": method, "campus": campus_name,
                            "preset": preset_obj.name, "seed": seed,
                            "num_ugvs": num_ugvs,
                            "num_uavs_per_ugv": num_uavs_per_ugv,
                            "num_envs": num_envs, "num_workers": num_workers},
            telemetry=telemetry, interrupt=interrupt,
            extra_state=_obs_extra_state)

    def callback(record) -> None:
        if telemetry is not None:
            telemetry(record)
        if checkpointer is not None:
            checkpointer(record)  # may raise TrainingInterrupted

    from contextlib import nullcontext

    t_train = time.perf_counter()
    try:
        with (interrupt if interrupt is not None else nullcontext()), \
                obs_scope("train"):
            agent.train(total - iterations_done,
                        preset_obj.episodes_per_iteration,
                        callback=callback if "callback" in sig else None,
                        **train_kwargs)
        train_seconds = time.perf_counter() - t_train

        t_eval = time.perf_counter()
        snapshot = agent.evaluate(episodes=preset_obj.eval_episodes, greedy=False)
        eval_seconds = time.perf_counter() - t_eval
    finally:
        # Tear rollout workers down on every exit (including the
        # interrupt path): the replica rng streams migrate into an
        # in-process vec env, so the returned agent stays usable.
        _close_agent(agent)

    record = ResultRecord(
        method=method, campus=campus_name,
        num_ugvs=num_ugvs, num_uavs_per_ugv=num_uavs_per_ugv,
        metrics=snapshot.as_dict(), seed=seed, preset=preset_obj.name,
        extra={"train_seconds": round(train_seconds, 3),
               "eval_seconds": round(eval_seconds, 3),
               "resumed_from_iteration": iterations_done})
    return record, agent
