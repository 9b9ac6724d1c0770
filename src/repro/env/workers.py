"""Multi-process rollout workers: shard env replicas across CPU cores.

:class:`WorkerVecEnv` is a ``SubprocVecEnv``-style worker pool that
duck-types :class:`~repro.env.vector.VecAirGroundEnv`: K replicas are
partitioned contiguously over W OS processes, each worker stepping its
slice of :class:`~repro.env.airground.AirGroundEnv` replicas while the
parent process keeps every policy forward (centralised-policy layout —
the learner samples actions for all replicas in one batched forward,
workers only advance env dynamics and encode observations).

Design points:

* **Shared-memory observations.**  The ``UGVObsArrays`` / ``UAVObsArrays``
  struct-of-arrays layout is allocated once in ``multiprocessing``
  shared memory, double-buffered exactly like the in-process vec env
  (``(2, K, ...)`` with a parity bit), and workers write their replica
  rows in place — the hot path pickles only a few-byte command tuple
  per worker per step, never an observation.
* **Bitwise equivalence.**  Replica ``k`` seeds with
  :func:`~repro.env.vector.replica_seed` regardless of which worker owns
  it, and the learner's sampling rng never moves between processes, so
  ``workers=W`` reproduces the in-process ``VecAirGroundEnv`` stream
  sample-for-sample for *any* W (pinned by ``tests/env/test_workers.py``).
* **Async reset prefetch.**  At a collect-window boundary the pool
  snapshots per-replica rng states (what checkpoints store), then
  dispatches the next window's unseeded reset without waiting — workers
  reset and encode while the learner runs its PPO update.  Because the
  snapshot precedes the prefetched reset, a resumed run replays the
  same reset draws and stays byte-for-byte on the uninterrupted run's
  telemetry (see ``docs/parallelism.md``).
* **Fork/spawn safety.**  Workers bootstrap through
  :func:`reset_worker_process_state`, which clears every known piece of
  inheritable process state (tape tracer, profiler, campus cache); the
  same resets are registered as ``os.register_at_fork`` hooks in the
  owning modules, so even a raw ``fork`` cannot leak parent singletons
  into a worker.  ``repro lint``'s DT004 rule flags module-level
  mutable state that a function mutates without such a hook.
* **Fail loudly, never hang.**  Workers trap exceptions and ship the
  traceback to the learner; the learner waits on the pipe *and* the
  process sentinel, so a worker that dies without a message (OOM kill,
  segfault) raises :class:`WorkerError` instead of deadlocking.
"""

from __future__ import annotations

import ctypes
import multiprocessing as mp
import os
import signal
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait as _conn_wait

import numpy as np

from ..obs.scope import counter_add, histogram_observe, scope as obs_scope
from .airground import AirGroundEnv
from .metrics import MetricSnapshot
from .observation import ObservationBuilder, UAVObsArrays, UGVObsArrays
from .vector import VecStepResult, replica_seed

__all__ = ["WorkerVecEnv", "WorkerError", "reset_worker_process_state"]

# Worker liveness timeout for shutdown joins (seconds); workers are
# daemons, so a stuck worker cannot outlive the learner either way.
_JOIN_TIMEOUT = 5.0

_CTYPES = {"f8": ctypes.c_double, "i8": ctypes.c_int64, "b1": ctypes.c_bool}
_DTYPES = {"f8": np.float64, "i8": np.int64, "b1": np.bool_}


def reset_worker_process_state() -> None:
    """Clear every piece of parent state a rollout worker must not inherit.

    Idempotent and cheap: uninstalls any live tape trace and profiler,
    empties the campus/stop-graph cache.
    Called first thing in every worker (fork *and* spawn — under spawn
    the process is fresh and this is a no-op by construction; under fork
    it doubles the ``os.register_at_fork`` hooks those modules install,
    so the bootstrap stays correct even if a hook is ever missed).
    """
    from ..nn import tracer as _tracer
    from ..obs import scope as _scope

    _tracer._ACTIVE = None
    _scope._ACTIVE = None
    try:  # experiments layer may not be imported in minimal workers
        from ..experiments.runner import campus_cache_clear
    except ImportError:  # pragma: no cover - circular-import guard
        return
    campus_cache_clear()


class WorkerError(RuntimeError):
    """A rollout worker crashed; the message carries its traceback."""


# ----------------------------------------------------------------------
# Shared-memory layout
# ----------------------------------------------------------------------
def _buffer_specs(k: int, u: int, v: int, b: int, s: int) -> list[tuple[str, str, tuple[int, ...]]]:
    """(name, dtype-code, shape) for every shared array.

    Observation fields (and the actionable mask, which the rollout
    driver reads one step later) are double-buffered with a leading
    parity axis, mirroring ``VecAirGroundEnv``'s two-buffer scheme; step
    rewards/flags and the action inputs are single-buffered because both
    sides consume them within the same step round-trip.
    """
    return [
        ("ugv_stop_features", "f8", (2, k, u, b, 3)),
        ("ugv_positions", "f8", (2, k, u, 2)),
        ("ugv_stops", "i8", (2, k, u)),
        ("ugv_action_mask", "b1", (2, k, u, b + 1)),
        ("uav_grid", "f8", (2, k, v, 3, s, s)),
        ("uav_aux", "f8", (2, k, v, 5)),
        ("uav_airborne", "b1", (2, k, v)),
        ("ugv_actionable", "b1", (2, k, u)),
        ("ugv_rewards", "f8", (k, u)),
        ("uav_rewards", "f8", (k, v)),
        ("dones", "b1", (k,)),
        ("info_t", "i8", (k,)),
        ("info_collected", "f8", (k,)),
        ("act_ugv", "i8", (k, u)),
        ("act_uav", "f8", (k, v, 2)),
    ]


def _allocate_shared(specs) -> dict[str, object]:
    """RawArray per spec — unsynchronised by design: writers never overlap
    (workers own disjoint replica rows; parent writes actions only while
    workers idle between commands)."""
    return {name: mp.RawArray(_CTYPES[code], int(np.prod(shape)))
            for name, code, shape in specs}


def _shared_views(raws: dict, specs) -> dict[str, np.ndarray]:
    """Numpy views over the shared buffers (no copies, both processes)."""
    return {name: np.frombuffer(raws[name], dtype=_DTYPES[code]).reshape(shape)
            for name, code, shape in specs}


def _obs_wrappers(views: dict) -> list[tuple[UGVObsArrays, UAVObsArrays]]:
    """Per-parity ``(K, ...)`` obs-array wrappers over the shared views."""
    return [
        (UGVObsArrays(stop_features=views["ugv_stop_features"][p],
                      ugv_positions=views["ugv_positions"][p],
                      ugv_stops=views["ugv_stops"][p],
                      action_mask=views["ugv_action_mask"][p]),
         UAVObsArrays(grid=views["uav_grid"][p], aux=views["uav_aux"][p],
                      airborne=views["uav_airborne"][p]))
        for p in range(2)
    ]


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
@dataclass
class _WorkerSpec:
    """Everything a worker needs to rebuild its replica slice (pickled once)."""

    campus: object
    config: object
    stops: object
    base_seed: int
    data_weights: np.ndarray | None
    specs: list
    lo: int  # first owned replica (global index, inclusive)
    hi: int  # one past the last owned replica


def _worker_main(conn, spec: _WorkerSpec, raws: dict) -> None:
    """Worker entrypoint: build the replica slice, serve step commands.

    Runs in a child process (fork or spawn).  Every command is a small
    tuple; bulk data moves through the shared arrays only.  Exceptions
    are trapped and shipped to the learner as ``("error", traceback)``
    before the worker exits — the learner re-raises, nobody hangs.
    """
    reset_worker_process_state()
    # The learner owns interrupt handling: a Ctrl-C (SIGINT goes to the
    # whole process group) must not kill workers mid-checkpoint, and
    # SIGTERM keeps its default action so the learner's graceful-exit
    # path tears workers down itself.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)

    views = _shared_views(raws, spec.specs)
    buffers = _obs_wrappers(views)
    builder = ObservationBuilder(spec.campus, spec.stops, spec.config)
    envs = [AirGroundEnv(spec.campus, spec.config, stops=spec.stops,
                         seed=replica_seed(spec.base_seed, k),
                         data_weights=spec.data_weights, builder=builder)
            for k in range(spec.lo, spec.hi)]
    crash_armed = False

    while True:
        try:
            cmd = conn.recv()
        except (EOFError, OSError):  # learner went away
            return
        op = cmd[0]
        try:
            if op == "close":
                conn.send(("ok", 0.0, None))
                return
            t0 = time.perf_counter()
            extra = None
            if op == "step":
                _, parity, reset_on_done = cmd
                if crash_armed:
                    raise RuntimeError("injected worker crash (test hook)")
                extra = _worker_step(envs, spec, views, buffers[parity],
                                     parity, reset_on_done)
            elif op == "reset":
                _, seeds, parity = cmd
                ugv_out, uav_out = buffers[parity]
                for i, env in enumerate(envs):
                    env.reset_state(None if seeds is None else int(seeds[i]))
                    k = spec.lo + i
                    env.encode_observations(ugv_out, uav_out, k)
                    views["ugv_actionable"][parity][k] = env._actionable()
            elif op == "rng_states":
                extra = [env.rng_state() for env in envs]
            elif op == "set_rng_states":
                for env, state in zip(envs, cmd[1]):
                    env.set_rng_state(state)
            elif op == "set_rng_state_one":
                envs[cmd[1]].set_rng_state(cmd[2])
            elif op == "state_digests":
                extra = [env.state_digest() for env in envs]
            elif op == "metrics":
                extra = [env.metrics() for env in envs]
            elif op == "probe":
                extra = _probe_process_state()
            elif op == "arm_crash":
                crash_armed = True
            else:
                raise ValueError(f"unknown worker command {op!r}")
            conn.send(("ok", time.perf_counter() - t0, extra))
        except Exception:
            try:
                conn.send(("error", traceback.format_exc()))
            finally:
                return


def _worker_step(envs, spec, views, parity_buffers, parity, reset_on_done):
    """Step this worker's replicas; returns per-done final metrics."""
    ugv_out, uav_out = parity_buffers
    act_ugv = views["act_ugv"]
    act_uav = views["act_uav"]
    actionable = views["ugv_actionable"][parity]
    finals: list[tuple[int, MetricSnapshot]] = []
    for i, env in enumerate(envs):
        k = spec.lo + i
        ugv_r, uav_r, done, collected = env.step_dynamics(act_ugv[k], act_uav[k])
        views["ugv_rewards"][k] = ugv_r
        views["uav_rewards"][k] = uav_r
        views["dones"][k] = done
        views["info_t"][k] = env.t
        views["info_collected"][k] = collected
        if done:
            finals.append((k, env.metrics()))
            if reset_on_done:
                env.reset_state()  # unseeded: continue the rng stream
        env.encode_observations(ugv_out, uav_out, k)
        actionable[k] = env._actionable()
    return finals


def _probe_process_state() -> dict:
    """Snapshot of inheritable state, for the fork-safety regression test."""
    from ..nn import tracer as _tracer
    from ..obs import scope as _scope

    try:
        from ..experiments import runner as _runner
        campus_entries = len(_runner._CAMPUS_CACHE)
    except ImportError:  # pragma: no cover
        campus_entries = 0
    return {
        "pid": os.getpid(),
        "tracer_active": _tracer._ACTIVE is not None,
        "profiler_active": _scope._ACTIVE is not None,
        "campus_cache_entries": campus_entries,
    }


# ----------------------------------------------------------------------
# Learner-side pool
# ----------------------------------------------------------------------
class WorkerVecEnv:
    """K env replicas sharded over W worker processes (VecEnv duck type).

    Drop-in for :class:`~repro.env.vector.VecAirGroundEnv` on the
    vectorized collect path: same ``reset``/``step`` result structures,
    same rng-state surface, same seed striding — plus
    :meth:`prefetch_reset` for overlapping the next window's reset with
    the learner's update, and explicit :meth:`close` for shutdown.

    ``env`` becomes the template for replica 0 (its campus/stops/config
    and current rng stream carry over, exactly like
    ``VecAirGroundEnv.from_env``); the parent copy itself is never
    stepped.  ``start_method`` defaults to ``fork`` where available
    (cheapest, and made safe by the at-fork hooks +
    :func:`reset_worker_process_state`), falling back to ``spawn``.
    """

    def __init__(self, env: AirGroundEnv, num_envs: int, num_workers: int,
                 start_method: str | None = None):
        if num_envs < 1:
            raise ValueError("WorkerVecEnv needs at least one replica")
        if not 1 <= num_workers <= num_envs:
            raise ValueError(f"num_workers must be in [1, num_envs={num_envs}], "
                             f"got {num_workers}")
        self.config = env.config
        self.num_envs = num_envs
        self.num_workers = num_workers
        self.num_stops = env.num_stops
        self._template = env

        cfg = env.config
        specs = _buffer_specs(num_envs, cfg.num_ugvs, cfg.num_uavs,
                              env.num_stops, cfg.uav_obs_size)
        self._raws = _allocate_shared(specs)
        self._views = _shared_views(self._raws, specs)
        self._buffers = _obs_wrappers(self._views)
        self._parity = 0
        self._needs_reset = np.ones(num_envs, dtype=bool)
        self._pending_parity: int | None = None  # prefetched reset target
        self._pending_acked = False
        self._cached_rng_states: list[dict] | None = None
        self._closed = False

        if start_method is None:
            start_method = ("fork" if "fork" in mp.get_all_start_methods()
                            else "spawn")
        ctx = mp.get_context(start_method)
        base, rem = divmod(num_envs, num_workers)
        self._bounds: list[tuple[int, int]] = []
        self._conns = []
        self._procs = []
        lo = 0
        for w in range(num_workers):
            hi = lo + base + (1 if w < rem else 0)
            spec = _WorkerSpec(campus=env.campus, config=cfg, stops=env.stops,
                               base_seed=env._seed,
                               data_weights=env._data_weights,
                               specs=specs, lo=lo, hi=hi)
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(target=_worker_main,
                               args=(child_conn, spec, self._raws),
                               name=f"repro-rollout-worker-{w}", daemon=True)
            proc.start()
            child_conn.close()
            self._bounds.append((lo, hi))
            self._conns.append(parent_conn)
            self._procs.append(proc)
            lo = hi
        # Replica 0 adopts the template env's *current* stream position
        # (a fresh env makes this a no-op; an advanced one matches
        # VecAirGroundEnv.from_env, where env itself is replica 0).
        self._send(0, ("set_rng_state_one", 0, env.rng_state()))
        self._recv(0)

    # -- plumbing -------------------------------------------------------
    def _send(self, w: int, msg: tuple) -> None:
        try:
            self._conns[w].send(msg)
        except (BrokenPipeError, OSError):
            self._raise_worker_failure(w)

    def _recv(self, w: int):
        """One ack from worker ``w``; raises WorkerError on crash, never hangs."""
        conn, proc = self._conns[w], self._procs[w]
        while True:
            ready = _conn_wait([conn, proc.sentinel])
            if conn in ready:
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    self._raise_worker_failure(w)
                if msg[0] == "error":
                    self._terminate_all()
                    raise WorkerError(
                        f"rollout worker {w} crashed:\n{msg[1]}")
                return msg[1], msg[2]
            if proc.sentinel in ready and not conn.poll():
                self._raise_worker_failure(w)

    def _raise_worker_failure(self, w: int) -> None:
        """Dead pipe/process: surface any parting error, then raise."""
        conn, proc = self._conns[w], self._procs[w]
        detail = f"exit code {proc.exitcode}"
        try:
            if conn.poll():
                msg = conn.recv()
                if msg[0] == "error":
                    detail = msg[1]
        except (EOFError, OSError):
            pass
        self._terminate_all()
        raise WorkerError(f"rollout worker {w} died unexpectedly ({detail})")

    def _dispatch_all(self, msg: tuple) -> None:
        for w in range(self.num_workers):
            self._send(w, msg)

    def _await_all(self) -> list[tuple[float, object]]:
        return [self._recv(w) for w in range(self.num_workers)]

    def _drain_prefetch(self) -> None:
        """Collect the in-flight prefetched reset's acks (idempotent)."""
        if self._pending_parity is not None and not self._pending_acked:
            self._await_all()
            self._pending_acked = True

    # -- VecEnv surface -------------------------------------------------
    def reset(self, seeds: list[int] | np.ndarray | None = None) -> VecStepResult:
        """Reset every replica; consumes a prefetched reset when possible.

        An unseeded ``reset()`` after :meth:`prefetch_reset` returns the
        already-encoded observations without re-stepping anything; a
        seeded reset discards the prefetched draw and reseeds from
        scratch (reseeding overrides stream position, so determinism is
        unaffected).
        """
        if seeds is not None and len(seeds) != self.num_envs:
            raise ValueError(f"expected {self.num_envs} seeds, got {len(seeds)}")
        with obs_scope("env/reset"):
            if self._pending_parity is not None and seeds is None:
                self._drain_prefetch()
                parity = self._pending_parity
                self._pending_parity = None
            else:
                self._drain_prefetch()
                self._pending_parity = None
                parity = self._parity ^ 1
                seed_arr = None if seeds is None else np.asarray(seeds)
                for w, (lo, hi) in enumerate(self._bounds):
                    part = None if seed_arr is None else [int(s) for s in seed_arr[lo:hi]]
                    self._send(w, ("reset", part, parity))
                self._await_all()
        self._parity = parity
        self._needs_reset[:] = False
        self._cached_rng_states = None
        cfg = self.config
        ugv_obs, uav_obs = self._buffers[parity]
        return VecStepResult(
            ugv_obs=ugv_obs, uav_obs=uav_obs,
            ugv_rewards=np.zeros((self.num_envs, cfg.num_ugvs)),
            uav_rewards=np.zeros((self.num_envs, cfg.num_uavs)),
            ugv_actionable=self._views["ugv_actionable"][parity],
            dones=np.zeros(self.num_envs, dtype=bool),
            infos=[{} for _ in range(self.num_envs)])

    def step(self, ugv_actions: np.ndarray, uav_actions: np.ndarray,
             reset_on_done: bool = True) -> VecStepResult:
        """Step all replicas across the pool (``VecAirGroundEnv.step`` twin)."""
        if self._needs_reset.any():
            raise RuntimeError("replicas finished without auto-reset; call reset()")
        cfg = self.config
        ugv_actions = np.asarray(ugv_actions, dtype=int)
        uav_actions = np.asarray(uav_actions, dtype=float)
        if ugv_actions.shape != (self.num_envs, cfg.num_ugvs):
            raise ValueError(f"expected UGV actions of shape "
                             f"{(self.num_envs, cfg.num_ugvs)}, got {ugv_actions.shape}")
        if uav_actions.shape != (self.num_envs, cfg.num_uavs, 2):
            raise ValueError(f"expected UAV actions of shape "
                             f"{(self.num_envs, cfg.num_uavs, 2)}, got {uav_actions.shape}")

        parity = self._parity ^ 1
        with obs_scope("workers/dispatch"):
            self._views["act_ugv"][:] = ugv_actions
            self._views["act_uav"][:] = uav_actions
            self._dispatch_all(("step", parity, bool(reset_on_done)))
        t0 = time.perf_counter()
        with obs_scope("workers/wait"):
            acks = self._await_all()
        wait_seconds = time.perf_counter() - t0
        self._parity = parity

        step_seconds = 0.0
        finals: dict[int, MetricSnapshot] = {}
        for secs, worker_finals in acks:
            step_seconds = max(step_seconds, secs)
            histogram_observe("workers/step_seconds", secs)
            for k, snap in worker_finals:
                finals[int(k)] = snap
        # Learner-side wait minus the slowest worker's own step time —
        # the IPC + scheduling overhead the pool pays per step.
        histogram_observe("workers/ipc_seconds", max(0.0, wait_seconds - step_seconds))

        dones = self._views["dones"].copy()
        if not reset_on_done:
            self._needs_reset |= dones
        counter_add("env/steps", self.num_envs)
        if dones.any():
            counter_add("env/episodes", int(dones.sum()))

        info_t = self._views["info_t"]
        info_collected = self._views["info_collected"]
        infos: list[dict] = []
        for k in range(self.num_envs):
            info = {"t": int(info_t[k]), "collected_this_step": float(info_collected[k])}
            if k in finals:
                info["final_metrics"] = finals[k]
            infos.append(info)

        ugv_obs, uav_obs = self._buffers[parity]
        return VecStepResult(ugv_obs=ugv_obs, uav_obs=uav_obs,
                             ugv_rewards=self._views["ugv_rewards"].copy(),
                             uav_rewards=self._views["uav_rewards"].copy(),
                             ugv_actionable=self._views["ugv_actionable"][parity],
                             dones=dones, infos=infos)

    # -- async reset prefetch ------------------------------------------
    def prefetch_reset(self) -> None:
        """Snapshot rng states, then start the next unseeded reset async.

        Called by the trainer right after a collect window: the rng
        snapshot taken *before* the reset dispatch is what
        :meth:`rng_states` (and therefore checkpoints) will report until
        the reset is consumed, so a run killed during the overlapped
        update resumes by replaying the identical reset draws.  The
        template env's stream syncs to replica 0's snapshot, keeping
        ``trainer.state_dict()['env_rng']`` equal to the in-process
        path's.  No-op if a prefetch is already in flight.
        """
        if self._pending_parity is not None:
            return
        states = self._query_rng_states()
        self._cached_rng_states = states
        self._template.set_rng_state(states[0])
        parity = self._parity ^ 1
        self._dispatch_all(("reset", None, parity))
        self._pending_parity = parity
        self._pending_acked = False

    # -- rng / state surface -------------------------------------------
    def _query_rng_states(self) -> list[dict]:
        self._dispatch_all(("rng_states",))
        states: list[dict] = []
        for _, worker_states in self._await_all():
            states.extend(worker_states)
        return states

    def rng_states(self) -> list[dict]:
        """Per-replica rng snapshots (replica 0 first).

        While a prefetched reset is in flight this returns the snapshot
        captured *before* that reset was dispatched — the position a
        resumed run must restart from (the resume replays the reset).
        """
        if self._cached_rng_states is not None:
            return self._cached_rng_states
        return self._query_rng_states()

    def set_rng_states(self, states: list[dict]) -> None:
        """Restore snapshots captured by :meth:`rng_states`."""
        if len(states) != self.num_envs:
            raise ValueError(f"expected {self.num_envs} rng states, "
                             f"got {len(states)}")
        self._drain_prefetch()
        self._pending_parity = None
        self._cached_rng_states = None
        for w, (lo, hi) in enumerate(self._bounds):
            self._send(w, ("set_rng_states", states[lo:hi]))
        self._await_all()
        self._template.set_rng_state(states[0])

    def state_digests(self) -> list[str]:
        """Per-replica state digests, in replica order.

        Reflects current simulation state: with a reset prefetch in
        flight, that is the post-reset state (the prefetch already ran).
        """
        self._drain_prefetch()
        self._dispatch_all(("state_digests",))
        digests: list[str] = []
        for _, worker_digests in self._await_all():
            digests.extend(worker_digests)
        return digests

    def metrics_per_env(self) -> list[MetricSnapshot]:
        """Each replica's current metrics, in replica order."""
        self._drain_prefetch()
        self._dispatch_all(("metrics",))
        snaps: list[MetricSnapshot] = []
        for _, worker_snaps in self._await_all():
            snaps.extend(worker_snaps)
        return snaps

    def metrics(self) -> MetricSnapshot:
        """Batched reduction: mean of every replica's current metrics."""
        return MetricSnapshot.mean(self.metrics_per_env())

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down (idempotent; workers are daemons regardless)."""
        if self._closed:
            return
        self._closed = True
        for w, proc in enumerate(self._procs):
            if not proc.is_alive():
                continue
            try:
                self._drain_prefetch_quiet(w)
                self._conns[w].send(("close",))
            except (BrokenPipeError, OSError, WorkerError):
                pass
        for proc in self._procs:
            proc.join(timeout=_JOIN_TIMEOUT)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def _drain_prefetch_quiet(self, w: int) -> None:
        """Best-effort drain of worker ``w``'s outstanding ack before close."""
        if self._pending_parity is None or self._pending_acked:
            return
        conn = self._conns[w]
        if conn.poll(_JOIN_TIMEOUT):
            try:
                conn.recv()
            except (EOFError, OSError):
                pass

    def _terminate_all(self) -> None:
        """Hard-stop every worker (crash path; pipes may be broken)."""
        self._closed = True
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=_JOIN_TIMEOUT)

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- test hooks -----------------------------------------------------
    def _debug_probe(self, worker: int = 0) -> dict:
        """Worker-side process-state snapshot (fork-safety regression test)."""
        self._send(worker, ("probe",))
        _, state = self._recv(worker)
        return state

    def _inject_crash(self, worker: int = 0) -> None:
        """Arm a crash on ``worker``'s next step (error-propagation test)."""
        self._send(worker, ("arm_crash",))
        self._recv(worker)
