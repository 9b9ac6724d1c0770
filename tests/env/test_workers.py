"""Multi-process rollout worker pool: equivalence, resume, fork safety.

The worker pool's whole contract is "parallelism changes nothing":
``WorkerVecEnv`` must reproduce the in-process ``VecAirGroundEnv``
stream bitwise for any worker count, resume byte-for-byte through a
mid-run kill, never inherit parent process state across the fork
boundary, and fail loudly (never hang) when a worker dies.
"""

import os
import signal

import numpy as np
import pytest

import repro.experiments.runner as runner_module
from repro.env import (
    AirGroundEnv,
    EnvConfig,
    VecAirGroundEnv,
    WorkerError,
    WorkerVecEnv,
    replica_seed,
)
from repro.experiments import TrainingInterrupted, get_preset, run_training
from repro.experiments.telemetry import TrainingLogger

CFG = EnvConfig(num_ugvs=2, num_uavs_per_ugv=2, episode_len=12)


def _fresh_env(toy_campus, toy_stops, seed=7):
    return AirGroundEnv(toy_campus, CFG, stops=toy_stops, seed=seed)


def _random_actions(rng, num_envs, num_stops):
    ugv = rng.integers(0, num_stops + 1, size=(num_envs, CFG.num_ugvs))
    uav = rng.uniform(-1.0, 1.0, size=(num_envs, CFG.num_uavs, 2))
    return ugv, uav


def _assert_obs_equal(a, b):
    np.testing.assert_array_equal(a.ugv_obs.stop_features, b.ugv_obs.stop_features)
    np.testing.assert_array_equal(a.ugv_obs.ugv_positions, b.ugv_obs.ugv_positions)
    np.testing.assert_array_equal(a.ugv_obs.ugv_stops, b.ugv_obs.ugv_stops)
    np.testing.assert_array_equal(a.ugv_obs.action_mask, b.ugv_obs.action_mask)
    np.testing.assert_array_equal(a.uav_obs.airborne, b.uav_obs.airborne)
    # Docked UAVs' grid/aux rows are stale by contract (consumers mask
    # on ``airborne``) — only airborne rows carry meaningful content.
    live = a.uav_obs.airborne
    np.testing.assert_array_equal(a.uav_obs.grid[live], b.uav_obs.grid[live])
    np.testing.assert_array_equal(a.uav_obs.aux[live], b.uav_obs.aux[live])
    np.testing.assert_array_equal(a.ugv_actionable, b.ugv_actionable)


def _assert_step_equal(a, b):
    _assert_obs_equal(a, b)
    np.testing.assert_array_equal(a.ugv_rewards, b.ugv_rewards)
    np.testing.assert_array_equal(a.uav_rewards, b.uav_rewards)
    np.testing.assert_array_equal(a.dones, b.dones)
    assert a.infos == b.infos


class TestBitwiseEquivalence:
    """workers=W ≡ in-process VecAirGroundEnv, for any W."""

    @pytest.mark.parametrize("num_workers", [1, 2, 3])
    def test_golden_stream_matches_in_process(self, toy_campus, toy_stops,
                                              num_workers):
        num_envs = 4
        pool = WorkerVecEnv(_fresh_env(toy_campus, toy_stops),
                            num_envs, num_workers)
        ref = VecAirGroundEnv.from_env(_fresh_env(toy_campus, toy_stops),
                                       num_envs)
        try:
            _assert_obs_equal(pool.reset(), ref.reset())
            rng = np.random.default_rng(42)
            # 2+ episode boundaries: exercises auto-reset stream handoff.
            for _ in range(2 * CFG.episode_len + 3):
                ugv, uav = _random_actions(rng, num_envs, pool.num_stops)
                _assert_step_equal(pool.step(ugv, uav), ref.step(ugv, uav))
            assert pool.state_digests() == ref.state_digests()
            assert pool.rng_states() == ref.rng_states()
        finally:
            pool.close()

    def test_seeded_reset_matches_in_process(self, toy_campus, toy_stops):
        pool = WorkerVecEnv(_fresh_env(toy_campus, toy_stops), 3, 2)
        ref = VecAirGroundEnv.from_env(_fresh_env(toy_campus, toy_stops), 3)
        try:
            seeds = [11, 12, 13]
            _assert_obs_equal(pool.reset(seeds), ref.reset(seeds))
            assert pool.state_digests() == ref.state_digests()
        finally:
            pool.close()

    def test_spawn_start_method(self, toy_campus, toy_stops):
        """The spawn path (fresh interpreter per worker) stays bitwise too."""
        pool = WorkerVecEnv(_fresh_env(toy_campus, toy_stops), 2, 2,
                            start_method="spawn")
        ref = VecAirGroundEnv.from_env(_fresh_env(toy_campus, toy_stops), 2)
        try:
            _assert_obs_equal(pool.reset(), ref.reset())
            rng = np.random.default_rng(5)
            for _ in range(3):
                ugv, uav = _random_actions(rng, 2, pool.num_stops)
                _assert_step_equal(pool.step(ugv, uav), ref.step(ugv, uav))
            assert pool.state_digests() == ref.state_digests()
        finally:
            pool.close()


class TestSeedStriding:
    def test_replica_streams_independent_of_partition(self, toy_campus,
                                                      toy_stops):
        """Replica k's rng depends only on k, never on which worker owns it."""
        states = {}
        for w in (1, 2, 3):
            pool = WorkerVecEnv(_fresh_env(toy_campus, toy_stops), 3, w)
            try:
                states[w] = pool.rng_states()
            finally:
                pool.close()
        assert states[1] == states[2] == states[3]
        expected = [AirGroundEnv(toy_campus, CFG, stops=toy_stops,
                                 seed=replica_seed(7, k)).rng_state()
                    for k in range(3)]
        assert states[1] == expected

    def test_contiguous_balanced_partition(self, toy_campus, toy_stops):
        pool = WorkerVecEnv(_fresh_env(toy_campus, toy_stops), 5, 3)
        try:
            assert pool._bounds == [(0, 2), (2, 4), (4, 5)]
        finally:
            pool.close()

    def test_worker_count_validation(self, toy_campus, toy_stops):
        env = _fresh_env(toy_campus, toy_stops)
        with pytest.raises(ValueError, match="num_workers"):
            WorkerVecEnv(env, 2, 3)
        with pytest.raises(ValueError, match="num_workers"):
            WorkerVecEnv(env, 2, 0)


class TestPrefetchResetSemantics:
    def test_rng_snapshot_precedes_prefetched_reset(self, toy_campus,
                                                    toy_stops):
        """A checkpoint taken during the overlapped update replays the
        prefetched reset: restoring the pre-reset snapshot and resetting
        unseeded lands in exactly the prefetched state."""
        pool = WorkerVecEnv(_fresh_env(toy_campus, toy_stops), 4, 2)
        try:
            pool.reset()
            rng = np.random.default_rng(9)
            for _ in range(4):
                ugv, uav = _random_actions(rng, 4, pool.num_stops)
                pool.step(ugv, uav)
            pre = pool.rng_states()
            pool.prefetch_reset()
            # While the prefetch is in flight, checkpoints must see the
            # pre-reset snapshot (the resume replays the reset draws).
            assert pool.rng_states() == pre
            res_prefetched = pool.reset()
            digests = pool.state_digests()

            # "Resume": push the snapshot back, reset unseeded.
            pool.set_rng_states(pre)
            res_resumed = pool.reset()
            _assert_obs_equal(res_prefetched, res_resumed)
            assert pool.state_digests() == digests
        finally:
            pool.close()

    def test_seeded_reset_overrides_prefetch(self, toy_campus, toy_stops):
        pool = WorkerVecEnv(_fresh_env(toy_campus, toy_stops), 2, 2)
        ref = VecAirGroundEnv.from_env(_fresh_env(toy_campus, toy_stops), 2)
        try:
            pool.reset()
            ref.reset()
            pool.prefetch_reset()
            seeds = [21, 22]
            _assert_obs_equal(pool.reset(seeds), ref.reset(seeds))
            assert pool.state_digests() == ref.state_digests()
        finally:
            pool.close()


class TestForkSafety:
    def test_worker_starts_with_zero_inherited_state(self, toy_campus,
                                                     toy_stops):
        """A worker's first breath sees no parent tape/profiler/cache
        state, even when every one of those is live at fork time."""
        from repro.nn.tracer import trace
        from repro.obs.scope import Profiler

        runner_module._CAMPUS_CACHE["poison"] = object()
        try:
            with Profiler(), trace():
                pool = WorkerVecEnv(_fresh_env(toy_campus, toy_stops), 2, 2)
            try:
                for w in range(pool.num_workers):
                    probe = pool._debug_probe(worker=w)
                    assert probe["pid"] != os.getpid()
                    assert probe["tracer_active"] is False
                    assert probe["profiler_active"] is False
                    assert probe["campus_cache_entries"] == 0
            finally:
                pool.close()
            # The parent's state survives untouched.
            assert "poison" in runner_module._CAMPUS_CACHE
        finally:
            runner_module._CAMPUS_CACHE.pop("poison", None)


class TestCrashPropagation:
    def test_worker_exception_raises_with_traceback(self, toy_campus,
                                                    toy_stops):
        pool = WorkerVecEnv(_fresh_env(toy_campus, toy_stops), 4, 2)
        pool.reset()
        pool._inject_crash(worker=0)
        ugv, uav = _random_actions(np.random.default_rng(0), 4,
                                   pool.num_stops)
        with pytest.raises(WorkerError) as excinfo:
            pool.step(ugv, uav)
        # The learner-side error carries the worker's own traceback.
        assert "injected worker crash" in str(excinfo.value)
        assert "Traceback" in str(excinfo.value)
        pool.close()  # idempotent after the crash teardown

    def test_killed_worker_raises_instead_of_hanging(self, toy_campus,
                                                     toy_stops):
        pool = WorkerVecEnv(_fresh_env(toy_campus, toy_stops), 2, 2)
        pool.reset()
        os.kill(pool._procs[1].pid, signal.SIGKILL)
        pool._procs[1].join(timeout=5.0)
        ugv, uav = _random_actions(np.random.default_rng(0), 2,
                                   pool.num_stops)
        with pytest.raises(WorkerError, match="died unexpectedly"):
            pool.step(ugv, uav)
        pool.close()

    def test_close_is_idempotent(self, toy_campus, toy_stops):
        pool = WorkerVecEnv(_fresh_env(toy_campus, toy_stops), 2, 2)
        pool.reset()
        pool.close()
        pool.close()
        assert all(not p.is_alive() for p in pool._procs)


# ----------------------------------------------------------------------
# End-to-end: run_training with --workers, kill-at-every-iteration resume
# ----------------------------------------------------------------------
SMOKE = get_preset("smoke")
ITERATIONS = SMOKE.train_iterations
RUN_KWARGS = dict(num_ugvs=2, num_uavs_per_ugv=1, seed=0)
NUM_ENVS = 4


class _KillAfter(TrainingLogger):
    """TrainingLogger that SIGTERMs the process after record ``kill_at``."""

    kill_at: int | None = None

    def __call__(self, record) -> None:
        super().__call__(record)
        if self.kill_at is not None and self.count == self.kill_at:
            os.kill(os.getpid(), signal.SIGTERM)


def _run(tmp_path, name, *, num_workers, resume=None, kill_at=None,
         monkeypatch=None):
    if kill_at is not None:
        assert monkeypatch is not None
        logger = type("KillLogger", (_KillAfter,), {"kill_at": kill_at})
        monkeypatch.setattr(runner_module, "TrainingLogger", logger)
    try:
        return run_training("garl", "kaist", SMOKE, num_envs=NUM_ENVS,
                            num_workers=num_workers,
                            checkpoint_dir=tmp_path / name, save_every=1,
                            resume=resume, **RUN_KWARGS)
    finally:
        if kill_at is not None:
            monkeypatch.setattr(runner_module, "TrainingLogger", TrainingLogger)


def _telemetry_bytes(tmp_path, name) -> bytes:
    return (tmp_path / name / "train.jsonl").read_bytes()


@pytest.fixture(scope="module")
def workers_control(tmp_path_factory):
    """Uninterrupted workers=1 and workers=2 smoke runs (the references)."""
    tmp = tmp_path_factory.mktemp("workers_control")
    out = {}
    for num_workers in (1, 2):
        record, _ = _run(tmp, f"w{num_workers}", num_workers=num_workers)
        out[num_workers] = (record, _telemetry_bytes(tmp, f"w{num_workers}"))
    return out


def test_worker_count_does_not_change_telemetry(workers_control):
    """workers=2 training is byte-identical to workers=1 (≡ in-process)."""
    record1, bytes1 = workers_control[1]
    record2, bytes2 = workers_control[2]
    assert bytes2 == bytes1
    assert record2.metrics == record1.metrics


@pytest.mark.parametrize("kill_at", range(1, ITERATIONS))
def test_workers2_kill_at_every_iteration_resumes_bit_for_bit(
        tmp_path, monkeypatch, workers_control, kill_at):
    """SIGTERM a workers=2 run at iteration ``kill_at``; the resumed run's
    telemetry must be byte-identical to the uninterrupted control's."""
    name = f"killed_w2_{kill_at}"

    with pytest.raises(TrainingInterrupted) as excinfo:
        _run(tmp_path, name, num_workers=2, kill_at=kill_at,
             monkeypatch=monkeypatch)
    interrupted = excinfo.value
    assert interrupted.iterations_completed == kill_at
    assert interrupted.checkpoint_path.exists()
    partial = _telemetry_bytes(tmp_path, name)
    control_record, control_bytes = workers_control[2]
    assert control_bytes.startswith(partial)
    assert partial != control_bytes

    record, _ = _run(tmp_path, name, num_workers=2, resume="latest")
    assert _telemetry_bytes(tmp_path, name) == control_bytes
    assert record.metrics == control_record.metrics
    assert record.extra["resumed_from_iteration"] == kill_at


def test_workers1_checkpoint_resumes_under_workers2(tmp_path, monkeypatch,
                                                    workers_control):
    """num_workers is not part of the config fingerprint: a run killed at
    workers=1 may resume with workers=2 and still match the control."""
    name = "cross_worker_resume"
    with pytest.raises(TrainingInterrupted):
        _run(tmp_path, name, num_workers=1, kill_at=1, monkeypatch=monkeypatch)
    record, _ = _run(tmp_path, name, num_workers=2, resume="latest")
    control_record, control_bytes = workers_control[1]
    assert _telemetry_bytes(tmp_path, name) == control_bytes
    assert record.metrics == control_record.metrics
