"""Tests for the AirGroundEnv step mechanics (Section III)."""

import numpy as np
import pytest

from repro.env import AirGroundEnv, EnvConfig


def stay_actions(env):
    return [g.stop for g in env.ugvs]


def none_uav_actions(env):
    return [None] * env.config.num_uavs


class TestReset:
    def test_initial_placement_at_centre(self, toy_env):
        toy_env.reset()
        centre_stop = toy_env.stops.nearest_stop(toy_env.campus.center)
        for g in toy_env.ugvs:
            assert g.stop == centre_stop
        for v in toy_env.uavs:
            assert not v.airborne
            assert v.energy == toy_env.config.uav_energy

    def test_sensor_data_in_range(self, toy_env):
        toy_env.reset()
        cfg = toy_env.config
        for s in toy_env.sensors:
            assert cfg.sensor_data_min <= s.initial_data <= cfg.sensor_data_max
            assert s.remaining == s.initial_data

    def test_reseed_reproducible(self, toy_env):
        toy_env.reset(seed=123)
        data1 = [s.initial_data for s in toy_env.sensors]
        toy_env.reset(seed=123)
        data2 = [s.initial_data for s in toy_env.sensors]
        np.testing.assert_allclose(data1, data2)

    def test_data_weights_applied(self, toy_campus, toy_stops):
        weights = np.full(toy_campus.num_sensors, 3.0)
        env = AirGroundEnv(toy_campus, EnvConfig(num_ugvs=1, num_uavs_per_ugv=1,
                                                 episode_len=5),
                           stops=toy_stops, seed=0, data_weights=weights)
        env.reset()
        cfg = env.config
        for s in env.sensors:
            assert s.initial_data >= 3.0 * cfg.sensor_data_min

    def test_data_weights_validated(self, toy_campus, toy_stops):
        with pytest.raises(ValueError):
            AirGroundEnv(toy_campus, EnvConfig(), stops=toy_stops,
                         data_weights=np.ones(3))
        with pytest.raises(ValueError):
            AirGroundEnv(toy_campus, EnvConfig(), stops=toy_stops,
                         data_weights=np.zeros(toy_campus.num_sensors))


class TestUGVMovement:
    def test_move_to_reachable_stop(self, toy_env):
        toy_env.reset()
        ugv = toy_env.ugvs[0]
        target = next(s for s in toy_env.stops.neighbors(ugv.stop))
        actions = stay_actions(toy_env)
        actions[0] = target
        toy_env.step(actions, none_uav_actions(toy_env))
        assert toy_env.ugvs[0].stop == target
        np.testing.assert_allclose(toy_env.ugvs[0].position,
                                   toy_env.stops.positions[target])

    def test_unreachable_target_means_stay(self, toy_campus, toy_stops):
        cfg = EnvConfig(num_ugvs=1, num_uavs_per_ugv=1, episode_len=5,
                        ugv_max_step=50.0)  # less than one 75 m hop
        env = AirGroundEnv(toy_campus, cfg, stops=toy_stops, seed=0)
        env.reset()
        start = env.ugvs[0].stop
        far = (start + toy_stops.num_stops // 2) % toy_stops.num_stops
        env.step([far], [None])
        assert env.ugvs[0].stop == start

    def test_invalid_stop_index_raises(self, toy_env):
        toy_env.reset()
        with pytest.raises(ValueError):
            toy_env.step([9999, 0], none_uav_actions(toy_env))

    def test_action_count_validated(self, toy_env):
        toy_env.reset()
        with pytest.raises(ValueError):
            toy_env.step([0], none_uav_actions(toy_env))
        with pytest.raises(ValueError):
            toy_env.step(stay_actions(toy_env), [None])


class TestReleaseProtocol:
    def test_release_launches_uavs(self, toy_env):
        toy_env.reset()
        actions = stay_actions(toy_env)
        actions[0] = toy_env.release_action
        res = toy_env.step(actions, none_uav_actions(toy_env))
        assert toy_env.ugvs[0].is_waiting
        for v in toy_env.uavs_of(0):
            assert v.airborne
            assert res.uav_observations[v.index] is not None
        for v in toy_env.uavs_of(1):
            assert not v.airborne

    def test_waiting_ugv_ignores_actions(self, toy_env):
        toy_env.reset()
        actions = stay_actions(toy_env)
        actions[0] = toy_env.release_action
        toy_env.step(actions, none_uav_actions(toy_env))
        stop_before = toy_env.ugvs[0].stop
        # Try to move while waiting: must be ignored.
        neighbour = toy_env.stops.neighbors(stop_before)[0]
        actions = stay_actions(toy_env)
        actions[0] = neighbour
        res = toy_env.step(actions, none_uav_actions(toy_env))
        assert toy_env.ugvs[0].stop == stop_before
        assert not res.ugv_actionable[0] or not toy_env.ugvs[0].is_waiting

    def test_uavs_dock_after_window(self, toy_env):
        toy_env.reset()
        t_rls = toy_env.config.release_duration
        actions = stay_actions(toy_env)
        actions[0] = toy_env.release_action
        toy_env.step(actions, none_uav_actions(toy_env))
        for _ in range(t_rls - 1):
            assert toy_env.ugvs[0].is_waiting
            toy_env.step(stay_actions(toy_env), none_uav_actions(toy_env))
        assert not toy_env.ugvs[0].is_waiting
        for v in toy_env.uavs_of(0):
            assert not v.airborne
            assert v.energy == toy_env.config.uav_energy  # recharged
            np.testing.assert_allclose(v.position, toy_env.ugvs[0].position)

    def test_release_counted(self, toy_env):
        toy_env.reset()
        actions = stay_actions(toy_env)
        actions[0] = toy_env.release_action
        toy_env.step(actions, none_uav_actions(toy_env))
        assert all(v.releases == 1 for v in toy_env.uavs_of(0))
        assert all(v.releases == 0 for v in toy_env.uavs_of(1))


class TestUAVFlight:
    def _release_all(self, env):
        env.reset()
        env.step([env.release_action] * env.config.num_ugvs,
                 none_uav_actions(env))

    def test_movement_clipped_to_max_step(self, toy_env):
        self._release_all(toy_env)
        start = toy_env.uavs[0].position.copy()
        actions = none_uav_actions(toy_env)
        actions[0] = np.array([1e6, 0.0])
        toy_env.step(stay_actions(toy_env), actions)
        moved = np.linalg.norm(toy_env.uavs[0].position - start)
        assert moved <= toy_env.config.uav_max_step + 1e-6

    def test_crash_into_building_blocks_and_penalises(self, toy_env):
        self._release_all(toy_env)
        uav = toy_env.uavs[0]
        # Approach building A from the north (out of every sensor's range)
        # and aim straight at it.
        uav.position = np.array([125.0, 190.0])
        actions = none_uav_actions(toy_env)
        actions[0] = np.array([0.0, -50.0])
        res = toy_env.step(stay_actions(toy_env), actions)
        np.testing.assert_allclose(toy_env.uavs[0].position, [125.0, 190.0])
        assert toy_env.uavs[0].crashes == 1
        assert res.uav_rewards[0] <= -toy_env.config.crash_penalty + 1e-9

    def test_workzone_bounds_enforced(self, toy_env):
        self._release_all(toy_env)
        uav = toy_env.uavs[0]
        uav.position = np.array([10.0, 10.0])
        actions = none_uav_actions(toy_env)
        actions[0] = np.array([-100.0, -100.0])
        toy_env.step(stay_actions(toy_env), actions)
        assert (toy_env.uavs[0].position >= 0).all()

    def test_energy_consumed_by_flight(self, toy_env):
        self._release_all(toy_env)
        e0 = toy_env.uavs[0].energy
        actions = none_uav_actions(toy_env)
        actions[0] = np.array([0.0, 50.0])
        toy_env.step(stay_actions(toy_env), actions)
        spent = e0 - toy_env.uavs[0].energy
        assert spent == pytest.approx(50.0 * toy_env.config.energy_per_metre, rel=1e-6)

    def test_exhausted_uav_docks_early(self, toy_campus, toy_stops):
        cfg = EnvConfig(num_ugvs=1, num_uavs_per_ugv=1, episode_len=10,
                        uav_energy=0.3, release_duration=8)  # 30 m of range
        env = AirGroundEnv(toy_campus, cfg, stops=toy_stops, seed=0)
        env.reset()
        env.step([env.release_action], [None])
        env.step([0], [np.array([100.0, 0.0])])  # drains the battery
        assert not env.uavs[0].airborne  # docked early
        assert env.uavs[0].energy == cfg.uav_energy  # recharged


class TestCollectionAndRewards:
    def test_data_collected_near_sensor(self, toy_env):
        toy_env.reset()
        toy_env.step([toy_env.release_action] * 2, none_uav_actions(toy_env))
        uav = toy_env.uavs[0]
        sensor = toy_env.sensors[0]
        uav.position = sensor.position + np.array([10.0, 0.0])
        before = sensor.remaining
        res = toy_env.step(stay_actions(toy_env), none_uav_actions(toy_env))
        assert sensor.remaining < before
        assert res.info["collected_this_step"] > 0

    def test_collection_capped_at_rate(self, toy_env):
        toy_env.reset()
        toy_env.step([toy_env.release_action] * 2, none_uav_actions(toy_env))
        uav = toy_env.uavs[0]
        sensor = toy_env.sensors[0]
        uav.position = sensor.position.copy()
        # Move the other UAVs far away so only one collects.
        for other in toy_env.uavs[1:]:
            if other.airborne:
                other.position = np.array([390.0, 10.0])
        before = sensor.remaining
        toy_env.step(stay_actions(toy_env), none_uav_actions(toy_env))
        drained = before - sensor.remaining
        assert drained <= toy_env.config.collect_rate + 1e-9

    def test_ugv_reward_equals_its_uavs_collection(self, toy_env):
        toy_env.reset()
        toy_env.step([toy_env.release_action, toy_env.ugvs[1].stop],
                     none_uav_actions(toy_env))
        for v in toy_env.uavs_of(0):
            v.position = toy_env.sensors[0].position.copy()
        before = sum(s.remaining for s in toy_env.sensors)
        res = toy_env.step(stay_actions(toy_env), none_uav_actions(toy_env))
        collected = before - sum(s.remaining for s in toy_env.sensors)
        assert res.ugv_rewards[0] == pytest.approx(collected)
        assert res.ugv_rewards[1] == 0.0  # Eqn. (12): no release, no reward

    def test_effective_release_needs_collection(self, toy_env):
        toy_env.reset()
        t_rls = toy_env.config.release_duration
        toy_env.step([toy_env.release_action] * 2, none_uav_actions(toy_env))
        for _ in range(t_rls - 1):
            toy_env.step(stay_actions(toy_env), none_uav_actions(toy_env))
        # UAVs hovered at the centre far from sensors: nothing collected.
        assert all(v.effective_releases == 0 for v in toy_env.uavs)
        assert toy_env.metrics().zeta == 0.0


class TestUAVRewardEqn13:
    """Eqn. (13) on a hand-built 2-UAV state, against literal numbers:
    r = clip(ξ_t · collected / (e · flown + ε), 0, reward_clip), minus
    crash_penalty on a crash, and 0 for a docked UAV."""

    @pytest.fixture()
    def env(self, toy_campus, toy_stops):
        env = AirGroundEnv(toy_campus,
                           EnvConfig(num_ugvs=1, num_uavs_per_ugv=2, episode_len=12),
                           stops=toy_stops, seed=0)
        env.reset()
        # Two of four sensors half drained: collected ratios (.5, .5, 0, 0),
        # so ξ_t = 1² / (4 · 0.5 + ε) = 1 / 2.000001 = 0.499999750000125.
        env._initial_data[:] = [10.0, 10.0, 10.0, 10.0]
        env._sensor_remaining[:] = [5.0, 5.0, 10.0, 10.0]
        cfg = env.config
        assert (cfg.energy_per_metre, cfg.epsilon) == (0.01, 1e-6)
        assert (cfg.reward_clip, cfg.crash_penalty) == (5.0, 1.0)
        return env

    def test_collection_per_energy(self, env):
        for uav in env.uavs:
            uav.launch(uav.position)
        rewards = env._uav_rewards(np.array([2.0, 0.5]), np.array([100.0, 250.0]),
                                   np.array([False, False]))
        # 0.499999750000125 · 2.0 / (0.01 · 100 + 1e-6) and
        # 0.499999750000125 · 0.5 / (0.01 · 250 + 1e-6).
        np.testing.assert_allclose(rewards, [0.99999850000175, 0.09999991000006100],
                                   rtol=1e-12)

    def test_clip_crash_and_docked(self, env):
        env.uavs[0].launch(env.uavs[0].position)
        # UAV 0 hovers (flown 0) over 3 GB: 0.4999... · 3 / 1e-6 clips to
        # 5.0, and its crash costs 1.0.  Docked UAV 1 earns nothing, even
        # with collection and a crash flag passed in.
        rewards = env._uav_rewards(np.array([3.0, 4.0]), np.array([0.0, 50.0]),
                                   np.array([True, True]))
        np.testing.assert_array_equal(rewards, [4.0, 0.0])

    def test_crash_without_collection(self, env):
        for uav in env.uavs:
            uav.launch(uav.position)
        rewards = env._uav_rewards(np.array([0.0, 0.0]), np.array([0.0, 30.0]),
                                   np.array([True, False]))
        np.testing.assert_array_equal(rewards, [-1.0, 0.0])


class TestInvariantsAndLifecycle:
    def test_data_conservation_random_episode(self, toy_env):
        rng = np.random.default_rng(0)
        res = toy_env.reset()
        initial_total = sum(s.initial_data for s in toy_env.sensors)
        collected_total = 0.0
        while not res.done:
            actions = []
            for obs in res.ugv_observations:
                actions.append(rng.choice(np.nonzero(obs.action_mask)[0]))
            uav_actions = [None if o is None else rng.normal(size=2) * 60
                           for o in res.uav_observations]
            res = toy_env.step(actions, uav_actions)
            collected_total += res.info["collected_this_step"]
        remaining_total = sum(s.remaining for s in toy_env.sensors)
        assert collected_total + remaining_total == pytest.approx(initial_total)

    def test_step_after_done_raises(self, toy_env):
        res = toy_env.reset()
        while not res.done:
            res = toy_env.step(stay_actions(toy_env), none_uav_actions(toy_env))
        with pytest.raises(RuntimeError):
            toy_env.step(stay_actions(toy_env), none_uav_actions(toy_env))

    def test_metrics_bounded(self, toy_env):
        rng = np.random.default_rng(1)
        res = toy_env.reset()
        while not res.done:
            actions = [rng.choice(np.nonzero(o.action_mask)[0])
                       for o in res.ugv_observations]
            uav_actions = [None if o is None else rng.normal(size=2) * 80
                           for o in res.uav_observations]
            res = toy_env.step(actions, uav_actions)
            snap = toy_env.metrics()
            assert 0.0 <= snap.psi <= 1.0
            assert 0.0 <= snap.xi <= 1.0 + 1e-9
            assert 0.0 <= snap.zeta <= 1.0
            assert snap.beta >= 0.0

    def test_same_seed_same_trajectory(self, toy_campus, toy_stops):
        cfg = EnvConfig(num_ugvs=2, num_uavs_per_ugv=1, episode_len=8)

        def run(seed):
            env = AirGroundEnv(toy_campus, cfg, stops=toy_stops, seed=seed)
            rng = np.random.default_rng(0)
            res = env.reset()
            rewards = []
            while not res.done:
                actions = [rng.choice(np.nonzero(o.action_mask)[0])
                           for o in res.ugv_observations]
                uav_actions = [None if o is None else rng.normal(size=2) * 50
                               for o in res.uav_observations]
                res = env.step(actions, uav_actions)
                rewards.append(res.ugv_rewards.sum())
            return np.array(rewards)

        np.testing.assert_allclose(run(9), run(9))
