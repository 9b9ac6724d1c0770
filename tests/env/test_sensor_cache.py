"""Cache-coherence regression tests for the env's preallocated sensor arrays.

``AirGroundEnv`` keeps ``_sensor_positions`` and ``_sensor_remaining``
caches so per-step consumers (collection scan, fairness, rasters) never
rebuild arrays from the Python ``Sensor`` objects.
The caches must stay *bit-identical* to a rebuild at every step — the
fix shipped with a byte-identical train.jsonl guarantee, and these
tests pin the invariant that makes that possible: the cache is synced
by assigning the very float the object holds, never by arithmetic.
"""

import numpy as np

from repro.env import AirGroundEnv, EnvConfig


def rebuilt_remaining(env) -> np.ndarray:
    return np.array([s.remaining for s in env.sensors])


# Two flight legs from the launch point (200, 200) that skirt building A
# and end at (140, 60) — 38 m from the south-wall sensor at (125, 95),
# inside the 60 m sensing range, without ever crossing a building.
FLIGHT_LEGS = [np.array([0.0, -100.0]), np.array([-60.0, -40.0])]


def scripted_uav_actions(env, leg: int):
    delta = FLIGHT_LEGS[leg] if leg < len(FLIGHT_LEGS) else np.zeros(2)
    return [delta if uav.airborne else None for uav in env.uavs]


class TestSensorCaches:
    def test_positions_cache_matches_entities(self, toy_env):
        toy_env.reset()
        expected = np.array([s.position for s in toy_env.sensors], dtype=float)
        assert np.array_equal(toy_env._sensor_positions, expected)

    def test_remaining_cache_after_reset(self, toy_env):
        toy_env.reset(seed=11)
        assert np.array_equal(toy_env._sensor_remaining,
                              rebuilt_remaining(toy_env))
        # Fresh episode: nothing drained yet.
        assert np.array_equal(toy_env._sensor_remaining,
                              toy_env._initial_data)

    def test_remaining_cache_bit_identical_through_episode(self, toy_env):
        toy_env.reset(seed=3)
        # Release the UAV swarm, then chase sensors until data drains.
        toy_env.step([toy_env.release_action] * toy_env.config.num_ugvs,
                     [None] * toy_env.config.num_uavs)
        assert np.array_equal(toy_env._sensor_remaining,
                              rebuilt_remaining(toy_env))
        for leg in range(4):
            if toy_env.t >= toy_env.config.episode_len:
                break
            toy_env.step([g.stop for g in toy_env.ugvs],
                         scripted_uav_actions(toy_env, leg))
            assert np.array_equal(toy_env._sensor_remaining,
                                  rebuilt_remaining(toy_env))
        # The sync path must actually have run: some sensor drained.
        assert not np.array_equal(toy_env._sensor_remaining,
                                  toy_env._initial_data)

    def test_reset_restores_cache_after_drain(self, toy_env):
        toy_env.reset(seed=3)
        toy_env.step([toy_env.release_action] * toy_env.config.num_ugvs,
                     [None] * toy_env.config.num_uavs)
        for leg in range(4):
            toy_env.step([g.stop for g in toy_env.ugvs],
                         scripted_uav_actions(toy_env, leg))
        toy_env.reset(seed=3)
        assert np.array_equal(toy_env._sensor_remaining,
                              rebuilt_remaining(toy_env))
        assert np.array_equal(toy_env._sensor_remaining,
                              toy_env._initial_data)
