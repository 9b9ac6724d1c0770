"""Tests for the IPPO trainer and episode runner."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GARLConfig, IPPOTrainer, PPOConfig, UAVPolicy, UGVPolicy, run_episode
from repro.core.buffer import UAVRollout, UGVRollout
from repro.core.ippo import _ugv_minibatches


@pytest.fixture()
def setup(toy_env):
    config = GARLConfig(hidden_dim=8, mc_gcn_layers=1, ecomm_layers=1,
                        ppo=PPOConfig(epochs=1, minibatch_size=16))
    rng = np.random.default_rng(0)
    ugv = UGVPolicy(toy_env.stops, config, rng=rng)
    uav = UAVPolicy(toy_env.config.uav_obs_size, config, rng=rng)
    trainer = IPPOTrainer(toy_env, ugv, uav, config.ppo, seed=0)
    return toy_env, trainer


class TestRunEpisode:
    def test_fills_rollouts(self, setup):
        env, trainer = setup
        ugv_roll = UGVRollout(env.config.num_ugvs)
        uav_roll = UAVRollout(env.config.num_uavs)
        metrics = run_episode(env, trainer.ugv_policy, trainer.uav_policy,
                              np.random.default_rng(1),
                              ugv_rollout=ugv_roll, uav_rollout=uav_roll)
        assert len(ugv_roll) == env.config.episode_len
        assert 0.0 <= metrics.psi <= 1.0

    def test_trace_records_positions(self, setup):
        env, trainer = setup
        trace = []
        run_episode(env, trainer.ugv_policy, trainer.uav_policy,
                    np.random.default_rng(2), trace=trace)
        assert len(trace) == env.config.episode_len
        assert trace[0]["ugv_positions"].shape == (env.config.num_ugvs, 2)
        assert trace[0]["uav_airborne"].shape == (env.config.num_uavs,)

    def test_greedy_is_deterministic(self, setup):
        env, trainer = setup

        def run(seed):
            env.reset(seed)
            trace = []
            run_episode(env, trainer.ugv_policy, trainer.uav_policy,
                        np.random.default_rng(0), greedy=True, trace=trace)
            return np.concatenate([t["ugv_positions"].ravel() for t in trace])

        np.testing.assert_allclose(run(5), run(5))


class TestCollect:
    def test_sample_counts(self, setup):
        env, trainer = setup
        ugv_samples, uav_samples, metrics, ugv_r, uav_r = trainer.collect(episodes=1)
        # Every actionable (t, u) pair becomes one UGV sample.
        assert 0 < len(ugv_samples) <= env.config.episode_len * env.config.num_ugvs
        assert np.isfinite(ugv_r)
        assert metrics is not None

    def test_multiple_episodes_accumulate(self, setup):
        env, trainer = setup
        one, *_ = trainer.collect(episodes=1)
        two, *_ = trainer.collect(episodes=2)
        assert len(two) > len(one)


class TestUpdate:
    def test_update_changes_parameters(self, setup):
        env, trainer = setup
        before = {k: v.copy() for k, v in trainer.ugv_policy.state_dict().items()}
        ugv_samples, uav_samples, *_ = trainer.collect(episodes=1)
        losses = trainer.update_ugv(ugv_samples)
        after = trainer.ugv_policy.state_dict()
        changed = any(not np.allclose(before[k], after[k]) for k in before)
        assert changed
        assert np.isfinite(losses["ugv_policy_loss"])
        assert losses["ugv_value_loss"] >= 0.0

    def test_uav_update_changes_parameters(self, setup):
        env, trainer = setup
        # Force a release so airborne UAV observations exist.
        env.reset(seed=0)
        res = env.step([env.release_action] * env.config.num_ugvs,
                       [None] * env.config.num_uavs)
        obs = [o for o in res.uav_observations if o is not None]
        assert obs
        from repro.core.buffer import UAVSample

        rng = np.random.default_rng(0)
        uav_samples = [
            UAVSample(observation=o, action=rng.normal(size=2) * 0.1,
                      log_prob=-2.0, value=0.0,
                      advantage=float(rng.normal()), ret=float(rng.normal()))
            for o in obs
        ]
        before = {k: v.copy() for k, v in trainer.uav_policy.state_dict().items()}
        losses = trainer.update_uav(uav_samples)
        after = trainer.uav_policy.state_dict()
        assert any(not np.allclose(before[k], after[k]) for k in before)
        assert np.isfinite(losses["uav_policy_loss"])

    def test_empty_samples_are_noop(self, setup):
        _, trainer = setup
        assert trainer.update_ugv([]) == {"ugv_policy_loss": 0.0, "ugv_value_loss": 0.0}
        assert trainer.update_uav([]) == {"uav_policy_loss": 0.0, "uav_value_loss": 0.0}

    def test_train_produces_history(self, setup):
        env, trainer = setup
        seen = []
        history = trainer.train(iterations=2, callback=seen.append)
        assert len(history) == 2
        assert len(seen) == 2
        assert history[0].iteration == 0
        assert "ugv_policy_loss" in history[0].losses
        assert "efficiency" in history[0].metrics

    def test_evaluate_returns_snapshot(self, setup):
        _, trainer = setup
        snap = trainer.evaluate(episodes=1, greedy=False)
        assert 0.0 <= snap.psi <= 1.0
        assert np.isfinite(snap.efficiency)


@st.composite
def _grouped_rows(draw):
    """Row keys for random timestep groups of 1..U rows, rows interleaved
    the way the rollouts lay them out, plus a minibatch size >= U."""
    num_agents = draw(st.integers(1, 5))
    sizes = draw(st.lists(st.integers(1, num_agents), min_size=1, max_size=40))
    labels = draw(st.lists(st.integers(0, 10_000), min_size=len(sizes),
                           max_size=len(sizes), unique=True))
    keys = np.repeat(np.array(labels), sizes)
    keys = keys[draw(st.permutations(range(len(keys))))]
    minibatch_size = draw(st.integers(num_agents, 4 * num_agents + 8))
    return keys, minibatch_size, draw(st.integers(0, 2**32 - 1))


class TestUGVMinibatches:
    @settings(max_examples=200, deadline=None)
    @given(case=_grouped_rows())
    def test_epoch_partitions_rows_into_whole_groups(self, case):
        keys, minibatch_size, seed = case
        rng = np.random.default_rng(seed)
        batches = _ugv_minibatches(keys, minibatch_size, rng)

        assert len(batches) == math.ceil(len(keys) / minibatch_size)
        rows = np.concatenate(batches)
        np.testing.assert_array_equal(np.sort(rows), np.arange(len(keys)))
        # Each minibatch is a union of whole groups: no key spans two.
        owner = {}
        for i, batch in enumerate(batches):
            assert len(batch) > 0
            for key in np.unique(keys[batch]):
                assert owner.setdefault(key, i) == i
        # The only rng draw is one permutation of the distinct groups.
        expected = np.random.default_rng(seed)
        expected.permutation(len(np.unique(keys)))
        assert rng.bit_generator.state == expected.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(case=_grouped_rows(), scale=st.integers(1, 50), shift=st.integers(0, 99))
    def test_order_preserving_relabel_draws_the_same_minibatches(self, case,
                                                                 scale, shift):
        """The per-sample path keys rows by ``episode * T + t``, the
        batched one by ``env * horizon + t``: any relabelling that keeps
        the key order must give the same minibatches from the same rng."""
        keys, minibatch_size, seed = case
        a = _ugv_minibatches(keys, minibatch_size, np.random.default_rng(seed))
        b = _ugv_minibatches(keys * scale + shift, minibatch_size,
                             np.random.default_rng(seed))
        assert len(a) == len(b)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestHooks:
    def test_auxiliary_loss_hook_called(self, toy_env):
        from repro.baselines import AECommAgent

        calls = []
        agent = AECommAgent(toy_env, GARLConfig(hidden_dim=8,
                                                ppo=PPOConfig(epochs=1, minibatch_size=16)))
        original = agent.ugv_policy.auxiliary_loss

        def spy(observations):
            calls.append(1)
            return original(observations)

        agent.ugv_policy.auxiliary_loss = spy
        agent.train(iterations=1)
        assert calls

    def test_post_update_hook_called(self, toy_env):
        from repro.baselines import IC3NetAgent

        agent = IC3NetAgent(toy_env, GARLConfig(hidden_dim=8,
                                                ppo=PPOConfig(epochs=1, minibatch_size=16)))
        agent.train(iterations=1)
        # post_update clears the state cache after each iteration.
        assert agent.ugv_policy._state_cache == {}
