"""Vectorized pipeline equivalence: K=1 must reproduce the sequential path.

Golden checks for the batched execution pipeline: a K=1 vectorized
rollout/update draws the same rng streams and computes the same numbers
as ``run_episode`` + ``update_ugv``/``update_uav``, batched policy
forwards match the sequential forwards, and PPO timestep grouping never
degrades to per-sample forwards.
"""

import copy
import dataclasses
import math

import numpy as np
import pytest

from repro.baselines.registry import make_agent
from repro.core import (
    GARLConfig,
    PPOConfig,
    run_episode,
    run_vec_episodes,
)
from repro.core.buffer import UAVRollout, UGVRollout, VecUAVRollout, VecUGVRollout
from repro.core.garl import GARLAgent
from repro.core.policies import forward_policy_batched
from repro.env import AirGroundEnv, EnvConfig, VecAirGroundEnv
from repro.env.observation import UGVObsArrays
from repro.nn import no_grad

from ..conftest import agent_to_float64

SMALL = GARLConfig(hidden_dim=8, mc_gcn_layers=1, ecomm_layers=1,
                   ppo=PPOConfig(epochs=1, minibatch_size=16))


def _fresh_env(toy_campus, toy_stops, seed=7):
    config = EnvConfig(num_ugvs=2, num_uavs_per_ugv=2, episode_len=12)
    return AirGroundEnv(toy_campus, config, stops=toy_stops, seed=seed)


def _make_agent(toy_campus, toy_stops, method="garl", float64=False,
                **cfg_overrides):
    """A fresh agent; ``float64=True`` casts it for the per-sample vs
    batched comparisons, whose tolerances sit below float32 rounding."""
    env = _fresh_env(toy_campus, toy_stops)
    config = SMALL.replace(**cfg_overrides) if cfg_overrides else SMALL
    agent = GARLAgent(env, config) if method == "garl" else make_agent(method, env, config)
    return env, agent_to_float64(agent) if float64 else agent


def _sequential_collect(env, agent, rng):
    ugv_roll = UGVRollout(env.config.num_ugvs)
    uav_roll = UAVRollout(env.config.num_uavs)
    metrics = run_episode(env, agent.ugv_policy, agent.uav_policy, rng,
                          ugv_rollout=ugv_roll, uav_rollout=uav_roll)
    return ugv_roll, uav_roll, metrics


def _vec_collect(env, agent, rng):
    venv = VecAirGroundEnv.from_env(env, 1)
    cfg = env.config
    ugv_roll = VecUGVRollout(1, cfg.episode_len, cfg.num_ugvs, env.num_stops)
    uav_roll = VecUAVRollout(1, cfg.episode_len, cfg.num_uavs, cfg.uav_obs_size)
    metrics = run_vec_episodes(venv, agent.ugv_policy, agent.uav_policy, rng,
                               episodes=1, ugv_rollout=ugv_roll,
                               uav_rollout=uav_roll)
    return ugv_roll, uav_roll, metrics


class TestK1RolloutEquivalence:
    """One episode at K=1 must be bitwise the sequential episode."""

    @pytest.mark.parametrize("method", ["garl", "gat"])
    def test_golden_rollout(self, toy_campus, toy_stops, method):
        env_a, agent_a = _make_agent(toy_campus, toy_stops, method, float64=True)
        env_b, agent_b = _make_agent(toy_campus, toy_stops, method, float64=True)
        seq_ugv, seq_uav, seq_m = _sequential_collect(
            env_a, agent_a, np.random.default_rng(3))
        vec_ugv, vec_uav, vec_m = _vec_collect(
            env_b, agent_b, np.random.default_rng(3))

        assert vec_m.psi == seq_m.psi
        assert vec_m.xi == seq_m.xi
        assert vec_m.zeta == seq_m.zeta
        assert vec_m.beta == seq_m.beta

        np.testing.assert_array_equal(vec_ugv.actions[0],
                                      np.array(seq_ugv.actions))
        np.testing.assert_array_equal(vec_ugv.actionable[0],
                                      np.array(seq_ugv.actionable))
        np.testing.assert_array_equal(vec_ugv.rewards[0],
                                      np.array(seq_ugv.rewards))
        np.testing.assert_allclose(vec_ugv.log_probs[0],
                                   np.array(seq_ugv.log_probs), rtol=1e-12)
        np.testing.assert_allclose(vec_ugv.values[0],
                                   np.array(seq_ugv.values), rtol=1e-12)

        gamma, lam = 0.99, 0.95
        seq_samples = seq_ugv.build_samples(gamma, lam, episode=0)
        flat = vec_ugv.flat_samples(gamma, lam)
        assert len(flat) == len(seq_samples)
        np.testing.assert_allclose(
            flat.advantages, [s.advantage for s in seq_samples], rtol=1e-12)
        np.testing.assert_allclose(
            flat.returns, [s.ret for s in seq_samples], rtol=1e-12)

        # Flat UAV rows are ordered (uav, t); the sequential buffer emits
        # segment-by-segment in closing order — match rows by action key.
        seq_uav_samples = seq_uav.build_samples(gamma, lam)
        uav_flat = vec_uav.flat_samples(gamma, lam)
        assert len(uav_flat) == len(seq_uav_samples)
        by_key = {tuple(np.round(uav_flat.actions[i], 12)):
                  (uav_flat.advantages[i], uav_flat.returns[i])
                  for i in range(len(uav_flat))}
        assert len(by_key) == len(uav_flat)
        for s in seq_uav_samples:
            adv, ret = by_key[tuple(np.round(s.action, 12))]
            assert adv == pytest.approx(s.advantage, rel=1e-12)
            assert ret == pytest.approx(s.ret, rel=1e-12)


class TestK1TrainEquivalence:
    def test_two_train_iterations_match_sequential(self, toy_campus, toy_stops):
        """Full collect+update loop at K=1 leaves identical parameters."""
        ppo = dataclasses.replace(SMALL.ppo, epochs=1, minibatch_size=100000)
        env_a, agent_a = _make_agent(toy_campus, toy_stops, float64=True, ppo=ppo)
        env_b, agent_b = _make_agent(toy_campus, toy_stops, float64=True, ppo=ppo)

        for _ in range(2):
            tr = agent_a.trainer
            ugv_s, uav_s, _, _, _ = tr.collect(1)
            seq_losses = {**tr.update_ugv(ugv_s), **tr.update_uav(uav_s)}

            tv = agent_b.trainer
            ugv_r, uav_r, _, _, _ = tv.collect_vec(1, 1)
            vec_losses = {**tv.update_ugv_vec(ugv_r), **tv.update_uav_vec(uav_r)}

            for key, val in seq_losses.items():
                assert vec_losses[key] == pytest.approx(val, rel=1e-9, abs=1e-12)

        params_a = dict(agent_a.ugv_policy.named_parameters())
        params_b = dict(agent_b.ugv_policy.named_parameters())
        assert params_a.keys() == params_b.keys()
        for name, p in params_a.items():
            np.testing.assert_allclose(p.data, params_b[name].data,
                                       rtol=1e-9, atol=1e-12, err_msg=name)
        for name, p in dict(agent_a.uav_policy.named_parameters()).items():
            q = dict(agent_b.uav_policy.named_parameters())[name]
            np.testing.assert_allclose(p.data, q.data, rtol=1e-9, atol=1e-12,
                                       err_msg=name)


    @pytest.mark.parametrize("episodes", [1, 2])
    def test_grouped_minibatches_match_sequential(self, toy_campus, toy_stops,
                                                  episodes):
        """Several minibatches per epoch: both update paths draw the same
        whole-timestep minibatches, so losses and parameters agree."""
        ppo = dataclasses.replace(SMALL.ppo, epochs=2, minibatch_size=5)
        _, agent_a = _make_agent(toy_campus, toy_stops, float64=True, ppo=ppo)
        _, agent_b = _make_agent(toy_campus, toy_stops, float64=True, ppo=ppo)
        tr, tv = agent_a.trainer, agent_b.trainer
        for _ in range(2):
            ugv_s, _, _, _, _ = tr.collect(episodes)
            ugv_r, _, _, _, _ = tv.collect_vec(episodes, 1)
            assert len(ugv_s) > 2 * ppo.minibatch_size
            seq = tr.update_ugv(ugv_s)
            vec = tv.update_ugv_vec(ugv_r)
            for key, val in seq.items():
                assert vec[key] == pytest.approx(val, rel=1e-9, abs=1e-12)
        params_b = dict(agent_b.ugv_policy.named_parameters())
        for name, p in agent_a.ugv_policy.named_parameters():
            np.testing.assert_allclose(p.data, params_b[name].data,
                                       rtol=1e-9, atol=1e-12, err_msg=name)


class TestDefaultTrainIsBatched:
    """``train()`` at the default ``num_envs=1`` runs the batched pipeline."""

    def test_default_train_matches_per_sample_oracle(self, toy_campus, toy_stops):
        ppo = dataclasses.replace(SMALL.ppo, epochs=1, minibatch_size=100000)
        _, oracle = _make_agent(toy_campus, toy_stops, float64=True, ppo=ppo)
        _, agent = _make_agent(toy_campus, toy_stops, float64=True, ppo=ppo)

        history = agent.train(2)
        assert agent.trainer._venv is not None
        assert agent.trainer._venv.num_envs == 1

        tr = oracle.trainer
        for record in history:
            ugv_s, uav_s, metrics, ugv_r, uav_r = tr.collect(1)
            losses = {**tr.update_ugv(ugv_s), **tr.update_uav(uav_s)}
            assert record.metrics == pytest.approx(metrics.as_dict(), rel=1e-9)
            assert record.ugv_reward == pytest.approx(ugv_r, rel=1e-9)
            assert record.uav_reward == pytest.approx(uav_r, rel=1e-9)
            assert record.losses.keys() == losses.keys()
            for key, val in losses.items():
                assert record.losses[key] == pytest.approx(val, rel=1e-9,
                                                           abs=1e-12)

    def test_ugv_update_is_one_forward_per_minibatch(self, toy_campus, toy_stops):
        ppo = dataclasses.replace(SMALL.ppo, epochs=2, minibatch_size=5)
        _, agent = _make_agent(toy_campus, toy_stops, ppo=ppo)
        trainer, policy = agent.trainer, agent.ugv_policy
        calls = {"forward": 0, "forward_batched": 0}

        def counting(name):
            orig = getattr(policy, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return orig(*args, **kwargs)
            return wrapped

        policy.forward = counting("forward")
        policy.forward_batched = counting("forward_batched")
        centres = {"n": 0}
        forward_batch = policy.mc_gcn.forward_batch

        def counted_forward_batch(features, own, others):
            centres["n"] += len(own)
            return forward_batch(features, own, others)

        policy.mc_gcn.forward_batch = counted_forward_batch
        update_ugv_vec = trainer.update_ugv_vec
        seen = []

        def counted_update(rollout):
            flat = rollout.flat_samples(ppo.gamma, ppo.gae_lambda)
            timesteps = len(np.unique(flat.env * flat.horizon + flat.t))
            before = dict(calls)
            centres["n"] = 0
            out = update_ugv_vec(rollout)
            seen.append((len(flat), timesteps, centres["n"],
                         calls["forward_batched"] - before["forward_batched"],
                         calls["forward"] - before["forward"]))
            return out

        trainer.update_ugv_vec = counted_update
        agent.train(2)
        assert len(seen) == 2
        num_ugvs = trainer.env.config.num_ugvs
        for n, timesteps, forwarded, batched, per_sample in seen:
            assert n > ppo.minibatch_size
            assert batched == ppo.epochs * math.ceil(n / ppo.minibatch_size)
            assert per_sample == 0
            # Whole-timestep minibatches: every (env, t) is forwarded
            # exactly once per epoch, all of its U agents as centres.
            assert forwarded == ppo.epochs * num_ugvs * timesteps

    def test_stateful_policy_trains_on_fallback_at_k1(self, toy_campus, toy_stops):
        _, agent = _make_agent(toy_campus, toy_stops, "ic3net")
        history = agent.train(2)
        assert agent.trainer._venv is None
        for record in history:
            for loss in record.losses.values():
                assert np.isfinite(loss)

    def test_checkpoint_without_venv_resumes_batched(self, toy_campus, toy_stops):
        """Trainer state from the per-sample default (no ``venv`` key)
        loads and continues on the batched path as if never interrupted."""
        _, full = _make_agent(toy_campus, toy_stops)
        expected = full.train(4)[2:]

        _, first = _make_agent(toy_campus, toy_stops)
        first.train(2)
        state = copy.deepcopy(first.state_dict())
        del state["trainer"]["venv"]

        _, resumed = _make_agent(toy_campus, toy_stops)
        resumed.load_state_dict(state)
        assert resumed.trainer._venv is None
        records = resumed.train(2)
        assert resumed.trainer._venv.num_envs == 1
        assert [dataclasses.asdict(r) for r in records] == \
            [dataclasses.asdict(r) for r in expected]


class TestBatchedForwardConsistency:
    def _stacked_obs(self, env, replicas=3):
        obs = env.reset().ugv_observations
        return obs, UGVObsArrays.from_observations([obs] * replicas)

    def test_garl_native_forward_batched(self, toy_campus, toy_stops):
        env, agent = _make_agent(toy_campus, toy_stops, "garl")
        obs, stacked = self._stacked_obs(env)
        assert "forward_batched" in type(agent.ugv_policy).__dict__
        with no_grad():
            ref = agent.ugv_policy(obs)
            out = agent.ugv_policy.forward_batched(stacked)
        for p in range(3):
            np.testing.assert_allclose(out.logits.numpy()[p], ref.logits.numpy(),
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(out.values.numpy()[p], ref.values.numpy(),
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("method", ["gat", "dgn"])
    def test_mixin_fallback_forward_batched(self, toy_campus, toy_stops, method):
        env, agent = _make_agent(toy_campus, toy_stops, method)
        obs, stacked = self._stacked_obs(env)
        assert agent.ugv_policy.supports_vectorized
        with no_grad():
            ref = agent.ugv_policy(obs)
            out = forward_policy_batched(agent.ugv_policy, stacked)
        for p in range(3):
            np.testing.assert_allclose(out.logits.numpy()[p], ref.logits.numpy(),
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(out.values.numpy()[p], ref.values.numpy(),
                                       rtol=1e-12, atol=1e-12)

    def test_ic3net_opts_out(self, toy_campus, toy_stops):
        env, agent = _make_agent(toy_campus, toy_stops, "ic3net")
        assert agent.ugv_policy.supports_vectorized is False
        assert agent.trainer.supports_vectorized() is False


class TestVectorizedTraining:
    def test_k4_smoke_train(self, toy_campus, toy_stops):
        env, agent = _make_agent(toy_campus, toy_stops, "garl")
        assert agent.trainer.supports_vectorized()
        history = agent.train(2, episodes_per_iteration=1, num_envs=4)
        assert len(history) == 2
        for record in history:
            for loss in record.losses.values():
                assert np.isfinite(loss)

    def test_uav_update_feeds_the_flat_copy_byte_for_byte(self, toy_campus,
                                                           toy_stops, monkeypatch):
        """``update_uav_vec`` gathers each minibatch's crops from the
        rollout's storage; they must equal indexing one full flat copy
        of every airborne crop (``obs.grid[rows][idxs]``) byte for byte."""
        env, agent = _make_agent(toy_campus, toy_stops, "garl",
                                 ppo=PPOConfig(epochs=2, minibatch_size=8))
        trainer = agent.trainer
        _, uav_roll, *_ = trainer.collect_vec(1, num_envs=2)
        t = len(uav_roll)
        env_i, uav_i, t_i = np.nonzero(uav_roll.valid[:, :t].transpose(0, 2, 1))
        rows = (env_i, t_i, uav_i)
        full_grids, full_aux = uav_roll.obs.grid[rows], uav_roll.obs.aux[rows]

        flat = uav_roll.flat_samples(trainer.ppo.gamma, trainer.ppo.gae_lambda)
        crops = flat.crops
        fed, gathered = [], []

        def recording_crops(idxs):
            out = crops(idxs)
            gathered.append((idxs.copy(), out))
            return out

        loss_arrays = trainer._uav_loss_arrays

        def recording_loss(grids, aux, *rest):
            fed.append((grids, aux))
            return loss_arrays(grids, aux, *rest)

        monkeypatch.setattr(flat, "crops", recording_crops)
        monkeypatch.setattr(trainer, "_uav_loss_arrays", recording_loss)
        trainer.update_uav_vec(uav_roll)

        assert len(fed) == len(gathered) >= 4
        for (grids, aux), (idxs, (g, a)) in zip(fed, gathered):
            assert grids is g and aux is a
            for got, full in ((grids, full_grids), (aux, full_aux)):
                want = full[idxs]
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.flags.c_contiguous == want.flags.c_contiguous
                assert got.tobytes() == want.tobytes()

    def test_stateful_policy_falls_back_to_sequential(self, toy_campus, toy_stops):
        env, agent = _make_agent(toy_campus, toy_stops, "ic3net")
        history = agent.train(1, episodes_per_iteration=1, num_envs=4)
        assert len(history) == 1
        assert agent.trainer._venv is None  # vec env never built


class _CountingPolicy:
    """Transparent wrapper counting joint UGV forwards."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __call__(self, observations):
        self.calls += 1
        return self.inner(observations)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestTimestepGrouping:
    def test_update_forwards_once_per_distinct_timestep(self, toy_campus, toy_stops):
        """The PPO update must group samples by (episode, t), not by the
        identity of the observation list — and never degrade to one
        forward per sample."""
        ppo = dataclasses.replace(SMALL.ppo, epochs=1, minibatch_size=100000)
        env, agent = _make_agent(toy_campus, toy_stops, ppo=ppo)
        trainer = agent.trainer
        ugv_samples, _, _, _, _ = trainer.collect(episodes=2)

        # Defeat id()-based grouping: give every sample its own fresh list
        # object (same contents).  Correct grouping keys on (episode, t).
        for s in ugv_samples:
            s.joint_observations = list(s.joint_observations)

        distinct_timesteps = len({(s.episode, s.t) for s in ugv_samples})
        assert distinct_timesteps < len(ugv_samples)  # >=2 agents share steps

        counting = _CountingPolicy(trainer.ugv_policy)
        trainer.ugv_policy = counting
        trainer.update_ugv(ugv_samples)
        assert counting.calls == ppo.epochs * distinct_timesteps
        assert counting.calls < ppo.epochs * len(ugv_samples)
