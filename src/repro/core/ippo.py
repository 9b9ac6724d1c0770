"""IPPO training loop (Algorithm 1 + Eqns. 2, 15, 16).

The trainer is policy-agnostic: any UGV policy exposing
``forward(list[UGVObservation]) -> output`` with ``.distribution`` /
``.values`` and any UAV policy exposing
``forward(list[UAVObservation]) -> (DiagGaussian, values)`` plugs in —
GARL and every baseline share this loop, so performance comparisons
isolate the architectural differences the paper studies.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from ..env.airground import AirGroundEnv
from ..env.metrics import MetricSnapshot
from ..env.vector import VecAirGroundEnv
from ..env.workers import WorkerVecEnv
from ..nn import (
    Adam,
    Categorical,
    Tensor,
    annotate,
    clip_grad_norm,
    detect_anomaly,
    no_grad,
    rng_from_state,
    rng_state,
)
from ..obs.scope import (
    counter_add,
    gauge_set,
    histogram_observe,
    scope as obs_scope,
)
from .buffer import (
    UAVFlatBatch,
    UAVRollout,
    UAVSample,
    UGVFlatBatch,
    UGVRollout,
    UGVSample,
    VecUAVRollout,
    VecUGVRollout,
)
from .config import PPOConfig
from .policies import forward_policy_batched

__all__ = ["IPPOTrainer", "TrainRecord", "run_episode", "run_vec_episodes"]


@dataclass
class TrainRecord:
    """Per-iteration training telemetry."""

    iteration: int
    metrics: dict[str, float]
    ugv_reward: float
    uav_reward: float
    losses: dict[str, float] = field(default_factory=dict)


def _ugv_minibatches(group_keys: np.ndarray, minibatch_size: int,
                     rng: np.random.Generator) -> list[np.ndarray]:
    """One epoch of UGV PPO minibatches, drawn as whole timestep groups.

    E-Comm couples every UGV of a timestep, so scoring any one row
    forwards all of its timestep's agents.  Drawing whole groups (the
    MAPPO convention) forwards each timestep once per epoch instead of
    once per minibatch that touches it.  ``group_keys[i]`` identifies
    row ``i``'s timestep.  The distinct keys are shuffled with one
    ``rng.permutation`` draw and their rows laid out group by group
    (ascending row index within a group).  That order is cut every
    ``minibatch_size`` rows, and a group the cut splits moves whole into
    the minibatch holding its last row.  With groups no larger than
    ``minibatch_size`` this gives ``ceil(n / minibatch_size)``
    minibatches of about ``minibatch_size`` rows each.
    """
    uniq, inverse = np.unique(group_keys, return_inverse=True)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[rng.permutation(len(uniq))] = np.arange(len(uniq))
    row_rank = rank[inverse]
    order = np.argsort(row_rank, kind="stable")
    ends = np.cumsum(np.bincount(row_rank, minlength=len(uniq)))
    closes = np.diff((ends - 1) // minibatch_size) > 0
    return np.split(order, ends[:-1][closes])


def run_episode(env: AirGroundEnv, ugv_policy, uav_policy,
                rng: np.random.Generator, greedy: bool = False,
                ugv_rollout: UGVRollout | None = None,
                uav_rollout: UAVRollout | None = None,
                trace: list | None = None) -> MetricSnapshot:
    """Roll one full episode; optionally record training data or a trace.

    ``trace`` (if given) accumulates per-step position snapshots used by
    the Fig. 7 trajectory experiment.
    """
    res = env.reset()
    cfg = env.config
    # Stateful policies (IC3Net's recurrent core) reset per episode.
    for policy in (ugv_policy, uav_policy):
        begin = getattr(policy, "begin_episode", None)
        if begin is not None:
            begin()
    while True:
        # O(U) bool gather (U <= 8); wait flags flip at several env sites,
        # so a synced cache buys nothing over the rebuild.
        actionable = np.array([not g.is_waiting for g in env.ugvs])
        with obs_scope("forward/ugv"), no_grad():
            out = ugv_policy(res.ugv_observations)
            dist = out.distribution
            actions = dist.mode() if greedy else dist.sample(rng)
            log_probs = dist.log_prob(actions).numpy()
            values = out.values.numpy()

        airborne = [v for v, o in enumerate(res.uav_observations) if o is not None]
        # Fresh zeroed O(V) vectors each timeslot: docked rows must read
        # 0.0, so buffer reuse would still pay the zeroing pass.
        uav_actions: list[np.ndarray | None] = [None] * cfg.num_uavs
        uav_logp = np.zeros(cfg.num_uavs)
        uav_values = np.zeros(cfg.num_uavs)
        uav_obs_kept = {}
        if airborne:
            batch = [res.uav_observations[v] for v in airborne]
            with obs_scope("forward/uav"), no_grad():
                gdist, gvalues = uav_policy(batch)
                sampled = gdist.mode() if greedy else gdist.sample(rng)
                logps = gdist.log_prob(sampled).numpy()
            for i, v in enumerate(airborne):
                uav_actions[v] = sampled[i] * cfg.uav_max_step
                uav_logp[v] = logps[i]
                uav_values[v] = gvalues.numpy()[i]
                uav_obs_kept[v] = (batch[i], sampled[i])

        if trace is not None:
            # Trace recording only runs on the visualisation path (trace
            # is None during training).
            trace.append({
                "t": env.t,
                "ugv_positions": np.array([g.position for g in env.ugvs]),
                "uav_positions": np.array([u.position for u in env.uavs]),
                "uav_airborne": np.array([u.airborne for u in env.uavs]),
            })

        prev_obs = res.ugv_observations
        with obs_scope("env/step"):
            res = env.step(actions, uav_actions)
        counter_add("env/steps")
        if res.done:
            counter_add("env/episodes")

        if ugv_rollout is not None:
            ugv_rollout.add(prev_obs, actions, log_probs, values,
                            res.ugv_rewards, actionable, res.done)
        if uav_rollout is not None:
            for v, (obs, raw_action) in uav_obs_kept.items():
                uav_rollout.add(v, obs, raw_action, uav_logp[v], uav_values[v],
                                float(res.uav_rewards[v]))
                if res.uav_observations[v] is None:  # docked this step
                    uav_rollout.close_flight(v)
        if res.done:
            break
    if uav_rollout is not None:
        uav_rollout.close_all()
    return env.metrics()


def run_vec_episodes(venv: VecAirGroundEnv, ugv_policy, uav_policy,
                     rng: np.random.Generator, episodes: int = 1,
                     ugv_rollout: VecUGVRollout | None = None,
                     uav_rollout: VecUAVRollout | None = None,
                     greedy: bool = False) -> MetricSnapshot:
    """Roll ``episodes`` full episodes on every replica simultaneously.

    Episodes are fixed-horizon, so all replicas share boundaries and the
    collect window is exactly ``episodes * episode_len`` steps; the final
    step suppresses auto-reset so each replica performs precisely
    ``episodes`` resets — at K=1 this draws the same rng stream as
    ``episodes`` sequential :func:`run_episode` calls, sample for sample.

    Returns the mean final-episode metrics across all replica episodes.
    """
    cfg = venv.config
    num_envs = venv.num_envs
    total = episodes * cfg.episode_len
    final_snaps: list[MetricSnapshot] = []
    res = venv.reset()
    for step in range(total):
        last = step == total - 1
        actionable = res.ugv_actionable
        prev_ugv_obs = res.ugv_obs
        prev_uav_obs = res.uav_obs

        with obs_scope("forward/ugv"), no_grad():
            out = forward_policy_batched(ugv_policy, res.ugv_obs)
            dist = out.distribution
            actions = dist.mode() if greedy else dist.sample(rng)  # (K, U)
            log_probs = dist.log_prob(actions).numpy()
            values = out.values.numpy()

        # One CNN forward for every airborne UAV across all replicas.
        # Docked rows must read 0.0, so these stay freshly zeroed.
        raw = np.zeros((num_envs, cfg.num_uavs, 2))
        uav_logp = np.zeros((num_envs, cfg.num_uavs))
        uav_values = np.zeros((num_envs, cfg.num_uavs))
        ks, vs = np.nonzero(prev_uav_obs.airborne)
        if len(ks):
            with obs_scope("forward/uav"), no_grad():
                gdist, gvalues = uav_policy.forward_arrays(
                    prev_uav_obs.grid[ks, vs], prev_uav_obs.aux[ks, vs])
                sampled = gdist.mode() if greedy else gdist.sample(rng)
                logps = gdist.log_prob(sampled).numpy()
            raw[ks, vs] = sampled
            uav_logp[ks, vs] = logps
            uav_values[ks, vs] = gvalues.numpy()

        res = venv.step(actions, raw * cfg.uav_max_step,
                        reset_on_done=not last)
        for k in np.nonzero(res.dones)[0]:
            final_snaps.append(res.infos[k]["final_metrics"])

        if ugv_rollout is not None:
            ugv_rollout.add(prev_ugv_obs, actions, log_probs, values,
                            res.ugv_rewards, actionable, res.dones)
        if uav_rollout is not None:
            uav_rollout.add(prev_uav_obs, raw, uav_logp, uav_values,
                            res.uav_rewards, res.uav_obs.airborne, res.dones)
    return MetricSnapshot.mean(final_snaps)


class IPPOTrainer:
    """Collect-then-update IPPO driver shared by GARL and all baselines."""

    def __init__(self, env: AirGroundEnv, ugv_policy, uav_policy,
                 ppo: PPOConfig | None = None, seed: int = 0,
                 lr_schedule=None, entropy_schedule=None,
                 detect_anomaly: bool = False):
        self.env = env
        # Opt-in numerics sanitizer: updates run under repro.nn.detect_anomaly
        # so a NaN/Inf loss or gradient raises, naming the originating op.
        self.detect_anomaly = bool(detect_anomaly)
        self.ugv_policy = ugv_policy
        self.uav_policy = uav_policy
        self.ppo = ppo or PPOConfig()
        self.rng = np.random.default_rng(seed)
        self.ugv_optimizer = Adam(ugv_policy.parameters(), lr=self.ppo.lr)
        self.uav_optimizer = Adam(uav_policy.parameters(), lr=self.ppo.lr)
        self.history: list[TrainRecord] = []
        # Optional annealing: schedules map training progress [0, 1] to a
        # learning rate / entropy coefficient (see repro.core.schedules).
        self.lr_schedule = lr_schedule
        self.entropy_schedule = entropy_schedule
        self._entropy_coef = self.ppo.entropy_coef
        self._venv: VecAirGroundEnv | None = None
        # Global iteration counter: persists across train() calls (and
        # through checkpoint/resume), so records and schedule progress
        # are numbered identically whether or not a run was interrupted.
        self._iteration = 0

    # ------------------------------------------------------------------
    def collect(self, episodes: int = 1) -> tuple[list[UGVSample], list[UAVSample], MetricSnapshot, float, float]:
        """Sample trajectories; returns flattened PPO samples + telemetry."""
        cfg = self.env.config
        ugv_samples: list[UGVSample] = []
        uav_samples: list[UAVSample] = []
        last_metrics: MetricSnapshot | None = None
        total_ugv_reward = 0.0
        total_uav_reward = 0.0
        with obs_scope("rollout"):
            for episode in range(episodes):
                ugv_roll = UGVRollout(cfg.num_ugvs)
                uav_roll = UAVRollout(cfg.num_uavs)
                last_metrics = run_episode(self.env, self.ugv_policy,
                                           self.uav_policy, self.rng,
                                           greedy=False, ugv_rollout=ugv_roll,
                                           uav_rollout=uav_roll)
                total_ugv_reward += float(np.sum(ugv_roll.rewards))
                with obs_scope("gae"):
                    uav_samples_ep = uav_roll.build_samples(self.ppo.gamma,
                                                            self.ppo.gae_lambda)
                    ugv_samples.extend(ugv_roll.build_samples(
                        self.ppo.gamma, self.ppo.gae_lambda, episode=episode))
                total_uav_reward += float(sum(s.ret for s in uav_samples_ep if s.ret))
                uav_samples.extend(uav_samples_ep)
        if last_metrics is None:
            raise RuntimeError("collect() requires at least one episode")
        counter_add("rollout/ugv_samples", len(ugv_samples))
        counter_add("rollout/uav_samples", len(uav_samples))
        return ugv_samples, uav_samples, last_metrics, total_ugv_reward, total_uav_reward

    # ------------------------------------------------------------------
    def supports_vectorized(self) -> bool:
        """Whether both policies can run the vectorized collect path.

        Stateful UGV policies (IC3Net's recurrent core) advance episode
        state between steps and cannot be replica-interleaved; UAV
        policies must expose the array forward.
        """
        return (getattr(self.ugv_policy, "supports_vectorized", True)
                and getattr(self.ugv_policy, "begin_episode", None) is None
                and hasattr(self.uav_policy, "forward_arrays"))

    def _get_venv(self, num_envs: int, num_workers: int = 1) -> VecAirGroundEnv:
        """Get-or-rebuild the vec env for a (replicas, workers) choice.

        Rebuilding at the same replica count (resuming with a different
        ``--workers``, say) transfers the per-replica rng streams across,
        so the worker-count axis never moves a replica's stream position
        — ``workers=N`` stays bitwise-equivalent to ``workers=1``.
        """
        current = getattr(self._venv, "num_workers", 1)
        if (self._venv is None or self._venv.num_envs != num_envs
                or current != num_workers):
            states = (self._venv.rng_states()
                      if self._venv is not None
                      and self._venv.num_envs == num_envs else None)
            if isinstance(self._venv, WorkerVecEnv):
                self._venv.close()
            if num_workers > 1:
                self._venv = WorkerVecEnv(self.env, num_envs, num_workers)
            else:
                self._venv = VecAirGroundEnv.from_env(self.env, num_envs)
            if states is not None:
                self._venv.set_rng_states(states)
        return self._venv

    def collect_vec(self, episodes: int, num_envs: int, num_workers: int = 1) -> tuple[
            VecUGVRollout, VecUAVRollout, MetricSnapshot, float, float]:
        """Vectorized counterpart of :meth:`collect` over K replicas.

        Reward telemetry is the total across *all* replicas (K times the
        sequential per-iteration volume).  ``num_workers > 1`` shards the
        replicas over that many rollout worker processes
        (:class:`~repro.env.workers.WorkerVecEnv`); after the window the
        next reset is prefetched so workers overlap the PPO update.
        """
        cfg = self.env.config
        venv = self._get_venv(num_envs, num_workers)
        horizon = episodes * cfg.episode_len
        ugv_roll = VecUGVRollout(num_envs, horizon, cfg.num_ugvs, self.env.num_stops)
        uav_roll = VecUAVRollout(num_envs, horizon, cfg.num_uavs, cfg.uav_obs_size)
        with obs_scope("rollout"):
            metrics = run_vec_episodes(venv, self.ugv_policy, self.uav_policy,
                                       self.rng, episodes=episodes,
                                       ugv_rollout=ugv_roll, uav_rollout=uav_roll)
            prefetch = getattr(venv, "prefetch_reset", None)
            if prefetch is not None:
                prefetch()
            total_ugv_reward = float(ugv_roll.rewards.sum())
            with obs_scope("gae"):
                uav_flat = uav_roll.flat_samples(self.ppo.gamma, self.ppo.gae_lambda)
            total_uav_reward = float(uav_flat.returns.sum())
        counter_add("rollout/ugv_samples", num_envs * horizon * cfg.num_ugvs)
        counter_add("rollout/uav_samples", len(uav_flat))
        return ugv_roll, uav_roll, metrics, total_ugv_reward, total_uav_reward

    # ------------------------------------------------------------------
    def _sanitize(self):
        """Context wrapping gradient updates in anomaly detection if enabled."""
        return detect_anomaly() if self.detect_anomaly else nullcontext()

    def update_ugv(self, samples: list[UGVSample]) -> dict[str, float]:
        """Clipped PPO update for the (shared) UGV policy."""
        if not samples:
            return {"ugv_policy_loss": 0.0, "ugv_value_loss": 0.0}
        ppo = self.ppo
        advantages = np.array([s.advantage for s in samples])
        std = advantages.std()
        mean = advantages.mean()
        norm_adv = (advantages - mean) / (std + 1e-8)

        # (episode, t) folded into one integer that sorts like the pair,
        # and so like the batched path's ``env * horizon + t`` at K=1.
        episode = np.array([s.episode for s in samples])
        t = np.array([s.t for s in samples])
        keys = episode * (int(t.max()) + 1) + t

        policy_losses, value_losses = [], []
        with obs_scope("update/ugv"):
            for _ in range(ppo.epochs):
                for batch_idx in _ugv_minibatches(keys, ppo.minibatch_size,
                                                  self.rng):
                    with self._sanitize():
                        with obs_scope("forward"):
                            loss, pl, vl = self._ugv_minibatch_loss(
                                samples, batch_idx, norm_adv)
                        self.ugv_optimizer.zero_grad()
                        with obs_scope("backward"):
                            loss.backward()
                        with obs_scope("optim"):
                            clip_grad_norm(self.ugv_optimizer.params,
                                           ppo.max_grad_norm)
                            self.ugv_optimizer.step()
                    counter_add("optim/ugv_steps")
                    histogram_observe("loss/ugv_policy", pl)
                    policy_losses.append(pl)
                    value_losses.append(vl)
        return {"ugv_policy_loss": float(np.mean(policy_losses)),
                "ugv_value_loss": float(np.mean(value_losses))}

    def _ugv_minibatch_loss(self, samples: list[UGVSample], batch_idx: np.ndarray,
                            norm_adv: np.ndarray) -> tuple[Tensor, float, float]:
        """Forward each distinct timestep once; gather per-sample terms."""
        ppo = self.ppo
        # Group by explicit (episode, t) identity — every agent sample of
        # one timestep shares a single joint forward.  (Grouping by the
        # observation list's id() would silently degrade to per-sample
        # forwards if a caller ever rebuilt the lists.)
        groups: dict[tuple[int, int], list[int]] = {}
        for i in batch_idx:
            groups.setdefault((samples[i].episode, samples[i].t), []).append(int(i))

        log_ratios, entropies, values, old_values = [], [], [], []
        adv_list, ret_list, old_logp = [], [], []
        aux_losses = []
        aux_fn = getattr(self.ugv_policy, "auxiliary_loss", None)
        for idxs in groups.values():
            joint = samples[idxs[0]].joint_observations
            out = self.ugv_policy(joint)
            if aux_fn is not None:
                aux_losses.append(aux_fn(joint))
            actions = np.array([samples[i].action for i in idxs])
            agents = np.array([samples[i].agent for i in idxs])
            # Select the rows for the agents in this group, then their actions.
            selected_logits = out.logits[agents]
            sub_dist = Categorical(selected_logits)
            logp = sub_dist.log_prob(actions)
            ent = sub_dist.entropy()
            val = out.values[agents]
            log_ratios.append(logp)
            entropies.append(ent)
            values.append(val)
            old_logp.extend(samples[i].log_prob for i in idxs)
            old_values.extend(samples[i].value for i in idxs)
            adv_list.extend(norm_adv[i] for i in idxs)
            ret_list.extend(samples[i].ret for i in idxs)

        logp = Tensor.concat(log_ratios, axis=0)
        entropy = Tensor.concat(entropies, axis=0)
        value = Tensor.concat(values, axis=0)
        # Loss constants in the model dtype, so they never promote it.
        old_logp_arr = np.array(old_logp, dtype=value.dtype)
        old_value_arr = np.array(old_values, dtype=value.dtype)
        adv = np.array(adv_list, dtype=value.dtype)
        ret = np.array(ret_list, dtype=value.dtype)

        ratio = (logp - Tensor(old_logp_arr)).exp()
        surr1 = ratio * Tensor(adv)
        surr2 = ratio.clip(1.0 - ppo.clip_eps, 1.0 + ppo.clip_eps) * Tensor(adv)
        policy_loss = -Tensor.minimum(surr1, surr2).mean()

        # Eqn. (16): pessimistic (max) of clipped and unclipped value errors.
        v_clipped = Tensor(old_value_arr) + (value - Tensor(old_value_arr)).clip(
            -ppo.value_clip, ppo.value_clip)
        loss_unclipped = (value - Tensor(ret)) ** 2
        loss_clipped = (v_clipped - Tensor(ret)) ** 2
        value_loss = Tensor.maximum(loss_unclipped, loss_clipped).mean()

        total = (policy_loss + ppo.value_coef * value_loss
                 - self._entropy_coef * entropy.mean())
        if aux_losses:
            # Auxiliary objectives (e.g. AE-Comm's reconstruction loss).
            total = total + Tensor.stack(aux_losses, axis=0).mean()
        annotate(total, "ippo.ugv_loss")
        return total, float(policy_loss.item()), float(value_loss.item())

    # ------------------------------------------------------------------
    def update_ugv_vec(self, rollout: VecUGVRollout) -> dict[str, float]:
        """Clipped PPO update from an array-backed vectorized rollout."""
        ppo = self.ppo
        flat = rollout.flat_samples(ppo.gamma, ppo.gae_lambda)
        if len(flat) == 0:
            return {"ugv_policy_loss": 0.0, "ugv_value_loss": 0.0}
        advantages = flat.advantages
        norm_adv = (advantages - advantages.mean()) / (advantages.std() + 1e-8)

        keys = flat.env * flat.horizon + flat.t

        policy_losses, value_losses = [], []
        with obs_scope("update/ugv"):
            for _ in range(ppo.epochs):
                for batch_idx in _ugv_minibatches(keys, ppo.minibatch_size,
                                                  self.rng):
                    counter_add("update/ugv_centres", rollout.num_agents
                                * len(np.unique(keys[batch_idx])))
                    with self._sanitize():
                        with obs_scope("forward"):
                            loss, pl, vl = self._ugv_minibatch_loss_vec(
                                flat, batch_idx, norm_adv)
                        self.ugv_optimizer.zero_grad()
                        with obs_scope("backward"):
                            loss.backward()
                        with obs_scope("optim"):
                            clip_grad_norm(self.ugv_optimizer.params,
                                           ppo.max_grad_norm)
                            self.ugv_optimizer.step()
                    counter_add("optim/ugv_steps")
                    histogram_observe("loss/ugv_policy", pl)
                    policy_losses.append(pl)
                    value_losses.append(vl)
        return {"ugv_policy_loss": float(np.mean(policy_losses)),
                "ugv_value_loss": float(np.mean(value_losses))}

    def _ugv_minibatch_loss_vec(self, flat: UGVFlatBatch, batch_idx: np.ndarray,
                                norm_adv: np.ndarray) -> tuple[Tensor, float, float]:
        """One batched forward over the minibatch's unique (env, t) pairs.

        The whole minibatch's distinct timesteps stack into a single
        policy forward; per-sample (agent) rows are then gathered out of
        the batched logits/values — same math as the sequential
        per-group loop, minus the Python-level iteration.
        """
        ppo = self.ppo
        env_b = flat.env[batch_idx]
        t_b = flat.t[batch_idx]
        agent_b = flat.agent[batch_idx]
        keys = env_b * flat.horizon + t_b
        uniq, inverse = np.unique(keys, return_inverse=True)
        obs = flat.obs.index((uniq // flat.horizon, uniq % flat.horizon))
        out = forward_policy_batched(self.ugv_policy, obs)

        selected_logits = out.logits[inverse, agent_b]  # (M, B+1)
        sub_dist = Categorical(selected_logits)
        logp = sub_dist.log_prob(flat.actions[batch_idx])
        entropy = sub_dist.entropy()
        value = out.values[inverse, agent_b]

        # Loss constants in the model dtype, so they never promote it.
        old_logp = flat.log_probs[batch_idx].astype(value.dtype)
        old_value = flat.values[batch_idx].astype(value.dtype)
        adv = norm_adv[batch_idx].astype(value.dtype)
        ret = flat.returns[batch_idx].astype(value.dtype)

        ratio = (logp - Tensor(old_logp)).exp()
        surr1 = ratio * Tensor(adv)
        surr2 = ratio.clip(1.0 - ppo.clip_eps, 1.0 + ppo.clip_eps) * Tensor(adv)
        policy_loss = -Tensor.minimum(surr1, surr2).mean()

        v_clipped = Tensor(old_value) + (value - Tensor(old_value)).clip(
            -ppo.value_clip, ppo.value_clip)
        loss_unclipped = (value - Tensor(ret)) ** 2
        loss_clipped = (v_clipped - Tensor(ret)) ** 2
        value_loss = Tensor.maximum(loss_unclipped, loss_clipped).mean()

        total = (policy_loss + ppo.value_coef * value_loss
                 - self._entropy_coef * entropy.mean())
        aux_fn = getattr(self.ugv_policy, "auxiliary_loss", None)
        if aux_fn is not None:
            aux_losses = [aux_fn(obs.observations(p)) for p in range(len(uniq))]
            total = total + Tensor.stack(aux_losses, axis=0).mean()
        annotate(total, "ippo.ugv_loss")
        return total, float(policy_loss.item()), float(value_loss.item())

    def _uav_loss_arrays(self, grids: np.ndarray, aux: np.ndarray,
                         actions: np.ndarray, old_logp: np.ndarray,
                         adv: np.ndarray, old_value: np.ndarray,
                         ret: np.ndarray, entropy_coef: np.ndarray
                         ) -> tuple[Tensor, Tensor, Tensor]:
        """UAV surrogate loss (Eqns. 2, 15, 16) as a pure array function.

        Every call-varying value enters the graph as a tensor leaf over
        an argument array, the annealed entropy coefficient included
        (passed as a 0-d array).  Op order mirrors the historic inline
        update exactly.
        """
        ppo = self.ppo
        dist, value = self.uav_policy.forward_arrays(grids, aux)
        old_logp, adv, old_value, ret, entropy_coef = (
            np.asarray(a, dtype=value.dtype)
            for a in (old_logp, adv, old_value, ret, entropy_coef))
        logp = dist.log_prob(actions)
        ratio = (logp - Tensor(old_logp)).exp()
        adv_t = Tensor(adv)
        surr1 = ratio * adv_t
        surr2 = ratio.clip(1.0 - ppo.clip_eps, 1.0 + ppo.clip_eps) * adv_t
        policy_loss = -Tensor.minimum(surr1, surr2).mean()

        v_clipped = Tensor(old_value) + (value - Tensor(old_value)).clip(
            -ppo.value_clip, ppo.value_clip)
        value_loss = Tensor.maximum(
            (value - Tensor(ret)) ** 2,
            (v_clipped - Tensor(ret)) ** 2).mean()
        entropy = dist.entropy().mean()

        total = (policy_loss + ppo.value_coef * value_loss
                 - Tensor(entropy_coef) * entropy)
        annotate(total, "ippo.uav_loss")
        return total, policy_loss, value_loss

    def _uav_loss_list(self, batch: list[UAVSample], actions: np.ndarray,
                       old_logp: np.ndarray, adv: np.ndarray,
                       old_value: np.ndarray, ret: np.ndarray
                       ) -> tuple[Tensor, Tensor, Tensor]:
        """Legacy list-based UAV loss for policies without an array forward.

        Same surrogate math as :meth:`_uav_loss_arrays`, but the policy
        consumes observation objects.
        """
        ppo = self.ppo
        dist, value = self.uav_policy([s.observation for s in batch])
        old_logp, adv, old_value, ret = (np.asarray(a, dtype=value.dtype)
                                         for a in (old_logp, adv, old_value, ret))
        logp = dist.log_prob(actions)
        ratio = (logp - Tensor(old_logp)).exp()
        adv_t = Tensor(adv)
        surr1 = ratio * adv_t
        surr2 = ratio.clip(1.0 - ppo.clip_eps, 1.0 + ppo.clip_eps) * adv_t
        policy_loss = -Tensor.minimum(surr1, surr2).mean()

        v_clipped = Tensor(old_value) + (value - Tensor(old_value)).clip(
            -ppo.value_clip, ppo.value_clip)
        value_loss = Tensor.maximum(
            (value - Tensor(ret)) ** 2,
            (v_clipped - Tensor(ret)) ** 2).mean()
        entropy = dist.entropy().mean()

        total = (policy_loss + ppo.value_coef * value_loss
                 - self._entropy_coef * entropy)
        annotate(total, "ippo.uav_loss")
        return total, policy_loss, value_loss

    def _uav_apply(self, total: Tensor, policy_loss: Tensor,
                   value_loss: Tensor) -> tuple[float, float]:
        """Backward + clipped Adam step for one UAV minibatch loss."""
        ppo = self.ppo
        self.uav_optimizer.zero_grad()
        with obs_scope("backward"):
            total.backward()
        with obs_scope("optim"):
            clip_grad_norm(self.uav_optimizer.params, ppo.max_grad_norm)
            self.uav_optimizer.step()
        counter_add("optim/uav_steps")
        pl = policy_loss.item()
        histogram_observe("loss/uav_policy", pl)
        return pl, value_loss.item()

    def update_uav_vec(self, rollout: VecUAVRollout) -> dict[str, float]:
        """Clipped PPO update for the UAV policy from flat array batches."""
        ppo = self.ppo
        flat = rollout.flat_samples(ppo.gamma, ppo.gae_lambda)
        if len(flat) == 0:
            return {"uav_policy_loss": 0.0, "uav_value_loss": 0.0}
        norm_adv = (flat.advantages - flat.advantages.mean()) / (flat.advantages.std() + 1e-8)

        policy_losses, value_losses = [], []
        order = np.arange(len(flat))
        with obs_scope("update/uav"):
            for _ in range(ppo.epochs):
                self.rng.shuffle(order)
                for start in range(0, len(order), ppo.minibatch_size):
                    idxs = order[start:start + ppo.minibatch_size]
                    with self._sanitize():
                        with obs_scope("forward"):
                            losses = self._uav_loss_arrays(
                                *flat.crops(idxs),
                                flat.actions[idxs], flat.log_probs[idxs],
                                norm_adv[idxs], flat.values[idxs],
                                flat.returns[idxs],
                                np.asarray(self._entropy_coef))
                        pl, vl = self._uav_apply(*losses)
                    policy_losses.append(pl)
                    value_losses.append(vl)
        return {"uav_policy_loss": float(np.mean(policy_losses)),
                "uav_value_loss": float(np.mean(value_losses))}

    # ------------------------------------------------------------------
    def update_uav(self, samples: list[UAVSample]) -> dict[str, float]:
        """Clipped PPO update for the (shared) UAV policy."""
        if not samples:
            return {"uav_policy_loss": 0.0, "uav_value_loss": 0.0}
        ppo = self.ppo
        advantages = np.array([s.advantage for s in samples])
        norm_adv = (advantages - advantages.mean()) / (advantages.std() + 1e-8)

        policy_losses, value_losses = [], []
        order = np.arange(len(samples))
        with obs_scope("update/uav"):
            for _ in range(ppo.epochs):
                self.rng.shuffle(order)
                for start in range(0, len(order), ppo.minibatch_size):
                    idxs = order[start:start + ppo.minibatch_size]
                    batch = [samples[i] for i in idxs]
                    with self._sanitize():
                        with obs_scope("forward"):
                            # Ragged per-sample fields gathered once per
                            # minibatch (list-based legacy update path).
                            actions = np.stack([s.action for s in batch])
                            old_logp = np.array([s.log_prob for s in batch])
                            ret = np.array([s.ret for s in batch])
                            old_value = np.array([s.value for s in batch])
                            # UAVPolicy.forward is exactly stack +
                            # forward_arrays, so the shared array step
                            # applies; duck-typed policies without the
                            # array forward keep the list-based loss.
                            if hasattr(self.uav_policy, "forward_arrays"):
                                obs = [s.observation for s in batch]
                                grids = np.stack([o.grid for o in obs])
                                aux = np.stack([o.aux for o in obs])
                                losses = self._uav_loss_arrays(
                                    grids, aux, actions, old_logp,
                                    norm_adv[idxs], old_value, ret,
                                    np.asarray(self._entropy_coef))
                            else:
                                losses = self._uav_loss_list(
                                    batch, actions, old_logp,
                                    norm_adv[idxs], old_value, ret)
                        pl, vl = self._uav_apply(*losses)
                    policy_losses.append(pl)
                    value_losses.append(vl)
        return {"uav_policy_loss": float(np.mean(policy_losses)),
                "uav_value_loss": float(np.mean(value_losses))}

    # ------------------------------------------------------------------
    def train(self, iterations: int, episodes_per_iteration: int = 1,
              callback=None, num_envs: int = 1,
              total_iterations: int | None = None,
              num_workers: int = 1) -> list[TrainRecord]:
        """Run M training iterations (Algorithm 1's outer loop).

        With vectorization-capable policies (:meth:`supports_vectorized`)
        every iteration runs the batched pipeline at any ``num_envs``,
        the default 1 included: K env replicas step in lock-step with
        batched policy forwards and array-backed rollouts, each
        iteration gathers ``num_envs * episodes_per_iteration`` episodes,
        and the UGV update makes one batched forward per minibatch.  At
        K=1 the single replica is ``self.env`` itself.  Stateful policies
        (IC3Net) fall back to the per-sample path (:meth:`collect`,
        :meth:`update_ugv`, :meth:`update_uav`).  ``num_workers > 1``
        additionally shards the replicas over that many rollout
        processes (see ``docs/parallelism.md``); the sampled streams are
        bitwise-identical for every worker count.

        ``iterations`` counts iterations *to run now*; the trainer's
        persistent counter numbers them globally, so a checkpoint-resumed
        call continues where the interrupted run stopped.
        ``total_iterations`` (default: counter + ``iterations``) anchors
        schedule progress — a resumed run must pass the original planned
        total for lr/entropy schedules to anneal identically.
        """
        if num_workers > num_envs:
            raise ValueError(f"num_workers={num_workers} cannot exceed "
                             f"num_envs={num_envs}")
        use_vec = self.supports_vectorized()
        total = (total_iterations if total_iterations is not None
                 else self._iteration + iterations)
        for _ in range(iterations):
            with obs_scope("iteration"):
                iteration = self._iteration
                progress = iteration / max(1, total - 1)
                if self.lr_schedule is not None:
                    lr = float(self.lr_schedule(progress))
                    self.ugv_optimizer.lr = lr
                    self.uav_optimizer.lr = lr
                    gauge_set("train/lr", lr)
                if self.entropy_schedule is not None:
                    self._entropy_coef = float(self.entropy_schedule(progress))
                    gauge_set("train/entropy_coef", self._entropy_coef)
                losses = {}
                if use_vec:
                    ugv_roll, uav_roll, metrics, ugv_r, uav_r = self.collect_vec(
                        episodes_per_iteration, num_envs, num_workers)
                    losses.update(self.update_ugv_vec(ugv_roll))
                    losses.update(self.update_uav_vec(uav_roll))
                else:
                    ugv_samples, uav_samples, metrics, ugv_r, uav_r = self.collect(
                        episodes_per_iteration)
                    losses.update(self.update_ugv(ugv_samples))
                    losses.update(self.update_uav(uav_samples))
                for policy in (self.ugv_policy, self.uav_policy):
                    post = getattr(policy, "post_update", None)
                    if post is not None:
                        post()
                record = TrainRecord(iteration, metrics.as_dict(), ugv_r,
                                     uav_r, losses)
                self.history.append(record)
                self._iteration += 1
                counter_add("train/iterations")
                if callback is not None:
                    callback(record)
        return self.history

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Full resumable trainer state (everything but the parameters).

        Captured at iteration boundaries: both Adam optimisers (step
        count + moments), the sampling rng stream, the env's rng stream
        (plus each vec-env replica's, when vectorized collection has
        run), the global iteration counter and the current entropy
        coefficient.  Leaves are numpy arrays or JSON-able scalars.
        """
        state: dict = {
            "iteration": int(self._iteration),
            "entropy_coef": float(self._entropy_coef),
            "rng": rng_state(self.rng),
            "ugv_optimizer": self.ugv_optimizer.state_dict(),
            "uav_optimizer": self.uav_optimizer.state_dict(),
            "env_rng": self.env.rng_state(),
        }
        if self._venv is not None:
            # ``num_workers`` records how the interrupted run sharded its
            # replicas (informational — the flat per-replica rng_states
            # are worker-count invariant, so a resume may repartition).
            state["venv"] = {
                "num_envs": int(self._venv.num_envs),
                "num_workers": int(getattr(self._venv, "num_workers", 1)),
                "rng_states": self._venv.rng_states(),
            }
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot captured by :meth:`state_dict`.

        When the snapshot includes vec-env replica streams, the replicas
        are re-materialised and repositioned so a resumed vectorized run
        continues every replica's stream (including unseeded auto-reset
        continuations) exactly where the interrupted run left it.
        """
        self._iteration = int(state["iteration"])
        self._entropy_coef = float(state["entropy_coef"])
        self.rng = rng_from_state(state["rng"])
        self.ugv_optimizer.load_state_dict(state["ugv_optimizer"])
        self.uav_optimizer.load_state_dict(state["uav_optimizer"])
        self.env.set_rng_state(state["env_rng"])
        venv = state.get("venv")
        if venv:
            self._venv = self._get_venv(int(venv["num_envs"]),
                                        int(venv.get("num_workers", 1)))
            self._venv.set_rng_states(venv["rng_states"])

    def close(self) -> None:
        """Release collect-side resources (multi-process rollout workers).

        No-op for the in-process paths; safe to call repeatedly.  Worker
        processes are daemons, so this is hygiene rather than a
        correctness requirement — but an explicit close avoids leaving W
        idle processes around for the rest of a long driver run.  The
        replica rng streams migrate into an in-process vec env first, so
        training can continue after a close without losing determinism.
        """
        if isinstance(self._venv, WorkerVecEnv):
            pool = self._venv
            states = None if pool._closed else pool.rng_states()
            pool.close()
            self._venv = VecAirGroundEnv.from_env(self.env, pool.num_envs)
            if states is not None:
                self._venv.set_rng_states(states)

    def evaluate(self, episodes: int = 1, greedy: bool = True) -> MetricSnapshot:
        """Average metrics over greedy evaluation episodes."""
        totals = np.zeros(4)
        with obs_scope("eval"):
            for _ in range(episodes):
                snap = run_episode(self.env, self.ugv_policy, self.uav_policy,
                                   self.rng, greedy=greedy)
                totals += np.array([snap.psi, snap.xi, snap.zeta, snap.beta])
        psi, xi, zeta, beta = totals / episodes
        return MetricSnapshot(float(psi), float(xi), float(zeta), float(beta))
