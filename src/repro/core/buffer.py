"""Rollout storage for IPPO training (the D^u / D^v buffers of Algorithm 1).

Two families coexist:

* ``UGVRollout``/``UAVRollout`` — the original per-episode list/dataclass
  storage used by the per-sample path (the stateful-policy fallback,
  and tests' semantic reference).
* ``VecUGVRollout``/``VecUAVRollout`` — preallocated ``(K, T, ...)``
  arrays filled by the vectorized rollout driver, with GAE vectorized
  over all replica/agent streams at once and flat index views for
  minibatched PPO updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..env.observation import UAVObservation, UAVObsArrays, UGVObservation, UGVObsArrays
from .gae import compute_gae, compute_gae_batch

__all__ = ["UGVRollout", "UAVRollout", "UGVSample", "UAVSample",
           "VecUGVRollout", "VecUAVRollout", "UGVFlatBatch", "UAVFlatBatch"]


@dataclass
class UGVSample:
    """One trainable (timestep, agent) pair for the UGV policy.

    ``joint_observations`` is the full per-UGV observation list of that
    timestep — the coupled GARL forward pass re-runs on it during PPO
    updates.  ``episode``/``t`` identify the timestep explicitly, so
    trainers group samples by ``(episode, t)`` to forward each distinct
    timestep exactly once (list identity is not load-bearing).
    """

    joint_observations: list[UGVObservation]
    agent: int
    action: int
    log_prob: float
    value: float
    advantage: float = 0.0
    ret: float = 0.0
    episode: int = 0
    t: int = 0


@dataclass
class UAVSample:
    """One trainable airborne transition for the UAV policy."""

    observation: UAVObservation
    action: np.ndarray
    log_prob: float
    value: float
    advantage: float = 0.0
    ret: float = 0.0


@dataclass
class UGVRollout:
    """Episode storage for all UGVs.

    ``observations[t]`` is the joint list of per-UGV observations, which
    the coupled GARL forward pass needs in full.  Waiting UGVs do not act
    and contribute no policy-loss samples, but their rewards still flow
    into the GAE stream so release decisions are credited correctly.
    """

    num_agents: int
    observations: list[list[UGVObservation]] = field(default_factory=list)
    actions: list[np.ndarray] = field(default_factory=list)
    log_probs: list[np.ndarray] = field(default_factory=list)
    values: list[np.ndarray] = field(default_factory=list)
    rewards: list[np.ndarray] = field(default_factory=list)
    actionable: list[np.ndarray] = field(default_factory=list)
    dones: list[bool] = field(default_factory=list)

    def add(self, obs, actions, log_probs, values, rewards, actionable, done) -> None:
        self.observations.append(obs)
        self.actions.append(np.asarray(actions, dtype=int))
        self.log_probs.append(np.asarray(log_probs, dtype=float))
        self.values.append(np.asarray(values, dtype=float))
        self.rewards.append(np.asarray(rewards, dtype=float))
        self.actionable.append(np.asarray(actionable, dtype=bool))
        self.dones.append(bool(done))

    def __len__(self) -> int:
        return len(self.observations)

    def build_samples(self, gamma: float, lam: float, episode: int = 0) -> list[UGVSample]:
        """Run GAE per agent and emit samples for actionable steps only.

        ``episode`` tags every sample so multi-episode collects keep
        timestep groups from different episodes distinct.
        """
        samples: list[UGVSample] = []
        rewards = np.asarray(self.rewards)  # (T, U)
        values = np.asarray(self.values)
        dones = np.asarray(self.dones)
        # Builds per-timestep Python sample objects (the minibatch unit),
        # so the element access is the point, not an accident; runs once
        # per iteration at sample-build time.
        for agent in range(self.num_agents):
            adv, ret = compute_gae(rewards[:, agent], values[:, agent], dones, gamma, lam)
            for t in range(len(self)):
                if not self.actionable[t][agent]:
                    continue
                samples.append(UGVSample(
                    joint_observations=self.observations[t], agent=agent,
                    action=int(self.actions[t][agent]),
                    log_prob=float(self.log_probs[t][agent]),
                    value=float(values[t, agent]),
                    advantage=float(adv[t]), ret=float(ret[t]),
                    episode=episode, t=t))
        return samples


@dataclass
class UAVRollout:
    """Per-UAV flight segments.

    Each UAV's airborne transitions form contiguous segments terminated
    by docking; GAE treats each segment as its own (finished) trajectory.
    """

    num_agents: int
    _segments: list[list[dict]] = field(default_factory=list)
    _open: dict[int, list[dict]] = field(default_factory=dict)

    def add(self, agent: int, observation: UAVObservation, action: np.ndarray,
            log_prob: float, value: float, reward: float) -> None:
        self._open.setdefault(agent, []).append({
            "obs": observation, "action": np.asarray(action, dtype=float),
            "logp": float(log_prob), "value": float(value), "reward": float(reward),
        })

    def close_flight(self, agent: int) -> None:
        """Seal the agent's current flight segment (on docking)."""
        seg = self._open.pop(agent, None)
        if seg:
            self._segments.append(seg)

    def close_all(self) -> None:
        for agent in list(self._open):
            self.close_flight(agent)

    @property
    def num_transitions(self) -> int:
        return sum(len(s) for s in self._segments) + sum(len(s) for s in self._open.values())

    def build_samples(self, gamma: float, lam: float) -> list[UAVSample]:
        self.close_all()
        samples: list[UAVSample] = []
        for segment in self._segments:
            # Per-flight-segment GAE arrays, built once per training
            # iteration (segments are ragged, so no shared buffer fits).
            rewards = np.array([step["reward"] for step in segment])
            values = np.array([step["value"] for step in segment])
            dones = np.zeros(len(segment), dtype=bool)
            dones[-1] = True  # docking ends the decision sequence
            adv, ret = compute_gae(rewards, values, dones, gamma, lam)
            for i, step in enumerate(segment):
                samples.append(UAVSample(
                    observation=step["obs"], action=step["action"],
                    log_prob=step["logp"], value=step["value"],
                    advantage=float(adv[i]), ret=float(ret[i])))
        return samples


# ----------------------------------------------------------------------
# Array-backed vectorized rollouts
# ----------------------------------------------------------------------
@dataclass
class UGVFlatBatch:
    """Flat index view over a VecUGVRollout's actionable (env, t, agent) rows.

    ``env``/``t``/``agent`` index back into the rollout arrays; PPO
    minibatches gather observation slices through them (one batched
    forward per set of unique ``(env, t)`` pairs).
    """

    obs: UGVObsArrays  # the rollout's (K, T, U, ...) arrays, by reference
    horizon: int
    env: np.ndarray  # (N,) int
    t: np.ndarray  # (N,) int
    agent: np.ndarray  # (N,) int
    actions: np.ndarray  # (N,) int
    log_probs: np.ndarray  # (N,)
    values: np.ndarray  # (N,)
    advantages: np.ndarray  # (N,)
    returns: np.ndarray  # (N,)

    def __len__(self) -> int:
        return len(self.env)


@dataclass
class UAVFlatBatch:
    """Flat index view over a VecUAVRollout's airborne (env, t, uav) rows.

    The crops stay in the rollout's dense storage, one copy each:
    :meth:`crops` gathers a minibatch's rows straight from it.
    """

    obs: UAVObsArrays  # the rollout's (K, T, V, ...) arrays, by reference
    env: np.ndarray  # (N,) int
    t: np.ndarray  # (N,) int
    uav: np.ndarray  # (N,) int
    actions: np.ndarray  # (N, 2)
    log_probs: np.ndarray  # (N,)
    values: np.ndarray  # (N,)
    advantages: np.ndarray  # (N,)
    returns: np.ndarray  # (N,)

    def __len__(self) -> int:
        return len(self.log_probs)

    def crops(self, idxs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ``(grids, aux)`` of rows ``idxs``: ``(n, 3, S, S)`` and
        ``(n, 5)``, byte-equal to indexing a full flat gather by ``idxs``."""
        rows = (self.env[idxs], self.t[idxs], self.uav[idxs])
        return self.obs.grid[rows], self.obs.aux[rows]


class VecUGVRollout:
    """Preallocated ``(K, T, ...)`` UGV rollout storage.

    Waiting UGVs contribute rewards to the GAE streams but no policy-loss
    rows, mirroring :class:`UGVRollout`; episode boundaries inside the
    horizon carry per-step ``dones`` (auto-reset makes T span several
    episodes when collecting more than one per replica).
    """

    def __init__(self, num_envs: int, horizon: int, num_agents: int, num_stops: int):
        self.num_envs = num_envs
        self.horizon = horizon
        self.num_agents = num_agents
        self.obs = UGVObsArrays.allocate((num_envs, horizon), num_agents, num_stops)
        self.actions = np.zeros((num_envs, horizon, num_agents), dtype=np.int64)
        self.log_probs = np.zeros((num_envs, horizon, num_agents))
        self.values = np.zeros((num_envs, horizon, num_agents))
        self.rewards = np.zeros((num_envs, horizon, num_agents))
        self.actionable = np.zeros((num_envs, horizon, num_agents), dtype=bool)
        self.dones = np.zeros((num_envs, horizon), dtype=bool)
        self._cursor = 0
        self._flat: UGVFlatBatch | None = None

    def __len__(self) -> int:
        return self._cursor

    def add(self, obs: UGVObsArrays, actions, log_probs, values, rewards,
            actionable, dones) -> None:
        """Record one vectorized step (pre-step obs, post-step rewards)."""
        t = self._cursor
        if t >= self.horizon:
            raise IndexError("VecUGVRollout is full")
        self.obs.write((slice(None), t), obs)
        self.actions[:, t] = actions
        self.log_probs[:, t] = log_probs
        self.values[:, t] = values
        self.rewards[:, t] = rewards
        self.actionable[:, t] = actionable
        self.dones[:, t] = dones
        self._cursor = t + 1

    def flat_samples(self, gamma: float, lam: float) -> UGVFlatBatch:
        """GAE over all (K, U) streams at once + flat actionable indices.

        Rows are ordered (env, agent, t) — agent-major within a replica —
        which at K=1 is exactly the sample order of
        :meth:`UGVRollout.build_samples`.
        """
        if self._flat is not None:
            return self._flat
        t = self._cursor
        adv, ret = compute_gae_batch(self.rewards[:, :t], self.values[:, :t],
                                     self.dones[:, :t], gamma, lam)
        env_i, agent_i, t_i = np.nonzero(self.actionable[:, :t].transpose(0, 2, 1))
        rows = (env_i, t_i, agent_i)
        self._flat = UGVFlatBatch(
            obs=self.obs, horizon=self.horizon,
            env=env_i, t=t_i, agent=agent_i,
            actions=self.actions[rows], log_probs=self.log_probs[rows],
            values=self.values[rows], advantages=adv[rows], returns=ret[rows])
        return self._flat


class VecUAVRollout:
    """Preallocated ``(K, T, V, ...)`` UAV rollout storage.

    ``valid[k, t, v]`` marks UAV v airborne at decision time;
    ``flight_end`` marks the last decision of a flight (docked next step,
    or the episode ended), which is where the per-flight GAE recursion
    terminates — equivalent to :class:`UAVRollout`'s explicit segments.
    Invalid gaps between flights hold zeros and never leak into valid
    steps: a valid step followed by an invalid one is by construction a
    flight end, so the recursion is already cut there.
    """

    def __init__(self, num_envs: int, horizon: int, num_uavs: int, obs_size: int):
        self.num_envs = num_envs
        self.horizon = horizon
        self.num_uavs = num_uavs
        self.obs = UAVObsArrays.allocate((num_envs, horizon), num_uavs, obs_size)
        self.actions = np.zeros((num_envs, horizon, num_uavs, 2))
        self.log_probs = np.zeros((num_envs, horizon, num_uavs))
        self.values = np.zeros((num_envs, horizon, num_uavs))
        self.rewards = np.zeros((num_envs, horizon, num_uavs))
        self.valid = np.zeros((num_envs, horizon, num_uavs), dtype=bool)
        self.flight_end = np.zeros((num_envs, horizon, num_uavs), dtype=bool)
        self._cursor = 0
        self._flat: UAVFlatBatch | None = None

    def __len__(self) -> int:
        return self._cursor

    @property
    def num_transitions(self) -> int:
        return int(self.valid.sum())

    def add(self, obs: UAVObsArrays, actions, log_probs, values, rewards,
            next_airborne, dones) -> None:
        """Record one vectorized step for all UAVs.

        ``obs.airborne`` is the decision-time validity; ``next_airborne``
        (the post-step observation's flags) and ``dones`` determine flight
        ends.
        """
        t = self._cursor
        if t >= self.horizon:
            raise IndexError("VecUAVRollout is full")
        self.obs.write((slice(None), t), obs)
        valid = obs.airborne
        self.valid[:, t] = valid
        self.actions[:, t] = actions
        self.log_probs[:, t] = log_probs
        self.values[:, t] = values
        self.rewards[:, t] = np.where(valid, rewards, 0.0)
        dones = np.asarray(dones, dtype=bool)
        self.flight_end[:, t] = valid & (~np.asarray(next_airborne, dtype=bool)
                                         | dones[:, None])
        self._cursor = t + 1

    def flat_samples(self, gamma: float, lam: float) -> UAVFlatBatch:
        """Per-flight GAE over all (K, V) streams + flat airborne indices.

        Rows are ordered (env, uav, t); the crops are not copied (see
        :meth:`UAVFlatBatch.crops`).
        """
        if self._flat is not None:
            return self._flat
        t = self._cursor
        values = np.where(self.valid[:, :t], self.values[:, :t], 0.0)
        adv, ret = compute_gae_batch(self.rewards[:, :t], values,
                                     self.flight_end[:, :t], gamma, lam)
        env_i, uav_i, t_i = np.nonzero(self.valid[:, :t].transpose(0, 2, 1))
        rows = (env_i, t_i, uav_i)
        self._flat = UAVFlatBatch(
            obs=self.obs, env=env_i, t=t_i, uav=uav_i,
            actions=self.actions[rows], log_probs=self.log_probs[rows],
            values=self.values[rows], advantages=adv[rows], returns=ret[rows])
        return self._flat
