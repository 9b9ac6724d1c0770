"""MADDPG baseline [36]: centralized critics + deterministic actors + replay.

Differences from the IPPO family, matching the original method:

* off-policy learning from a replay buffer with soft-updated targets;
* deterministic actors — Gumbel-softmax for the discrete UGV head,
  additive Gaussian noise for the continuous UAV head;
* centralized UGV critics conditioned on all agents' observations and
  actions (the CTDE arrangement).

Two documented simplifications keep the reproduction tractable: UGV
transitions are recorded option-style (decision point to next decision
point, accumulating the in-between window rewards), and the UAV critic is
decentralized DDPG-style since UAV populations change as flights end.
The paper attributes MADDPG's weakness to deterministic exploration,
which both simplifications leave intact.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path

import numpy as np

from ..core.config import GARLConfig
from ..env.airground import AirGroundEnv
from ..env.metrics import MetricSnapshot
from ..nn import MLP, Adam, Module, Tensor, no_grad
from ..nn import functional as F

__all__ = ["MADDPGAgent"]


def _gumbel(rng: np.random.Generator, shape) -> np.ndarray:
    u = rng.uniform(1e-9, 1.0 - 1e-9, size=shape)
    return -np.log(-np.log(u))


class _UGVActor(Module):
    def __init__(self, obs_dim: int, action_dim: int, dim: int, rng):
        super().__init__()
        self.net = MLP([obs_dim, 2 * dim, dim, action_dim], rng=rng, final_gain=0.01)
        # Same release prior as the IPPO-based policies (see
        # repro.core.policies.RELEASE_BIAS): the release action is the
        # last logit, and without a prior the deterministic argmax almost
        # never flies the UAVs early on.
        from ..core.policies import RELEASE_BIAS
        from ..nn import Linear

        last = [m for m in self.net.modules() if isinstance(m, Linear)][-1]
        last.bias.data[-1] = RELEASE_BIAS  # reprolint: disable=RL001

    def forward(self, obs: Tensor) -> Tensor:
        return self.net(obs)


class _UAVActor(Module):
    def __init__(self, obs_dim: int, dim: int, rng):
        super().__init__()
        self.net = MLP([obs_dim, dim, dim, 2], rng=rng, final_gain=0.01)

    def forward(self, obs: Tensor) -> Tensor:
        return self.net(obs).tanh()


class _ActorPolicyAdapter(Module):
    """Expose the deterministic UGV actor through the standard policy
    interface (masked logits + values), for tooling that benchmarks or
    traces any method uniformly."""

    def __init__(self, actor: _UGVActor):
        super().__init__()
        self.actor = actor

    def forward(self, observations):
        from ..core.policies import UGVPolicyOutput

        flats = np.stack([o.flat() for o in observations])
        logits = self.actor(Tensor(flats))
        masks = np.stack([o.action_mask for o in observations])
        masked = logits + Tensor(np.where(masks, 0.0, -1e9))
        return UGVPolicyOutput(masked, Tensor(np.zeros(len(observations))))


class _Critic(Module):
    def __init__(self, in_dim: int, dim: int, rng):
        super().__init__()
        self.net = MLP([in_dim, 2 * dim, dim, 1], rng=rng, final_gain=1.0)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x).squeeze(-1)


def _soft_update(target: Module, source: Module, tau: float) -> None:
    src = dict(source.named_parameters())
    for name, param in target.named_parameters():
        param.data = (1.0 - tau) * param.data + tau * src[name].data  # reprolint: disable=RL001


class MADDPGAgent:
    """MADDPG driver with the same facade as the IPPO-based agents."""

    name = "MADDPG"

    def __init__(self, env: AirGroundEnv, config: GARLConfig | None = None,
                 buffer_size: int = 20000, batch_size: int = 64,
                 tau: float = 0.01, gumbel_tau: float = 1.0,
                 exploration_eps: float = 0.2, noise_std: float = 0.3):
        self.env = env
        self.config = config or GARLConfig()
        cfg = env.config
        self.rng = np.random.default_rng(self.config.seed)
        rng = np.random.default_rng(self.config.seed)
        dim = self.config.hidden_dim

        self.obs_dim = env.num_stops * 3 + cfg.num_ugvs * 2
        self.action_dim = env.ugv_action_dim
        self.num_ugvs = cfg.num_ugvs
        self.uav_obs_dim = 3 * cfg.uav_obs_size**2 + 5

        self.ugv_actor = _UGVActor(self.obs_dim, self.action_dim, dim, rng)
        self.ugv_policy = _ActorPolicyAdapter(self.ugv_actor)
        self.ugv_actor_target = _UGVActor(self.obs_dim, self.action_dim, dim, rng)
        self.ugv_actor_target.load_state_dict(self.ugv_actor.state_dict())
        critic_in = self.num_ugvs * (self.obs_dim + self.action_dim) + self.num_ugvs
        self.ugv_critic = _Critic(critic_in, dim, rng)
        self.ugv_critic_target = _Critic(critic_in, dim, rng)
        self.ugv_critic_target.load_state_dict(self.ugv_critic.state_dict())

        self.uav_actor = _UAVActor(self.uav_obs_dim, dim, rng)
        self.uav_actor_target = _UAVActor(self.uav_obs_dim, dim, rng)
        self.uav_actor_target.load_state_dict(self.uav_actor.state_dict())
        self.uav_critic = _Critic(self.uav_obs_dim + 2, dim, rng)
        self.uav_critic_target = _Critic(self.uav_obs_dim + 2, dim, rng)
        self.uav_critic_target.load_state_dict(self.uav_critic.state_dict())

        lr = self.config.ppo.lr
        self.opt_ugv_actor = Adam(self.ugv_actor.parameters(), lr=lr)
        self.opt_ugv_critic = Adam(self.ugv_critic.parameters(), lr=lr)
        self.opt_uav_actor = Adam(self.uav_actor.parameters(), lr=lr)
        self.opt_uav_critic = Adam(self.uav_critic.parameters(), lr=lr)

        self.ugv_buffer: deque = deque(maxlen=buffer_size)
        self.uav_buffer: deque = deque(maxlen=buffer_size)
        self.batch_size = batch_size
        self.tau = tau
        self.gumbel_tau = gumbel_tau
        self.exploration_eps = exploration_eps
        self.noise_std = noise_std
        self.gamma = self.config.ppo.gamma
        self._agent_eye = np.eye(self.num_ugvs)
        self._iteration = 0

    # ------------------------------------------------------------------
    # Acting
    # ------------------------------------------------------------------
    def _ugv_act(self, observations, explore: bool) -> np.ndarray:
        flats = np.stack([o.flat() for o in observations])
        with no_grad():
            logits = self.ugv_actor(Tensor(flats)).numpy()
        masks = np.stack([o.action_mask for o in observations])
        logits = np.where(masks, logits, -1e9)
        actions = logits.argmax(axis=-1)
        if explore:
            # Per-agent rng draws are order-dependent; vectorizing would
            # change the rng stream and break seeded reproducibility.
            for i in range(len(actions)):
                if self.rng.random() < self.exploration_eps:
                    actions[i] = self.rng.choice(np.nonzero(masks[i])[0])
        return actions

    def _uav_flat(self, obs) -> np.ndarray:
        return np.concatenate([obs.grid.ravel(), obs.aux])

    def _uav_act(self, obs_flat: np.ndarray, explore: bool) -> np.ndarray:
        with no_grad():
            action = self.uav_actor(Tensor(obs_flat[None])).numpy()[0]
        if explore:
            action = np.clip(action + self.rng.normal(0, self.noise_std, 2), -1, 1)
        return action

    # ------------------------------------------------------------------
    # Experience collection
    # ------------------------------------------------------------------
    def _run_episode(self, explore: bool, trace: list | None = None) -> MetricSnapshot:
        env = self.env
        cfg = env.config
        res = env.reset()
        # Option-style pending transitions per UGV.
        pending: dict[int, dict] = {}
        uav_pending: dict[int, dict] = {}
        while True:
            # Baseline-parity path: MADDPG keeps the simple per-step
            # gathers of the reference implementation (O(U) each); only
            # the paper method's rollout is performance-tuned.
            actionable = np.array([not g.is_waiting for g in env.ugvs])
            joint_flat = np.stack([o.flat() for o in res.ugv_observations])
            actions = self._ugv_act(res.ugv_observations, explore)

            for u in range(self.num_ugvs):
                if not actionable[u]:
                    continue
                if u in pending:  # close previous decision now that we act again
                    trans = pending.pop(u)
                    self.ugv_buffer.append({**trans, "next_obs": joint_flat, "done": False})
                pending[u] = {"agent": u, "obs": joint_flat,
                              "actions": actions.copy(), "reward": 0.0}

            uav_actions: list[np.ndarray | None] = [None] * cfg.num_uavs
            for v, o in enumerate(res.uav_observations):
                if o is None:
                    continue
                flat = self._uav_flat(o)
                act = self._uav_act(flat, explore)
                uav_actions[v] = act * cfg.uav_max_step
                if v in uav_pending:
                    t = uav_pending.pop(v)
                    self.uav_buffer.append({**t, "next_obs": flat, "done": False})
                uav_pending[v] = {"obs": flat, "action": act, "reward": 0.0}

            if trace is not None:
                # Trace recording only runs on the visualisation path
                # (trace is None during training).
                trace.append({
                    "t": env.t,
                    "ugv_positions": np.array([g.position for g in env.ugvs]),
                    "uav_positions": np.array([u.position for u in env.uavs]),
                    "uav_airborne": np.array([u.airborne for u in env.uavs]),
                })

            res = env.step(actions, uav_actions)
            for u, trans in pending.items():
                trans["reward"] += float(res.ugv_rewards[u])
            for v, trans in uav_pending.items():
                trans["reward"] += float(res.uav_rewards[v])
                if res.uav_observations[v] is None:  # docked: flight over
                    self.uav_buffer.append({**trans, "next_obs": trans["obs"], "done": True})
            for v in [v for v in uav_pending if res.uav_observations[v] is None]:
                uav_pending.pop(v)

            if res.done:
                # Once per episode, at termination.
                final_flat = np.stack([o.flat() for o in res.ugv_observations])
                for trans in pending.values():
                    self.ugv_buffer.append({**trans, "next_obs": final_flat, "done": True})
                for trans in uav_pending.values():
                    self.uav_buffer.append({**trans, "next_obs": trans["obs"], "done": True})
                break
        return env.metrics()

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def _actions_for(self, actor: Module, obs: np.ndarray, masks_ok: bool = True) -> Tensor:
        """Differentiable Gumbel-softmax action probabilities per agent."""
        u = self.num_ugvs
        logits = actor(Tensor(obs.reshape(-1, self.obs_dim)))
        noise = _gumbel(self.rng, logits.shape)
        return ((logits + Tensor(noise)) / self.gumbel_tau).softmax(axis=-1)

    def _update_ugv(self) -> dict[str, float]:
        if len(self.ugv_buffer) < self.batch_size:
            return {}
        idx = self.rng.choice(len(self.ugv_buffer), self.batch_size, replace=False)
        batch = [self.ugv_buffer[int(i)] for i in idx]
        u = self.num_ugvs
        obs = np.stack([b["obs"] for b in batch])  # (N, U, obs_dim)
        next_obs = np.stack([b["next_obs"] for b in batch])
        rewards = np.array([b["reward"] for b in batch])
        dones = np.array([b["done"] for b in batch], dtype=float)
        agents = np.array([b["agent"] for b in batch])
        action_onehots = np.zeros((len(batch), u, self.action_dim))
        for i, b in enumerate(batch):
            for j, a in enumerate(b["actions"]):
                action_onehots[i, j, a] = 1.0

        onehot_agents = self._agent_eye[agents]

        # Critic target.
        with no_grad():
            next_probs = self._actions_for(self.ugv_actor_target, next_obs)
            next_probs = next_probs.numpy().reshape(len(batch), u, self.action_dim)
            target_in = np.concatenate([
                next_obs.reshape(len(batch), -1),
                next_probs.reshape(len(batch), -1),
                onehot_agents], axis=-1)
            q_next = self.ugv_critic_target(Tensor(target_in)).numpy()
        target = rewards + self.gamma * (1.0 - dones) * q_next

        critic_in = np.concatenate([
            obs.reshape(len(batch), -1),
            action_onehots.reshape(len(batch), -1),
            onehot_agents], axis=-1)
        q = self.ugv_critic(Tensor(critic_in))
        critic_loss = F.mse_loss(q, target)
        self.opt_ugv_critic.zero_grad()
        critic_loss.backward()
        self.opt_ugv_critic.step()

        # Actor: ascend Q with own action replaced by the differentiable one.
        probs = self._actions_for(self.ugv_actor, obs)  # (N*U, A)
        probs = probs.reshape(len(batch), u, self.action_dim)
        fixed = Tensor(action_onehots)
        own_mask = np.zeros((len(batch), u, 1))
        own_mask[np.arange(len(batch)), agents, 0] = 1.0
        mixed = Tensor(1.0 - own_mask) * fixed + Tensor(own_mask) * probs
        actor_in = Tensor.concat([
            Tensor(obs.reshape(len(batch), -1)),
            mixed.reshape(len(batch), -1),
            Tensor(onehot_agents)], axis=-1)
        actor_loss = -self.ugv_critic(actor_in).mean()
        self.opt_ugv_actor.zero_grad()
        actor_loss.backward()
        self.opt_ugv_actor.step()

        _soft_update(self.ugv_critic_target, self.ugv_critic, self.tau)
        _soft_update(self.ugv_actor_target, self.ugv_actor, self.tau)
        return {"maddpg_ugv_critic": float(critic_loss.item()),
                "maddpg_ugv_actor": float(actor_loss.item())}

    def _update_uav(self) -> dict[str, float]:
        if len(self.uav_buffer) < self.batch_size:
            return {}
        idx = self.rng.choice(len(self.uav_buffer), self.batch_size, replace=False)
        batch = [self.uav_buffer[int(i)] for i in idx]
        obs = np.stack([b["obs"] for b in batch])
        next_obs = np.stack([b["next_obs"] for b in batch])
        actions = np.stack([b["action"] for b in batch])
        rewards = np.array([b["reward"] for b in batch])
        dones = np.array([b["done"] for b in batch], dtype=float)

        with no_grad():
            next_actions = self.uav_actor_target(Tensor(next_obs)).numpy()
            q_next = self.uav_critic_target(
                Tensor(np.concatenate([next_obs, next_actions], axis=-1))).numpy()
        target = rewards + self.gamma * (1.0 - dones) * q_next

        q = self.uav_critic(Tensor(np.concatenate([obs, actions], axis=-1)))
        critic_loss = F.mse_loss(q, target)
        self.opt_uav_critic.zero_grad()
        critic_loss.backward()
        self.opt_uav_critic.step()

        pred_actions = self.uav_actor(Tensor(obs))
        actor_in = Tensor.concat([Tensor(obs), pred_actions], axis=-1)
        actor_loss = -self.uav_critic(actor_in).mean()
        self.opt_uav_actor.zero_grad()
        actor_loss.backward()
        self.opt_uav_actor.step()

        _soft_update(self.uav_critic_target, self.uav_critic, self.tau)
        _soft_update(self.uav_actor_target, self.uav_actor, self.tau)
        return {"maddpg_uav_critic": float(critic_loss.item()),
                "maddpg_uav_actor": float(actor_loss.item())}

    # ------------------------------------------------------------------
    # Facade
    # ------------------------------------------------------------------
    def train(self, iterations: int, episodes_per_iteration: int = 1,
              callback=None, updates_per_iteration: int = 8,
              total_iterations: int | None = None) -> list[dict]:
        history = []
        for _ in range(iterations):
            iteration = self._iteration
            metrics = None
            for _ in range(episodes_per_iteration):
                metrics = self._run_episode(explore=True)
            losses: dict[str, float] = {}
            for _ in range(updates_per_iteration):
                losses.update(self._update_ugv())
                losses.update(self._update_uav())
            record = {"iteration": iteration, "metrics": metrics.as_dict(), "losses": losses}
            history.append(record)
            self._iteration += 1
            if callback is not None:
                callback(record)
        return history

    def evaluate(self, episodes: int = 1, greedy: bool = True) -> MetricSnapshot:
        totals = np.zeros(4)
        for _ in range(episodes):
            snap = self._run_episode(explore=not greedy)
            totals += np.array([snap.psi, snap.xi, snap.zeta, snap.beta])
        psi, xi, zeta, beta = totals / episodes
        return MetricSnapshot(float(psi), float(xi), float(zeta), float(beta))

    def rollout_trace(self, greedy: bool = True, seed: int | None = None) -> list[dict]:
        trace: list[dict] = []
        if seed is not None:
            self.env.reset(seed)
        self._run_episode(explore=not greedy, trace=trace)
        return trace

    def save(self, directory: str | Path) -> None:
        from ..nn import save_checkpoint
        directory = Path(directory)
        save_checkpoint(self.ugv_actor, directory / "ugv_actor.npz", {"name": self.name})
        save_checkpoint(self.uav_actor, directory / "uav_actor.npz", {"name": self.name})

    def load(self, directory: str | Path) -> None:
        from ..nn import load_checkpoint
        directory = Path(directory)
        load_checkpoint(self.ugv_actor, directory / "ugv_actor.npz")
        load_checkpoint(self.uav_actor, directory / "uav_actor.npz")

    # ------------------------------------------------------------------
    # Full training state (checkpoint/resume)
    # ------------------------------------------------------------------
    _MODULE_ATTRS = ("ugv_actor", "ugv_actor_target", "ugv_critic",
                     "ugv_critic_target", "uav_actor", "uav_actor_target",
                     "uav_critic", "uav_critic_target")
    _OPT_ATTRS = ("opt_ugv_actor", "opt_ugv_critic", "opt_uav_actor",
                  "opt_uav_critic")
    _UGV_BUFFER_KEYS = ("agent", "obs", "actions", "reward", "next_obs", "done")
    _UAV_BUFFER_KEYS = ("obs", "action", "reward", "next_obs", "done")

    @staticmethod
    def _buffer_state(buffer: deque, keys: tuple[str, ...]) -> dict:
        """Replay deque -> per-field stacked arrays (entries are uniform)."""
        state: dict = {"size": len(buffer)}
        for key in keys:
            if buffer:
                # Checkpoint serialisation path, not per-step cost.
                state[key] = np.stack([np.asarray(entry[key]) for entry in buffer])
        return state

    @staticmethod
    def _buffer_from_state(state: dict, keys: tuple[str, ...], maxlen: int) -> deque:
        size = int(state["size"])
        entries = []
        for i in range(size):
            entry = {}
            for key in keys:
                value = np.asarray(state[key])[i]
                if key == "reward":
                    entry[key] = float(value)
                elif key == "done":
                    entry[key] = bool(value)
                elif key == "agent":
                    entry[key] = int(value)
                else:
                    entry[key] = value
            entries.append(entry)
        return deque(entries, maxlen=maxlen)

    def state_dict(self) -> dict:
        """Everything a resumed MADDPG run needs for bit-identical
        continuation: actors/critics and their targets, all four Adam
        states, both replay buffers, and the exploration/env rng streams.
        """
        from ..nn import rng_state

        return {
            "iteration": int(self._iteration),
            "rng": rng_state(self.rng),
            "env_rng": self.env.rng_state(),
            "modules": {name: getattr(self, name).state_dict()
                        for name in self._MODULE_ATTRS},
            "optimizers": {name: getattr(self, name).state_dict()
                           for name in self._OPT_ATTRS},
            "ugv_buffer": self._buffer_state(self.ugv_buffer, self._UGV_BUFFER_KEYS),
            "uav_buffer": self._buffer_state(self.uav_buffer, self._UAV_BUFFER_KEYS),
        }

    def load_state_dict(self, state: dict) -> None:
        from ..nn import rng_from_state, validate_state_dict

        for name in self._MODULE_ATTRS:
            validate_state_dict(getattr(self, name), state["modules"][name],
                                f"{name} state")
        for name in self._MODULE_ATTRS:
            getattr(self, name).load_state_dict(state["modules"][name])
        for name in self._OPT_ATTRS:
            getattr(self, name).load_state_dict(state["optimizers"][name])
        self._iteration = int(state["iteration"])
        self.rng = rng_from_state(state["rng"])
        self.env.set_rng_state(state["env_rng"])
        self.ugv_buffer = self._buffer_from_state(
            state["ugv_buffer"], self._UGV_BUFFER_KEYS, self.ugv_buffer.maxlen)
        self.uav_buffer = self._buffer_from_state(
            state["uav_buffer"], self._UAV_BUFFER_KEYS, self.uav_buffer.maxlen)
