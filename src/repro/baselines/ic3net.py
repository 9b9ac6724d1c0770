"""IC3Net baseline [15]: individualized LSTM policies with gated comm.

Each agent runs an LSTM over time; a learned binary-ish gate decides when
to communicate, and the communication vector is the gated mean of the
other agents' hidden states.  The recurrent state advances during rollout
and is *replayed from cache* during PPO updates (stored-state training, a
standard recurrent-PPO arrangement): observation lists are reused by
identity between rollout and update, so the incoming state is looked up
by ``id()``.
"""

from __future__ import annotations

import numpy as np

from ..core.config import GARLConfig
from ..core.policies import UGVPolicyOutput, bias_release_head
from ..env.airground import AirGroundEnv
from ..nn import MLP, Linear, LSTMCell, Module, Tensor
from .base import NodeScorer, PolicyAgent, assemble_output, flat_obs_dim

__all__ = ["IC3NetUGVPolicy", "IC3NetAgent"]


class IC3NetUGVPolicy(Module):
    """Encoder -> gated mean communication -> LSTM core -> heads."""

    # The recurrent state advances with each rollout step and replays by
    # observation-list identity, so replica-interleaved (vectorized)
    # collection would corrupt it; the trainer falls back to sequential.
    supports_vectorized = False

    def __init__(self, obs_dim: int, config: GARLConfig,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(config.seed)
        dim = config.hidden_dim
        self.dim = dim
        self.encoder = MLP([obs_dim, 2 * dim, dim], rng=rng, final_gain=1.0)
        self.gate = Linear(dim, 1, rng=rng)
        self.lstm = LSTMCell(2 * dim, dim, rng=rng)
        self.node_scorer = NodeScorer(dim, rng, hidden=dim)
        self.release_head = MLP([dim, dim, 1], rng=rng, final_gain=0.01)
        bias_release_head(self.release_head)
        self.value_head = MLP([dim, dim, 1], rng=rng, final_gain=1.0)
        self._state: tuple[Tensor, Tensor] | None = None
        self._state_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def begin_episode(self) -> None:
        """Reset the recurrent state at the start of each episode."""
        self._state = None

    def post_update(self) -> None:
        """Drop cached incoming states once an update cycle finishes."""
        self._state_cache.clear()

    # -- checkpointing --------------------------------------------------
    def get_extra_state(self) -> dict:
        """Non-parameter recurrent state for full-training checkpoints.

        At iteration boundaries the replay cache is empty (cleared by
        :meth:`post_update`), so only the carried LSTM state needs
        capturing; ``begin_episode`` resets it at the next episode start,
        but capturing it keeps mid-episode snapshots honest too.
        """
        if self._state is None:
            return {}
        h, c = self._state
        return {"h": h.numpy().copy(), "c": c.numpy().copy()}

    def set_extra_state(self, extra: dict) -> None:
        if extra:
            self._state = (Tensor(np.asarray(extra["h"], dtype=self.dtype)),
                           Tensor(np.asarray(extra["c"], dtype=self.dtype)))
        else:
            self._state = None
        self._state_cache.clear()

    def _incoming_state(self, observations) -> tuple[Tensor, Tensor]:
        key = id(observations)
        if key in self._state_cache:
            h, c = self._state_cache[key]
            return Tensor(h), Tensor(c)
        if self._state is None:
            self._state = self.lstm.init_state(len(observations))
        # Record the (detached) incoming state for later replay.
        h, c = self._state
        self._state_cache[key] = (h.numpy().copy(), c.numpy().copy())
        return Tensor(h.numpy().copy()), Tensor(c.numpy().copy())

    def forward(self, observations) -> UGVPolicyOutput:
        u = len(observations)
        flats = np.stack([obs.flat() for obs in observations])
        encoded = self.encoder(Tensor(flats.astype(self.dtype))).tanh()  # (U, D)

        h_in, c_in = self._incoming_state(observations)

        # Gated mean communication from the other agents' hidden states.
        gates = self.gate(h_in).sigmoid()  # (U, 1)
        gated = gates * h_in  # (U, D)
        if u > 1:
            total = gated.sum(axis=0, keepdims=True)
            comm = (total - gated) / float(u - 1)
        else:
            comm = Tensor(np.zeros_like(gated.data))

        core_in = Tensor.concat([encoded, comm], axis=-1)
        h_out, state = self.lstm(core_in, (h_in, c_in))
        # Advance live rollout state (detached; replay uses the cache).
        self._state = (Tensor(state[0].numpy().copy()), Tensor(state[1].numpy().copy()))

        scores, releases, values = [], [], []
        for i, obs in enumerate(observations):
            scores.append(self.node_scorer(obs.stop_features, h_out[i]))
            releases.append(self.release_head(h_out[i]).squeeze(-1))
            values.append(self.value_head(h_out[i]).squeeze(-1))
        return assemble_output(scores, releases, values, observations)


class IC3NetAgent(PolicyAgent):
    name = "IC3Net"

    def __init__(self, env: AirGroundEnv, config: GARLConfig | None = None):
        config = config or GARLConfig()
        rng = np.random.default_rng(config.seed)
        super().__init__(env, IC3NetUGVPolicy(flat_obs_dim(env), config, rng=rng), config)
