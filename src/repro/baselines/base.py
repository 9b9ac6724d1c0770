"""Shared infrastructure for the eight baselines (Section V-D).

Every baseline UGV policy produces, per agent, a per-stop score vector,
a release logit and a value — exactly the interface GARL's policy exposes
— and plugs into the same :class:`repro.core.IPPOTrainer`.  Performance
differences therefore isolate each method's *architecture*, which is what
the paper's comparison argues about.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..core.config import GARLConfig
from ..core.ippo import IPPOTrainer, TrainRecord, run_episode
from ..core.policies import UAVPolicy, UGVPolicyOutput
from ..env.airground import AirGroundEnv
from ..env.metrics import MetricSnapshot
from ..env.observation import UGVObsArrays, UGVObservation
from ..nn import MLP, Linear, Module, Tensor, load_checkpoint, save_checkpoint

__all__ = ["BatchedUGVPolicyMixin", "NodeScorer", "assemble_output",
           "flat_obs_dim", "PolicyAgent"]


class BatchedUGVPolicyMixin:
    """Adapter giving a sequential UGV policy the batched-forward contract.

    ``forward_batched`` accepts :class:`UGVObsArrays` with a leading
    replica axis and returns stacked ``(P, U, B + 1)`` logits / ``(P, U)``
    values.  The default implementation runs one sequential forward per
    replica — correct for any stateless policy, at unbatched speed; a
    policy with a genuinely vectorized path overrides it (as GARL's
    :class:`repro.core.policies.UGVPolicy` does natively).
    """

    supports_vectorized = True

    def forward_batched(self, obs: UGVObsArrays) -> UGVPolicyOutput:
        outputs = [self(obs.observations(p)) for p in range(obs.lead_shape[0])]
        logits = Tensor.stack([out.logits for out in outputs], axis=0)
        values = Tensor.stack([out.values for out in outputs], axis=0)
        return UGVPolicyOutput(logits, values)


def flat_obs_dim(env: AirGroundEnv) -> int:
    """Dimension of UGVObservation.flat(): B*3 stop features + U*2 positions."""
    return env.num_stops * 3 + env.config.num_ugvs * 2


class NodeScorer(Module):
    """Scores each stop from its raw features conditioned on an agent code.

    ``score_b = MLP([x_b ; cond])`` applied batched over the B stops —
    the common per-stop action head for baselines without an intrinsic
    graph representation.
    """

    def __init__(self, cond_dim: int, rng: np.random.Generator,
                 node_dim: int = 3, hidden: int = 32):
        super().__init__()
        self.net = MLP([node_dim + cond_dim, hidden, 1], rng=rng, final_gain=0.01)

    def forward(self, stop_features: np.ndarray, cond: Tensor) -> Tensor:
        nodes = Tensor(np.asarray(stop_features, dtype=self.dtype))  # (B, 3)
        b = nodes.shape[0]
        cond_rows = cond.reshape(1, -1) + np.zeros((b, cond.shape[-1]))
        return self.net(Tensor.concat([nodes, cond_rows], axis=-1)).squeeze(-1)


def assemble_output(stop_scores: list[Tensor], release_logits: list[Tensor],
                    values: list[Tensor], observations: list[UGVObservation]) -> UGVPolicyOutput:
    """Stack per-agent heads into a masked joint UGVPolicyOutput."""
    rows = []
    for scores, release, obs in zip(stop_scores, release_logits, observations):
        row = Tensor.concat([scores, release.reshape(1)], axis=0)
        rows.append(row + np.where(obs.action_mask, 0.0, -1e9))
    logits = Tensor.stack(rows, axis=0)
    value_vec = Tensor.stack([v.reshape(()) for v in values], axis=0)
    return UGVPolicyOutput(logits, value_vec)


class PolicyAgent:
    """Facade shared by all IPPO-based baselines.

    Subclasses (or the registry) supply a UGV policy module; the UAV side
    always uses the same CNN policy as GARL, matching the paper's setup
    where baselines differ in UGV spatial modelling / communication.
    """

    name = "baseline"

    def __init__(self, env: AirGroundEnv, ugv_policy: Module,
                 config: GARLConfig | None = None):
        self.env = env
        self.config = config or GARLConfig()
        rng = np.random.default_rng(self.config.seed)
        self.ugv_policy = ugv_policy
        self.uav_policy = UAVPolicy(env.config.uav_obs_size, self.config, rng=rng)
        self.trainer = IPPOTrainer(env, self.ugv_policy, self.uav_policy,
                                   self.config.ppo, seed=self.config.seed)

    def train(self, iterations: int, episodes_per_iteration: int = 1,
              callback=None, num_envs: int = 1,
              total_iterations: int | None = None) -> list[TrainRecord]:
        return self.trainer.train(iterations, episodes_per_iteration, callback,
                                  num_envs=num_envs,
                                  total_iterations=total_iterations)

    def evaluate(self, episodes: int = 1, greedy: bool = True) -> MetricSnapshot:
        return self.trainer.evaluate(episodes, greedy)

    def rollout_trace(self, greedy: bool = True, seed: int | None = None) -> list[dict]:
        trace: list[dict] = []
        rng = np.random.default_rng(seed if seed is not None else self.config.seed)
        if seed is not None:
            self.env.reset(seed)
        run_episode(self.env, self.ugv_policy, self.uav_policy, rng,
                    greedy=greedy, trace=trace)
        return trace

    def save(self, directory: str | Path) -> None:
        directory = Path(directory)
        save_checkpoint(self.ugv_policy, directory / "ugv_policy.npz", {"name": self.name})
        save_checkpoint(self.uav_policy, directory / "uav_policy.npz", {"name": self.name})

    def load(self, directory: str | Path) -> None:
        directory = Path(directory)
        load_checkpoint(self.ugv_policy, directory / "ugv_policy.npz")
        load_checkpoint(self.uav_policy, directory / "uav_policy.npz")

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Full training state (parameters + trainer snapshot).

        Policies exposing ``get_extra_state`` (IC3Net's recurrent core)
        contribute their non-parameter state too.
        """
        state = {"ugv_policy": self.ugv_policy.state_dict(),
                 "uav_policy": self.uav_policy.state_dict(),
                 "trainer": self.trainer.state_dict()}
        extra_fn = getattr(self.ugv_policy, "get_extra_state", None)
        if extra_fn is not None:
            state["ugv_policy_extra"] = extra_fn()
        return state

    def load_state_dict(self, state: dict) -> None:
        from ..nn import validate_state_dict

        validate_state_dict(self.ugv_policy, state["ugv_policy"], "ugv_policy state")
        validate_state_dict(self.uav_policy, state["uav_policy"], "uav_policy state")
        self.ugv_policy.load_state_dict(state["ugv_policy"])
        self.uav_policy.load_state_dict(state["uav_policy"])
        self.trainer.load_state_dict(state["trainer"])
        set_extra = getattr(self.ugv_policy, "set_extra_state", None)
        if set_extra is not None:
            set_extra(state.get("ugv_policy_extra") or {})
