"""GARL agent facade: model construction + training + evaluation.

This is the main entry point of the library::

    from repro import AirGroundEnv, EnvConfig, GARLAgent, build_campus

    campus = build_campus("kaist", scale=0.3)
    env = AirGroundEnv(campus, EnvConfig(num_ugvs=4, num_uavs_per_ugv=2))
    agent = GARLAgent(env)
    agent.train(iterations=10)
    print(agent.evaluate())
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..env.airground import AirGroundEnv
from ..env.metrics import MetricSnapshot
from ..nn import load_checkpoint, save_checkpoint
from ..obs.scope import scope as obs_scope
from .config import GARLConfig
from .ippo import IPPOTrainer, TrainRecord, run_episode
from .policies import UAVPolicy, UGVPolicy

__all__ = ["GARLAgent"]


class GARLAgent:
    """The full GARL system (MC-GCN + E-Comm + IPPO) bound to an env.

    Table III ablations are a constructor flag away::

        GARLAgent(env, GARLConfig(use_mc_gcn=False))          # "w/o MC"
        GARLAgent(env, GARLConfig(use_ecomm=False))           # "w/o E"
        GARLAgent(env, GARLConfig(use_mc_gcn=False, use_ecomm=False))
    """

    name = "GARL"

    def __init__(self, env: AirGroundEnv, config: GARLConfig | None = None,
                 detect_anomaly: bool = False):
        self.env = env
        self.config = config or GARLConfig()
        rng = np.random.default_rng(self.config.seed)
        self.ugv_policy = UGVPolicy(env.stops, self.config, rng=rng)
        self.uav_policy = UAVPolicy(env.config.uav_obs_size, self.config, rng=rng)
        self.trainer = IPPOTrainer(env, self.ugv_policy, self.uav_policy,
                                   self.config.ppo, seed=self.config.seed,
                                   detect_anomaly=detect_anomaly)

    # ------------------------------------------------------------------
    def train(self, iterations: int, episodes_per_iteration: int = 1,
              callback=None, num_envs: int = 1,
              total_iterations: int | None = None) -> list[TrainRecord]:
        """Run the Algorithm-1 training loop for ``iterations`` rounds.

        ``num_envs > 1`` collects each iteration's episodes from that
        many lock-stepped env replicas with batched policy forwards.
        ``total_iterations`` anchors schedule progress across a
        checkpoint/resume split (see :meth:`IPPOTrainer.train`).
        """
        return self.trainer.train(iterations, episodes_per_iteration, callback,
                                  num_envs=num_envs,
                                  total_iterations=total_iterations)

    def evaluate(self, episodes: int = 1, greedy: bool = True) -> MetricSnapshot:
        """Greedy evaluation; returns averaged metric snapshot."""
        return self.trainer.evaluate(episodes, greedy)

    def rollout_trace(self, greedy: bool = True, seed: int | None = None) -> list[dict]:
        """One episode recording per-step positions (the Fig. 7 traces)."""
        trace: list[dict] = []
        rng = np.random.default_rng(seed if seed is not None else self.config.seed)
        if seed is not None:
            self.env.reset(seed)
        with obs_scope("trace"):
            run_episode(self.env, self.ugv_policy, self.uav_policy, rng,
                        greedy=greedy, trace=trace)
        return trace

    # ------------------------------------------------------------------
    def save(self, directory: str | Path) -> None:
        """Persist both policies under ``directory``."""
        directory = Path(directory)
        meta = {"config": {"hidden_dim": self.config.hidden_dim,
                           "mc_gcn_layers": self.config.mc_gcn_layers,
                           "ecomm_layers": self.config.ecomm_layers,
                           "use_mc_gcn": self.config.use_mc_gcn,
                           "use_ecomm": self.config.use_ecomm}}
        save_checkpoint(self.ugv_policy, directory / "ugv_policy.npz", meta)
        save_checkpoint(self.uav_policy, directory / "uav_policy.npz", meta)

    def load(self, directory: str | Path) -> None:
        """Load both policies from a :meth:`save` directory (weights only)."""
        directory = Path(directory)
        load_checkpoint(self.ugv_policy, directory / "ugv_policy.npz")
        load_checkpoint(self.uav_policy, directory / "uav_policy.npz")

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Full training state: both policies plus the trainer snapshot.

        Everything needed for ``resume ≡ uninterrupted``: parameters,
        Adam moments/steps, all rng streams and the iteration counter.
        Leaves are numpy arrays or JSON-able scalars (see
        ``repro.experiments.checkpoint`` for the on-disk format).
        """
        return {"ugv_policy": self.ugv_policy.state_dict(),
                "uav_policy": self.uav_policy.state_dict(),
                "trainer": self.trainer.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (validates names/shapes)."""
        from ..nn import validate_state_dict

        validate_state_dict(self.ugv_policy, state["ugv_policy"], "ugv_policy state")
        validate_state_dict(self.uav_policy, state["uav_policy"], "uav_policy state")
        self.ugv_policy.load_state_dict(state["ugv_policy"])
        self.uav_policy.load_state_dict(state["uav_policy"])
        self.trainer.load_state_dict(state["trainer"])
