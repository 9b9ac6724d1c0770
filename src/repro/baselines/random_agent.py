"""Random baseline: uniform actions over the feasible action set."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..core.ippo import run_episode
from ..core.policies import UGVPolicyOutput
from ..env.airground import AirGroundEnv
from ..env.metrics import MetricSnapshot
from ..nn import DiagGaussian, Module, Tensor

__all__ = ["RandomUGVPolicy", "RandomUAVPolicy", "RandomAgent"]


class RandomUGVPolicy(Module):
    """Uniform logits over feasible UGV actions; zero values."""

    def forward(self, observations) -> UGVPolicyOutput:
        rows = [Tensor(np.where(obs.action_mask, 0.0, -1e9).astype(self.dtype))
                for obs in observations]
        logits = Tensor.stack(rows, axis=0)
        values = Tensor(np.zeros(len(observations), dtype=self.dtype))
        return UGVPolicyOutput(logits, values)


class RandomUAVPolicy(Module):
    """Zero-mean unit-ish Gaussian movement in every direction."""

    def forward(self, observations):
        n = len(observations)
        mean = Tensor(np.zeros((n, 2), dtype=self.dtype))
        log_std = Tensor(np.zeros(2, dtype=self.dtype))  # std 1.0 in normalised units
        return DiagGaussian(mean, log_std), Tensor(np.zeros(n, dtype=self.dtype))


class RandomAgent:
    """The "Random" row of the paper's comparison: no learning at all."""

    name = "Random"

    def __init__(self, env: AirGroundEnv, config=None, seed: int = 0):
        self.env = env
        self.ugv_policy = RandomUGVPolicy()
        self.uav_policy = RandomUAVPolicy()
        self.rng = np.random.default_rng(seed)

    def train(self, iterations: int, episodes_per_iteration: int = 1, callback=None) -> list:
        """No-op: the random policy has nothing to learn."""
        return []

    def evaluate(self, episodes: int = 1, greedy: bool = False) -> MetricSnapshot:
        # Greedy mode would always pick action 0; random evaluation always samples.
        totals = np.zeros(4)
        for _ in range(episodes):
            snap = run_episode(self.env, self.ugv_policy, self.uav_policy,
                               self.rng, greedy=False)
            totals += np.array([snap.psi, snap.xi, snap.zeta, snap.beta])
        psi, xi, zeta, beta = totals / episodes
        return MetricSnapshot(float(psi), float(xi), float(zeta), float(beta))

    def rollout_trace(self, greedy: bool = False, seed: int | None = None) -> list[dict]:
        trace: list[dict] = []
        if seed is not None:
            self.env.reset(seed)
        run_episode(self.env, self.ugv_policy, self.uav_policy, self.rng,
                    greedy=False, trace=trace)
        return trace

    def save(self, directory: str | Path) -> None:
        Path(directory).mkdir(parents=True, exist_ok=True)

    def load(self, directory: str | Path) -> None:
        return None

    def state_dict(self) -> dict:
        """Resumable state: just the sampling and env rng streams."""
        from ..nn import rng_state

        return {"rng": rng_state(self.rng), "env_rng": self.env.rng_state()}

    def load_state_dict(self, state: dict) -> None:
        from ..nn import rng_from_state

        self.rng = rng_from_state(state["rng"])
        self.env.set_rng_state(state["env_rng"])
