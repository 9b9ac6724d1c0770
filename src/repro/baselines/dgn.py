"""DGN baseline [47]: attention-based inter-agent message aggregation.

Graph-convolutional RL treats agents as graph nodes and stacks relational
(multi-head dot-product attention) layers over the agent graph.  It
weights neighbours by importance, but — unlike E-Comm — its attention is
over *feature* space only and ignores the changing geometric shape formed
by the UGVs, the gap the paper's comparison highlights.
"""

from __future__ import annotations

import numpy as np

from ..core.config import GARLConfig
from ..core.policies import UGVPolicyOutput, bias_release_head
from ..env.airground import AirGroundEnv
from ..nn import MLP, Module, MultiHeadAttention, Tensor
from .base import BatchedUGVPolicyMixin, NodeScorer, PolicyAgent, assemble_output, flat_obs_dim

__all__ = ["DGNUGVPolicy", "DGNAgent"]


class DGNUGVPolicy(BatchedUGVPolicyMixin, Module):
    """Observation encoder + stacked relational attention over agents."""

    def __init__(self, obs_dim: int, config: GARLConfig,
                 rng: np.random.Generator | None = None, blocks: int = 2):
        super().__init__()
        rng = rng or np.random.default_rng(config.seed)
        dim = config.hidden_dim
        self.encoder = MLP([obs_dim, 2 * dim, dim], rng=rng, final_gain=1.0)
        # DGN stacks relational kernels: multi-head attention + residual.
        self.blocks = [MultiHeadAttention(dim, heads=2, rng=rng) for _ in range(blocks)]
        self.node_scorer = NodeScorer(dim, rng, hidden=dim)
        self.release_head = MLP([dim, dim, 1], rng=rng, final_gain=0.01)
        bias_release_head(self.release_head)
        self.value_head = MLP([dim, dim, 1], rng=rng, final_gain=1.0)

    def forward(self, observations) -> UGVPolicyOutput:
        flats = np.stack([obs.flat() for obs in observations])
        h = self.encoder(Tensor(flats.astype(self.dtype))).tanh()  # (U, D)
        for block in self.blocks:
            h = (h + block(h)).relu()  # residual relational block

        scores, releases, values = [], [], []
        for i, obs in enumerate(observations):
            scores.append(self.node_scorer(obs.stop_features, h[i]))
            releases.append(self.release_head(h[i]).squeeze(-1))
            values.append(self.value_head(h[i]).squeeze(-1))
        return assemble_output(scores, releases, values, observations)


class DGNAgent(PolicyAgent):
    name = "DGN"

    def __init__(self, env: AirGroundEnv, config: GARLConfig | None = None):
        config = config or GARLConfig()
        rng = np.random.default_rng(config.seed)
        super().__init__(env, DGNUGVPolicy(flat_obs_dim(env), config, rng=rng), config)
