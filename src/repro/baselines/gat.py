"""GAT baseline [13]: graph attention over the stop graph, single-UGV view.

Attention attaches importance to *immediate* neighbours only, and the
policy never sees the other UGVs' intents — exactly the two limitations
the paper attributes GAT's gap to.
"""

from __future__ import annotations

import numpy as np

from ..core.config import GARLConfig
from ..core.policies import UGVPolicyOutput, bias_release_head
from ..env.airground import AirGroundEnv
from ..maps.stop_graph import StopGraph
from ..nn import MLP, GATLayer, Linear, Module, Tensor
from .base import BatchedUGVPolicyMixin, PolicyAgent, assemble_output

__all__ = ["GATUGVPolicy", "GATAgent"]


class GATUGVPolicy(BatchedUGVPolicyMixin, Module):
    """Stacked GAT layers -> per-stop scores + pooled release/value heads."""

    def __init__(self, stops: StopGraph, config: GARLConfig,
                 rng: np.random.Generator | None = None, layers: int = 2):
        super().__init__()
        rng = rng or np.random.default_rng(config.seed)
        self.adjacency = stops.adjacency_matrix()
        dim = config.hidden_dim
        dims = [3] + [dim] * layers
        self.gat_layers = [GATLayer(a, b, rng=rng) for a, b in zip(dims[:-1], dims[1:])]
        self.node_head = Linear(dim, 1, rng=rng, init="orthogonal", gain=0.01)
        self.release_head = MLP([dim, dim, 1], rng=rng, final_gain=0.01)
        bias_release_head(self.release_head)
        self.value_head = MLP([dim, dim, 1], rng=rng, final_gain=1.0)

    def forward(self, observations) -> UGVPolicyOutput:
        scores, releases, values = [], [], []
        for obs in observations:
            h = Tensor(np.asarray(obs.stop_features, dtype=self.dtype))
            for layer in self.gat_layers:
                h = layer(h, self.adjacency)
            pooled = h.mean(axis=0)
            scores.append(self.node_head(h).squeeze(-1))
            releases.append(self.release_head(pooled).squeeze(-1))
            values.append(self.value_head(pooled).squeeze(-1))
        return assemble_output(scores, releases, values, observations)


class GATAgent(PolicyAgent):
    name = "GAT"

    def __init__(self, env: AirGroundEnv, config: GARLConfig | None = None):
        config = config or GARLConfig()
        rng = np.random.default_rng(config.seed)
        super().__init__(env, GATUGVPolicy(env.stops, config, rng=rng), config)
