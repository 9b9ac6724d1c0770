"""GAM baseline [14]: GNN + LSTM traversal of importance-ranked stops.

GAM combines graph convolution with an LSTM that walks the stop nodes in
learned-importance order, capturing long- and short-term spatio-temporal
structure — but, like GAT, it reasons from a single UGV's viewpoint.
"""

from __future__ import annotations

import numpy as np

from ..core.config import GARLConfig
from ..core.policies import UGVPolicyOutput, bias_release_head
from ..env.airground import AirGroundEnv
from ..maps.stop_graph import StopGraph
from ..nn import DTYPE, MLP, GCNLayer, Linear, LSTMCell, Module, Tensor, normalized_laplacian
from .base import BatchedUGVPolicyMixin, PolicyAgent, assemble_output

__all__ = ["GAMUGVPolicy", "GAMAgent"]


class GAMUGVPolicy(BatchedUGVPolicyMixin, Module):
    """GCN features -> top-k importance ranking -> LSTM traversal -> heads."""

    def __init__(self, stops: StopGraph, config: GARLConfig,
                 rng: np.random.Generator | None = None, layers: int = 2, top_k: int = 8):
        super().__init__()
        rng = rng or np.random.default_rng(config.seed)
        self.laplacian = normalized_laplacian(stops.adjacency_matrix()).astype(DTYPE)
        self.top_k = min(top_k, stops.num_stops)
        dim = config.hidden_dim
        dims = [3] + [dim] * layers
        self.gcn_layers = [GCNLayer(a, b, rng=rng, activation="tanh")
                           for a, b in zip(dims[:-1], dims[1:])]
        self.importance = Linear(dim, 1, rng=rng)
        self.lstm = LSTMCell(dim, dim, rng=rng)
        self.node_head = Linear(dim, 1, rng=rng, init="orthogonal", gain=0.01)
        self.release_head = MLP([dim, dim, 1], rng=rng, final_gain=0.01)
        bias_release_head(self.release_head)
        self.value_head = MLP([dim, dim, 1], rng=rng, final_gain=1.0)

    def _traverse(self, h: Tensor) -> Tensor:
        """Feed the k most important node features through the LSTM.

        The visit order is a hard (non-differentiable) argsort, so the
        importance scores also gate each visited node's features; without
        the gate the importance head gets no gradient at all (graphcheck
        GC002) and the "learned" ranking would stay at its random init.
        """
        ranking = self.importance(h).squeeze(-1)  # (B,)
        order = np.argsort(-ranking.numpy())[: self.top_k]
        gate = ranking.sigmoid()
        state = self.lstm.init_state(1)
        out = state[0]
        for idx in order:
            node = h[int(idx)] * gate[int(idx)]
            out, state = self.lstm(node.reshape(1, -1), state)
        return out.squeeze(0)

    def forward(self, observations) -> UGVPolicyOutput:
        scores, releases, values = [], [], []
        for obs in observations:
            h = Tensor(np.asarray(obs.stop_features, dtype=self.dtype))
            for layer in self.gcn_layers:
                h = layer(h, self.laplacian)
            summary = self._traverse(h)
            scores.append(self.node_head(h).squeeze(-1))
            releases.append(self.release_head(summary).squeeze(-1))
            values.append(self.value_head(summary).squeeze(-1))
        return assemble_output(scores, releases, values, observations)


class GAMAgent(PolicyAgent):
    name = "GAM"

    def __init__(self, env: AirGroundEnv, config: GARLConfig | None = None):
        config = config or GARLConfig()
        rng = np.random.default_rng(config.seed)
        super().__init__(env, GAMUGVPolicy(env.stops, config, rng=rng), config)
