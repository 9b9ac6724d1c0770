"""CubicMap baseline [11]: memory-augmented CNN over a rasterised state.

The original FD-MAPPO (Cubic Map) pairs a CNN encoder with an external
memory using cubic writing / spatially-contextual reading.  Here the
memory is a learned slot matrix read by content attention (a feed-forward
memory-augmented network): the defining trait the paper's comparison
leans on — a CNN world view with *no* graph structure — is preserved,
which is exactly why it trails the GNN methods on stop-network tasks.
"""

from __future__ import annotations

import numpy as np

from ..core.config import GARLConfig
from ..core.policies import UGVPolicyOutput, bias_release_head
from ..env.airground import AirGroundEnv
from ..maps.stop_graph import StopGraph
from ..nn import MLP, Conv2d, Linear, Module, Parameter, Tensor, annotate
from ..nn.init import xavier_uniform
from .base import BatchedUGVPolicyMixin, NodeScorer, PolicyAgent, assemble_output

__all__ = ["CubicMapUGVPolicy", "CubicMapAgent"]


class CubicMapUGVPolicy(BatchedUGVPolicyMixin, Module):
    """Rasterised observation -> CNN -> slot-memory read -> heads."""

    def __init__(self, stops: StopGraph, config: GARLConfig,
                 rng: np.random.Generator | None = None,
                 grid: int = 16, memory_slots: int = 16):
        super().__init__()
        rng = rng or np.random.default_rng(config.seed)
        self.grid = grid
        self.stops = stops
        dim = config.hidden_dim
        # Stop coordinates -> raster cells, precomputed once.
        extent = stops.positions.max(axis=0) + 1e-9
        cells = np.floor(stops.positions / extent * grid).astype(int)
        self._cells = np.clip(cells, 0, grid - 1)

        c = config.uav_channels
        self.conv1 = Conv2d(2, c, 3, stride=2, rng=rng)
        self.conv2 = Conv2d(c, 2 * c, 3, stride=2, rng=rng)
        side = ((grid - 3) // 2 + 1 - 3) // 2 + 1
        self.encoder = Linear(2 * c * side * side, dim, rng=rng)

        # External memory: learned slots read by content attention.
        self.memory = Parameter(xavier_uniform((memory_slots, dim), rng))
        self.read_query = Linear(dim, dim, rng=rng)

        self.node_scorer = NodeScorer(2 * dim, rng, hidden=dim)
        self.release_head = MLP([2 * dim, dim, 1], rng=rng, final_gain=0.01)
        bias_release_head(self.release_head)
        self.value_head = MLP([2 * dim, dim, 1], rng=rng, final_gain=1.0)

    def _rasterize(self, obs) -> np.ndarray:
        """Two channels: masked stop data and UGV presence."""
        image = np.zeros((2, self.grid, self.grid))
        np.add.at(image[0], (self._cells[:, 1], self._cells[:, 0]), obs.stop_features[:, 2])
        own_cell = self._cells[obs.current_stop]
        image[1, own_cell[1], own_cell[0]] = 1.0
        for stop in obs.ugv_stops:
            cell = self._cells[int(stop)]
            image[1, cell[1], cell[0]] += 0.5
        return image

    def forward(self, observations) -> UGVPolicyOutput:
        images = np.stack([self._rasterize(obs) for obs in observations])
        x = self.conv1(Tensor(images.astype(self.dtype))).relu()
        x = self.conv2(x).relu()
        encoded = self.encoder(x.reshape(x.shape[0], -1)).tanh()  # (U, D)

        # Content-based memory read.
        query = self.read_query(encoded)  # (U, D)
        attention = annotate((query @ self.memory.transpose()).softmax(axis=-1),
                             "CubicMap.memory_attention")  # (U, S)
        read = attention @ self.memory  # (U, D)
        feature = Tensor.concat([encoded, read], axis=-1)  # (U, 2D)

        scores, releases, values = [], [], []
        for u, obs in enumerate(observations):
            scores.append(self.node_scorer(obs.stop_features, feature[u]))
            releases.append(self.release_head(feature[u]).squeeze(-1))
            values.append(self.value_head(feature[u]).squeeze(-1))
        return assemble_output(scores, releases, values, observations)


class CubicMapAgent(PolicyAgent):
    name = "CubicMap"

    def __init__(self, env: AirGroundEnv, config: GARLConfig | None = None):
        config = config or GARLConfig()
        rng = np.random.default_rng(config.seed)
        super().__init__(env, CubicMapUGVPolicy(env.stops, config, rng=rng), config)
