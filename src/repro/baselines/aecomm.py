"""AE-Comm baseline [46]: autoencoded "common language" communication.

Each UGV encodes its observation into a latent message; a decoder is
trained (via the auxiliary reconstruction loss hook) so the latent space
grounds a common language.  Policies condition on their own latent plus
the mean of the other agents' latents.  As the paper notes, AE-Comm beats
DGN/IC3Net but lacks any explicit spatial-geometry handling.
"""

from __future__ import annotations

import numpy as np

from ..core.config import GARLConfig
from ..core.policies import UGVPolicyOutput, bias_release_head
from ..env.airground import AirGroundEnv
from ..nn import MLP, Module, Tensor
from ..nn import functional as F
from .base import BatchedUGVPolicyMixin, NodeScorer, PolicyAgent, assemble_output, flat_obs_dim

__all__ = ["AECommUGVPolicy", "AECommAgent"]


class AECommUGVPolicy(BatchedUGVPolicyMixin, Module):
    """Encoder/decoder latent messaging + mean-pooled communication."""

    def __init__(self, obs_dim: int, config: GARLConfig,
                 rng: np.random.Generator | None = None, recon_coef: float = 0.1):
        super().__init__()
        rng = rng or np.random.default_rng(config.seed)
        dim = config.hidden_dim
        self.recon_coef = recon_coef
        self.encoder = MLP([obs_dim, 2 * dim, dim], rng=rng, final_gain=1.0)
        self.decoder = MLP([dim, 2 * dim, obs_dim], rng=rng, final_gain=1.0)
        self.node_scorer = NodeScorer(2 * dim, rng, hidden=dim)
        self.release_head = MLP([2 * dim, dim, 1], rng=rng, final_gain=0.01)
        bias_release_head(self.release_head)
        self.value_head = MLP([2 * dim, dim, 1], rng=rng, final_gain=1.0)

    def _latents(self, observations) -> Tensor:
        flats = np.stack([obs.flat() for obs in observations])
        return self.encoder(Tensor(flats.astype(self.dtype))).tanh()  # (U, D)

    def forward(self, observations) -> UGVPolicyOutput:
        latents = self._latents(observations)
        u = len(observations)
        if u > 1:
            # Mean of the *other* agents' messages, batched:
            # (sum - own) / (U - 1).
            total = latents.sum(axis=0, keepdims=True)
            messages = (total - latents) / float(u - 1)
        else:
            messages = Tensor(np.zeros_like(latents.data))
        feature = Tensor.concat([latents, messages], axis=-1)  # (U, 2D)

        scores, releases, values = [], [], []
        for i, obs in enumerate(observations):
            scores.append(self.node_scorer(obs.stop_features, feature[i]))
            releases.append(self.release_head(feature[i]).squeeze(-1))
            values.append(self.value_head(feature[i]).squeeze(-1))
        return assemble_output(scores, releases, values, observations)

    def auxiliary_loss(self, observations) -> Tensor:
        """Reconstruction loss grounding the common language."""
        flats = np.stack([obs.flat() for obs in observations])
        latents = self._latents(observations)
        recon = self.decoder(latents)
        return F.mse_loss(recon, flats) * self.recon_coef


class AECommAgent(PolicyAgent):
    name = "AE-Comm"

    def __init__(self, env: AirGroundEnv, config: GARLConfig | None = None):
        config = config or GARLConfig()
        rng = np.random.default_rng(config.seed)
        super().__init__(env, AECommUGVPolicy(flat_obs_dim(env), config, rng=rng), config)
