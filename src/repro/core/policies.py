"""Actor-critic policies for UGVs (GARL) and UAVs (CNN), Section IV-A.

``UGVPolicy`` wires MC-GCN -> E-Comm -> policy/value heads (Eqn. 14).
The discrete action head covers ``B + 1`` actions: move-to-stop ``b`` for
every stop plus a final *release* action, masked by feasibility.

``UAVPolicy`` implements Eqn. (17): a small CNN over the egocentric crop,
a diagonal-Gaussian movement head and a value head.
"""

from __future__ import annotations

import numpy as np

from ..env.observation import UAVObservation, UGVObsArrays, UGVObservation
from ..maps.stop_graph import StopGraph
from ..nn import (
    DTYPE,
    MLP,
    Categorical,
    Conv2d,
    DiagGaussian,
    Linear,
    Module,
    Parameter,
    Tensor,
)
from .config import GARLConfig
from .ecomm import EComm
from .mc_gcn import MCGCN

__all__ = ["UGVPolicy", "UAVPolicy", "UGVPolicyOutput", "bias_release_head",
           "forward_policy_batched"]

# Initial bias on the release logit.  With one release action among B+1
# mostly-uniform choices, an unbiased init almost never flies the UAVs,
# so early training sees no collection signal at all; a positive prior
# makes flights common from the first episode.  Applied identically to
# GARL and every baseline (the paper does not specify initialisation).
RELEASE_BIAS = 2.0


def bias_release_head(head) -> None:
    """Set the final linear layer's bias of a release head to RELEASE_BIAS."""
    from ..nn import Linear

    last = None
    for module in head.modules():
        if isinstance(module, Linear):
            last = module
    if last is not None and last.bias is not None:
        last.bias.data = np.full_like(last.bias.data, RELEASE_BIAS)  # reprolint: disable=RL001


class UGVPolicyOutput:
    """Joint forward result for all UGVs at one timeslot."""

    __slots__ = ("logits", "values", "distribution")

    def __init__(self, logits: Tensor, values: Tensor):
        self.logits = logits  # (U, B+1), already masked
        self.values = values  # (U,)
        self.distribution = Categorical(logits)


class UGVPolicy(Module):
    """GARL's UGV actor-critic (Eqns. 14a-14d).

    The policy is *parameter-shared* across UGVs (the standard IPPO
    arrangement); each UGV's forward pass is individualised through its
    own observation, centre subtraction and communication geometry.
    """

    def __init__(self, stops: StopGraph, config: GARLConfig,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(config.seed)
        self.config = config
        self.stops = stops
        dim = config.hidden_dim
        self.mc_gcn = MCGCN(stops, config, rng=rng)
        self.ecomm = EComm(dim, config, rng=rng) if config.use_ecomm else None
        # Per-stop score from that stop's node feature.
        self.node_head = Linear(dim, 1, rng=rng, init="orthogonal", gain=0.01)
        # Mixing weight for the E-Comm preference scores z; only exists
        # when E-Comm produces a z (graphcheck GC002 flags it otherwise).
        self.z_scale = Parameter(np.full(1, 0.1, dtype=DTYPE)) if config.use_ecomm else None
        # Release logit and value from the compact feature h.
        self.release_head = MLP([dim, dim, 1], rng=rng, final_gain=0.01)
        bias_release_head(self.release_head)
        self.value_head = MLP([dim, dim, 1], rng=rng, final_gain=1.0)
        # Coordinates are normalised by the workzone extent inside forward.
        self._extent = float(max(stops.positions[:, 0].max(), stops.positions[:, 1].max(), 1.0))
        self._norm_stop_positions = (stops.positions / self._extent).astype(DTYPE)

    def forward(self, observations: list[UGVObservation]) -> UGVPolicyOutput:
        """Joint forward for the whole coalition (needed by E-Comm)."""
        num_agents = len(observations)
        all_stops = observations[0].ugv_stops

        node_features = []
        pooled = []
        for obs in observations:
            others = np.delete(all_stops, obs.agent_index)
            h_nodes, h_pooled = self.mc_gcn(obs.stop_features, obs.current_stop, others)
            node_features.append(h_nodes)
            pooled.append(h_pooled)
        h_stack = Tensor.stack(pooled, axis=0)  # (U, D)

        if self.ecomm is not None and num_agents >= 1:
            positions = self.stops.positions[all_stops] / self._extent
            h_final, z, _ = self.ecomm(h_stack, positions, self._norm_stop_positions)
        else:
            h_final, z = h_stack, None

        logits_rows = []
        for u, obs in enumerate(observations):
            stop_scores = self.node_head(node_features[u]).squeeze(-1)  # (B,)
            if z is not None:
                stop_scores = stop_scores + self.z_scale * z[u]
            release = self.release_head(h_final[u])  # (1,)
            row = Tensor.concat([stop_scores, release], axis=0)  # (B+1,)
            logits_rows.append(row + np.where(obs.action_mask, 0.0, -1e9))
        logits = Tensor.stack(logits_rows, axis=0)
        values = self.value_head(h_final).squeeze(-1)
        return UGVPolicyOutput(logits, values)

    def forward_batched(self, obs: UGVObsArrays) -> UGVPolicyOutput:
        """Joint forward for P stacked replicas in one pass.

        The (P, U) centres fold into a single ``N = P * U`` MC-GCN batch;
        E-Comm then communicates within each replica's coalition in one
        fused node, whose ``h_final`` feeds the release and value heads
        and whose ``z`` the stop scores.  Returns logits ``(P, U, B + 1)`` and
        values ``(P, U)`` — at P = 1 numerically equivalent to
        :meth:`forward` on the corresponding observation list.
        """
        num_replicas, num_agents = obs.ugv_stops.shape
        num_stops = obs.num_stops
        own = obs.ugv_stops.reshape(-1)  # (N,)
        # Static (U, U-1) index of "the other agents" per agent, applied
        # replica-wise to gather the negative-centre stops.
        # Depends only on num_agents (U <= 8); rebuilding the (U, U-1)
        # index per forward is cheaper than a keyed cache.
        other_idx = np.array([[j for j in range(num_agents) if j != u]
                              for u in range(num_agents)], dtype=int).reshape(num_agents, -1)
        others = obs.ugv_stops[:, other_idx].reshape(num_replicas * num_agents, -1)

        features = obs.stop_features.reshape(-1, num_stops, obs.stop_features.shape[-1])
        nodes, pooled = self.mc_gcn.forward_batch(features, own, others)
        h_stack = pooled.reshape(num_replicas, num_agents, -1)  # (P, U, D)

        if self.ecomm is not None and num_agents >= 1:
            positions = self.stops.positions[obs.ugv_stops] / self._extent  # (P, U, 2)
            h_final, z, _ = self.ecomm.forward_batch(h_stack, positions,
                                                     self._norm_stop_positions)
        else:
            h_final, z = h_stack, None

        stop_scores = self.node_head(nodes).squeeze(-1)  # (N, B)
        stop_scores = stop_scores.reshape(num_replicas, num_agents, num_stops)
        if z is not None:
            stop_scores = stop_scores + self.z_scale * z
        release = self.release_head(h_final)  # (P, U, 1)
        rows = Tensor.concat([stop_scores, release], axis=-1)  # (P, U, B+1)
        logits = rows + np.where(obs.action_mask, 0.0, -1e9)
        values = self.value_head(h_final).squeeze(-1)  # (P, U)
        return UGVPolicyOutput(logits, values)


def forward_policy_batched(policy, obs: UGVObsArrays) -> UGVPolicyOutput:
    """Forward a UGV policy over stacked replica observations.

    Uses the policy's native ``forward_batched`` when it defines one;
    otherwise falls back to one sequential forward per replica and stacks
    the outputs.  The fallback keeps every policy (baselines included)
    usable behind the vectorized pipeline at unbatched speed.
    """
    batched = getattr(policy, "forward_batched", None)
    if batched is not None:
        return batched(obs)
    outputs = [policy(obs.observations(p)) for p in range(obs.lead_shape[0])]
    logits = Tensor.stack([out.logits for out in outputs], axis=0)
    values = Tensor.stack([out.values for out in outputs], axis=0)
    return UGVPolicyOutput(logits, values)


class UAVPolicy(Module):
    """CNN actor-critic for UAV movement (Eqn. 17).

    Outputs a diagonal Gaussian over the 2-D movement direction in
    normalised units; the runner scales samples by ``δ_max^v``.
    """

    def __init__(self, obs_size: int, config: GARLConfig,
                 rng: np.random.Generator | None = None, aux_dim: int = 5):
        super().__init__()
        rng = rng or np.random.default_rng(config.seed + 2)
        c = config.uav_channels
        self.conv1 = Conv2d(3, c, 3, stride=2, rng=rng)
        self.conv2 = Conv2d(c, 2 * c, 3, stride=2, rng=rng)
        side = ((obs_size - 3) // 2 + 1 - 3) // 2 + 1
        flat = 2 * c * side * side
        dim = config.uav_hidden_dim
        self.trunk = MLP([flat + aux_dim, dim], rng=rng, final_gain=1.0)
        self.mean_head = MLP([dim, 2], rng=rng, final_gain=0.01)
        self.value_head = MLP([dim, 1], rng=rng, final_gain=1.0)
        self.log_std = Parameter(np.full(2, -0.5, dtype=DTYPE))

    def features(self, grids: np.ndarray, aux: np.ndarray) -> Tensor:
        """Shared conv-trunk embedding of grid + aux observation arrays."""
        x = Tensor(np.asarray(grids, dtype=self.dtype))
        x = self.conv1(x).relu()
        x = self.conv2(x).relu()
        x = x.reshape(x.shape[0], -1)
        x = Tensor.concat([x, Tensor(np.asarray(aux, dtype=self.dtype))], axis=-1)
        return self.trunk(x).tanh()

    def forward(self, observations: list[UAVObservation]) -> tuple[DiagGaussian, Tensor]:
        """Batched forward over airborne UAVs."""
        grids = np.stack([o.grid for o in observations])
        aux = np.stack([o.aux for o in observations])
        return self.forward_arrays(grids, aux)

    def forward_arrays(self, grids: np.ndarray, aux: np.ndarray) -> tuple[DiagGaussian, Tensor]:
        """Forward directly from ``(N, 3, S, S)`` / ``(N, aux)`` arrays.

        The vectorized pipeline gathers every airborne UAV across all
        replicas into one such batch, so the whole fleet shares a single
        CNN forward per step.
        """
        feats = self.features(grids, aux)
        mean = self.mean_head(feats).tanh()
        values = self.value_head(feats).squeeze(-1)
        return DiagGaussian(mean, self.log_std), values
