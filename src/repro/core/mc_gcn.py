"""MC-GCN: multi-center attention graph convolution (Section IV-B).

Each UGV is a *positive* centre of the stop graph and every other UGV a
*negative* centre.  Two feature families combine:

* structure-related (Eqns. 18-20): thresholded shortest-path reciprocals,
  with the mean of the other UGVs' correlations subtracted;
* node-related (Eqn. 21): bilinear attention of each stop against the
  stop currently occupied by each UGV, again centre-subtracted.

Their softmax-normalised product (Eqn. 21c) re-weights each GCN layer's
propagation (Eqn. 22); a linear readout pools the top layer (Eqn. 23).
"""

from __future__ import annotations

import numpy as np

from ..maps.stop_graph import StopGraph
from ..nn import DTYPE, GCNLayer, Linear, Module, Parameter, Tensor, annotate, normalized_laplacian
from ..nn.init import xavier_uniform
from .config import GARLConfig

__all__ = ["MCGCN", "multi_center_structural_feature"]


def multi_center_structural_feature(correlation: np.ndarray, own_stop: int,
                                    other_stops: np.ndarray) -> np.ndarray:
    """Eqn. (18): own structural correlation minus the mean of the others'.

    Parameters
    ----------
    correlation:
        ``(B, B)`` matrix of ``s(b, b')`` values (Eqn. 20).
    own_stop:
        The UGV's current stop ``b_t^u``.
    other_stops:
        Current stops of the *other* UGVs (may be empty).
    """
    own = correlation[own_stop]
    others = np.asarray(other_stops, dtype=int)
    if others.size == 0:
        return own.copy()
    return own - correlation[others].mean(axis=0)


def mc_gcn_layer(h: Tensor, w1: Parameter, layer: GCNLayer, laplacian: np.ndarray,
                 structural: np.ndarray, own_stops: np.ndarray,
                 other_stops: np.ndarray) -> Tensor:
    """One batched MC-GCN layer (Eqns. 21-22) as a single autograd node.

    ``h`` is ``(N, B, F)``, one stop-feature stack per centre.  The
    bilinear score ``f_own - mean f_others`` of Eqn. (21) is linear in
    its second argument, so it is computed as ``h @ v`` with
    ``v = W1 (h_own - mean h_others)`` and never forms ``h @ W1`` or the
    per-negative-centre scores.  The attention ``softmax(structural *
    score)`` then rescales ``tanh(L h W + b)`` (Eqn. 22).  The backward
    is written by hand and mirrors these few array passes.
    """
    weight, bias = layer.weight, layer.bias
    hd, w1d, wd = h.data, w1.data, weight.data
    rows = np.arange(hd.shape[0])
    num_others = other_stops.shape[1]
    q = hd[rows, own_stops]  # (N, F)
    if num_others:
        q = q - hd[rows[:, None], other_stops].mean(axis=1)
    v = q @ w1d.T  # (N, F)
    score = (hd @ v[:, :, None])[..., 0]  # (N, B)
    combined = structural * score
    exp = np.exp(combined - combined.max(axis=-1, keepdims=True))
    attention = exp / exp.sum(axis=-1, keepdims=True)  # (N, B)
    propagated = laplacian @ (hd @ wd)  # (N, B, H)
    propagated += bias.data
    np.tanh(propagated, out=propagated)
    out = h._make_child(attention[..., None] * propagated, (h, w1, weight, bias),
                        op="mc_gcn_layer")

    def _backward(out: Tensor) -> None:
        g = out.grad
        g_att = np.einsum("nbh,nbh->nb", g, propagated)  # (N, B)
        # Through the tanh: gz = g * a * (1 - p^2), built in one buffer.
        gz = propagated * propagated
        np.subtract(1.0, gz, out=gz)
        gz *= attention[..., None]
        gz *= g
        gxw = laplacian.T @ gz  # (N, B, H)
        if bias.requires_grad:
            bias._accumulate(gz.sum(axis=(0, 1)))
        if weight.requires_grad:
            weight._accumulate(hd.reshape(-1, hd.shape[-1]).T
                               @ gxw.reshape(-1, gxw.shape[-1]))
        # Softmax VJP, then through the structural rescale.
        inner = (g_att * attention).sum(axis=-1, keepdims=True)
        g_score = attention * (g_att - inner) * structural  # (N, B)
        g_v = (g_score[:, None, :] @ hd)[:, 0, :]  # (N, F)
        if w1.requires_grad:
            w1._accumulate(g_v.T @ q)
        if h.requires_grad:
            gh = (gxw.reshape(-1, gxw.shape[-1]) @ wd.T).reshape(hd.shape)
            gh += g_score[..., None] * v[:, None, :]
            g_q = g_v @ w1d
            gh[rows, own_stops] += g_q
            # One statement per column: a negative centre may share a
            # stop with the own centre or with another negative centre.
            for m in range(num_others):
                gh[rows, other_stops[:, m]] -= g_q / num_others
            h._accumulate(gh)

    out._backward = _backward if out.requires_grad else None
    return out


class MCGCN(Module):
    """Multi-center attention-based GCN over the UGV stop graph.

    ``forward`` maps one UGV's observation to (node features ``H`` of the
    top layer, pooled UGV-specific feature ``h̃``) — the node features are
    reused by the policy head for per-stop action scores.

    With ``config.use_mc_gcn`` False the module degrades to a plain GCN
    (no attention, no centre subtraction), which is the "w/o MC" ablation
    of Table III.
    """

    def __init__(self, stops: StopGraph, config: GARLConfig,
                 in_features: int = 3, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(config.seed)
        self.config = config
        self.num_stops = stops.num_stops
        # Constants of every forward, kept in the model dtype so they
        # never promote a float32 graph.
        self.laplacian = normalized_laplacian(stops.adjacency_matrix()).astype(DTYPE)
        self.correlation = stops.structural_correlation(config.structural_q).astype(DTYPE)

        dim = config.hidden_dim
        dims = [in_features] + [dim] * config.mc_gcn_layers
        self.gcn_layers = [GCNLayer(a, b, rng=rng, activation="tanh")
                           for a, b in zip(dims[:-1], dims[1:])]
        # W_1 of Eqn. (21a), one per layer (bilinear attention).  The
        # "w/o MC" ablation never calls _attention or mc_gcn_layer, so
        # creating these would leave optimiser-registered parameters with
        # no gradient path (caught by graphcheck GC002).
        self.attn_weights = ([Parameter(xavier_uniform((a, a), rng)) for a in dims[:-1]]
                             if config.use_mc_gcn else [])
        # phi_H of Eqn. (23): linear readout of the pooled top layer.
        self.readout = Linear(2 * dim, dim, rng=rng)

    # ------------------------------------------------------------------
    def _attention(self, h: Tensor, layer_idx: int, own_stop: int,
                   other_stops: np.ndarray, structural: np.ndarray) -> Tensor:
        """Eqn. (21): multi-center node attention weights C (shape (B,))."""
        w1 = self.attn_weights[layer_idx]
        hw = h @ w1  # (B, F)
        own_vec = h[int(own_stop)]  # (F,)
        f_own = hw @ own_vec  # (B,)
        if other_stops.size:
            f_others = [hw @ h[int(b)] for b in other_stops]
            mean_others = Tensor.stack(f_others, axis=0).mean(axis=0)
            node_feature = f_own - mean_others
        else:
            node_feature = f_own
        combined = Tensor(structural) * node_feature
        return annotate(combined.softmax(axis=-1), "MCGCN.attention")

    def forward(self, stop_features: np.ndarray, own_stop: int,
                other_stops: np.ndarray) -> tuple[Tensor, Tensor]:
        """Run the multi-center GCN for one UGV.

        Parameters
        ----------
        stop_features:
            ``X̂_t^{B,u}`` — the masked (B, 3) stop tensor from the
            observation (Eqn. 9).
        own_stop:
            ``b_t^u``, the UGV's current stop.
        other_stops:
            Stops of all other UGVs (negative centres).

        Returns
        -------
        (H, h̃):
            Top-layer node features ``(B, hidden)`` and the pooled
            UGV-specific feature ``(hidden,)``.
        """
        other_stops = np.asarray(other_stops, dtype=int)
        h = Tensor(np.asarray(stop_features, dtype=self.dtype))
        use_mc = self.config.use_mc_gcn
        structural = (multi_center_structural_feature(self.correlation, own_stop, other_stops)
                      if use_mc else None)

        for idx, layer in enumerate(self.gcn_layers):
            if use_mc:
                attention = self._attention(h, idx, own_stop, other_stops, structural)
                propagated = layer(h, self.laplacian)
                # Eqn. (22): per-node attention rescales the propagation.
                h = attention.reshape(-1, 1) * propagated
            else:
                h = layer(h, self.laplacian)

        pooled_mean = h.mean(axis=0)
        pooled_own = h[int(own_stop)]
        readout = self.readout(Tensor.concat([pooled_mean, pooled_own], axis=0))
        return h, readout.tanh()

    # ------------------------------------------------------------------
    def forward_batch(self, stop_features: np.ndarray, own_stops: np.ndarray,
                      other_stops: np.ndarray) -> tuple[Tensor, Tensor]:
        """Run the multi-center GCN for N stacked (replica, agent) centres.

        Parameters
        ----------
        stop_features:
            ``(N, B, 3)`` masked stop tensors, one per centre.
        own_stops:
            ``(N,)`` current stop of each centre.
        other_stops:
            ``(N, M)`` stops of the other UGVs per centre (``M = U - 1``;
            a second axis of width 0 means no negative centres).

        Returns ``(H, h̃)`` with shapes ``(N, B, hidden)`` / ``(N, hidden)``.
        Each MC-GCN layer is one fused :func:`mc_gcn_layer` node.
        """
        own_stops = np.asarray(own_stops, dtype=int)
        other_stops = np.asarray(other_stops, dtype=int)
        if other_stops.ndim != 2:
            raise ValueError(f"other_stops must be (N, M), got {other_stops.shape}")
        n = own_stops.shape[0]
        rows = np.arange(n)
        h = Tensor(np.asarray(stop_features, dtype=self.dtype))
        use_mc = self.config.use_mc_gcn
        if use_mc:
            structural = self.correlation[own_stops]  # (N, B)
            if other_stops.shape[1]:
                structural = structural - self.correlation[other_stops].mean(axis=1)
        else:
            structural = None

        for idx, layer in enumerate(self.gcn_layers):
            if use_mc:
                h = mc_gcn_layer(h, self.attn_weights[idx], layer, self.laplacian,
                                 structural, own_stops, other_stops)
            else:
                h = layer(h, self.laplacian)

        pooled_mean = h.mean(axis=1)  # (N, hidden)
        pooled_own = h[rows, own_stops]  # (N, hidden)
        readout = self.readout(Tensor.concat([pooled_mean, pooled_own], axis=-1))
        return h, readout.tanh()
