"""E-Comm: equivariant multi-agent communication (Section IV-C).

UGVs form a complete communication graph.  Each layer performs

* **Message aggregation** (invariant, Eqns. 25-27): softmax weights from
  reciprocal pairwise distances combine linear messages from neighbours;
* **Target updating** (equivariant, Eqns. 28-29): geometric features move
  along unit relative-direction vectors, norm-clipped by ``g̃_max``.

The readout (Eqn. 30) scores every stop against the final geometric
target and concatenates with the invariant feature.

Equivariance contract (property-tested): for any rotation ``R`` and
translation ``t`` applied to the input coordinates, the non-geometric
outputs ``h`` are unchanged and the geometric outputs satisfy
``g(Rx + t) = R g(x) + t``.

:meth:`EComm.forward` composes Tensor ops one UGV coalition at a time and
is the reference; :meth:`EComm.forward_batch` runs P coalitions as one
autograd node, :func:`ecomm_fused`, with a hand-written backward.
"""

from __future__ import annotations

import numpy as np

from ..nn import Linear, Module, Tensor, annotate
from .config import GARLConfig

__all__ = ["EComm", "ecomm_fused"]


class ECommLayer(Module):
    """One E-Comm layer: invariant aggregation + equivariant update.

    ``uniform_weights`` replaces the inverse-distance softmax (Eqn. 26)
    with a plain mean over neighbours — the ablation of the geometric
    weighting.
    """

    def __init__(self, dim: int, clip: float, rng: np.random.Generator,
                 uniform_weights: bool = False):
        super().__init__()
        self.clip = clip
        self.uniform_weights = uniform_weights
        self.phi_m = Linear(dim, dim, rng=rng)  # message encoder (Eqn. 27a)
        self.phi_h = Linear(2 * dim, dim, rng=rng)  # feature update (Eqn. 27c)
        self.phi_g = Linear(dim, 1, rng=rng)  # radial magnitude (Eqn. 28)

    def forward(self, h: Tensor, g: Tensor) -> tuple[Tensor, Tensor]:
        """Process all U agents at once; h is (U, D), g is (U, 2)."""
        u = h.shape[0]
        if u == 1:
            # A lone UGV has no neighbours: feature passes through the
            # update MLP with a zero message; geometry is unchanged.
            zero_msg = Tensor(np.zeros_like(h.data))
            h_new = self.phi_h(Tensor.concat([h, zero_msg], axis=-1)).tanh()
            return h_new, g

        # Pairwise relative geometry r^{uu'} (Eqn. 25); diagonal is excluded.
        r = g.expand_dims(1) - g.expand_dims(0)  # (U, U, 2), r[u, u'] = g_u - g_u'
        norms = r.norm(axis=-1, eps=1e-8)  # (U, U)
        eye = np.eye(u, dtype=bool)

        # Eqn. (26): softmax over exp(1/||r||), masked to neighbours.
        if self.uniform_weights:
            alpha = Tensor(np.where(eye, 0.0, 1.0 / (u - 1)).astype(h.dtype))
        else:
            inv = 1.0 / (norms + 1e-6)
            logits = inv + np.where(eye, -1e9, 0.0)
            alpha = annotate(logits.softmax(axis=-1), "EComm.alpha")  # (U, U)

        # Eqn. (27): invariant message aggregation.
        messages = self.phi_m(h)  # (U, D); m^{uu'} depends only on u'
        aggregated = alpha @ messages  # (U, D)
        h_new = self.phi_h(Tensor.concat([h, aggregated], axis=-1)).tanh()

        # Eqn. (28): radial joint effect; unit vectors keep direction only.
        unit = r / (norms.expand_dims(-1) + 1e-6)
        magnitudes = self.phi_g(messages).squeeze(-1)  # (U,) scalar per sender
        weighted = alpha * magnitudes.expand_dims(0)  # (U, U)
        effect = (weighted.expand_dims(-1) * unit).sum(axis=1)  # (U, 2)

        # Eqn. (29): norm-clip preserves rotation equivariance.
        effect_norm = effect.norm(axis=-1, keepdims=True, eps=1e-8)
        scale = Tensor.minimum(Tensor(np.ones_like(effect_norm.data)),
                               self.clip / effect_norm)
        g_new = g + effect * scale
        return h_new, g_new


def _linear_grads(linear: Linear, x: np.ndarray, g_out: np.ndarray) -> None:
    """Accumulate the gradients of ``y = x W + b`` summed over leading axes."""
    g_rows = g_out.reshape(-1, g_out.shape[-1])
    if linear.weight.requires_grad:
        linear.weight._accumulate(x.reshape(-1, x.shape[-1]).T @ g_rows)
    if linear.bias is not None and linear.bias.requires_grad:
        linear.bias._accumulate(g_rows.sum(axis=0))


def _layer_forward(layer: ECommLayer, h: np.ndarray,
                   g: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """One E-Comm layer (Eqns. 25-29) on ``(P, U, D)`` / ``(P, U, 2)`` arrays.

    Mirrors :meth:`ECommLayer.forward` op for op with a leading replica
    axis, so it returns the composed ops' values bit for bit.  The third
    return holds what :func:`_layer_backward` reads.
    """
    wh, bh = layer.phi_h.weight.data, layer.phi_h.bias.data
    u = h.shape[1]
    if u == 1:
        cat = np.concatenate([h, np.zeros_like(h)], axis=-1)
        h_new = np.tanh(cat @ wh + bh)
        return h_new, g, (cat, h_new)

    r = g[:, :, None, :] - g[:, None, :, :]  # (P, U, U, 2), r[p, u, u'] = g_u - g_u'
    norms = ((r * r).sum(axis=-1) + 1e-8) ** 0.5  # (P, U, U)
    eye = np.eye(u, dtype=bool)
    if layer.uniform_weights:
        alpha = np.broadcast_to(np.where(eye, 0.0, 1.0 / (u - 1)).astype(h.dtype),
                                norms.shape)
    else:
        logits = 1.0 / (norms + 1e-6) + np.where(eye, -1e9, 0.0).astype(h.dtype)
        exp = np.exp(logits - logits.max(axis=-1, keepdims=True))
        alpha = exp / exp.sum(axis=-1, keepdims=True)  # (P, U, U)

    messages = h @ layer.phi_m.weight.data + layer.phi_m.bias.data  # (P, U, D)
    cat = np.concatenate([h, alpha @ messages], axis=-1)  # (P, U, 2D)
    h_new = np.tanh(cat @ wh + bh)

    den = norms[..., None] + 1e-6  # (P, U, U, 1)
    unit = r / den
    magnitudes = (messages @ layer.phi_g.weight.data + layer.phi_g.bias.data)[..., 0]  # (P, U)
    weighted = alpha * magnitudes[:, None, :]  # (P, U, U)
    effect = (weighted[..., None] * unit).sum(axis=2)  # (P, U, 2)

    effect_norm = ((effect * effect).sum(axis=-1, keepdims=True) + 1e-8) ** 0.5
    ratio = layer.clip / effect_norm
    ones = np.ones_like(effect_norm)
    unclipped = ones <= ratio
    scale = np.where(unclipped, ones, ratio)
    g_new = g + effect * scale
    return h_new, g_new, (h, r, norms, den, unit, alpha, messages, cat, h_new,
                          magnitudes, weighted, effect, effect_norm, unclipped, scale)


def _layer_backward(layer: ECommLayer, saved: tuple, g_h: np.ndarray,
                    g_g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vector-Jacobian product of :func:`_layer_forward`.

    Accumulates the layer's parameter gradients and returns the gradients
    of its ``h`` and ``g`` inputs.
    """
    wh = layer.phi_h.weight.data
    if len(saved) == 2:  # U == 1: only the update MLP ran.
        cat, h_new = saved
        g_pre = g_h * (1.0 - h_new * h_new)
        _linear_grads(layer.phi_h, cat, g_pre)
        return g_pre @ wh[:g_h.shape[-1]].T, g_g

    (h, r, norms, den, unit, alpha, messages, cat, h_new,
     magnitudes, weighted, effect, effect_norm, unclipped, scale) = saved
    d = h.shape[-1]
    # Eqn. (29): g_new = g + effect * min(1, clip / |effect|).
    g_scale = (g_g * effect).sum(axis=-1, keepdims=True)
    g_norm = np.where(unclipped, 0.0, -g_scale * layer.clip / (effect_norm * effect_norm))
    g_effect = g_g * scale + effect * (g_norm / effect_norm)

    # Eqn. (28): effect_u = sum_u' alpha_uu' m_u' r_uu' / (|r_uu'| + eps).
    g_weighted = (g_effect[:, :, None, :] * unit).sum(axis=-1)  # (P, U, U)
    g_unit = weighted[..., None] * g_effect[:, :, None, :]  # (P, U, U, 2)
    g_alpha = g_weighted * magnitudes[:, None, :]
    g_magnitudes = (g_weighted * alpha).sum(axis=1)[..., None]  # (P, U, 1)
    g_r = g_unit / den
    g_norms = -(g_unit * unit).sum(axis=-1) / den[..., 0]

    # Eqn. (27): h_new = tanh([h, alpha @ m] W_h + b_h), m = h W_m + b_m.
    g_pre = g_h * (1.0 - h_new * h_new)
    _linear_grads(layer.phi_h, cat, g_pre)
    g_h_in = g_pre @ wh[:d].T
    g_aggregated = g_pre @ wh[d:].T
    g_alpha = g_alpha + g_aggregated @ messages.swapaxes(-1, -2)
    g_messages = (alpha.swapaxes(-1, -2) @ g_aggregated
                  + g_magnitudes @ layer.phi_g.weight.data.T)
    _linear_grads(layer.phi_g, messages, g_magnitudes)
    _linear_grads(layer.phi_m, h, g_messages)
    g_h_in += g_messages @ layer.phi_m.weight.data.T

    # Eqn. (26): softmax VJP, then through 1 / (|r| + eps).
    if not layer.uniform_weights:
        g_logits = alpha * (g_alpha - (g_alpha * alpha).sum(axis=-1, keepdims=True))
        g_norms -= g_logits / (den[..., 0] * den[..., 0])

    # Eqn. (25): |r| = sqrt(r.r + eps) and r_uu' = g_u - g_u'.
    g_r += r * (g_norms / norms)[..., None]
    return g_h_in, g_g + g_r.sum(axis=2) - g_r.sum(axis=1)


def ecomm_fused(h: Tensor, positions: np.ndarray, stop_positions: np.ndarray,
                layers: list[ECommLayer], w3: Linear, phi_u: Linear) -> Tensor:
    """Replica-batched E-Comm (Eqns. 25-30) as a single autograd node.

    ``h`` is ``(P, U, D)``, ``positions`` ``(P, U, 2)`` and
    ``stop_positions`` ``(B, 2)``.  Every layer and the readout run in
    numpy in the composed ops' order, so the values equal
    :meth:`EComm.forward` per replica bit for bit.  The output packs
    ``[h_final | z | g]`` along the last axis, ``(P, U, D + B + 2)``; its
    parents are ``h`` and every E-Comm parameter, and the backward is
    written by hand, layer by layer in reverse.
    """
    stops = np.asarray(stop_positions, dtype=h.dtype)
    x, g = h.data, np.asarray(positions, dtype=h.dtype)
    saved = []
    for layer in layers:
        x, g, kept = _layer_forward(layer, x, g)
        saved.append(kept)

    # Eqn. (30a): z[p, u, b] = x_b^T W_3 g_{p,u}.
    w3_stops = stops @ w3.weight.data  # (B, 2)
    z = g @ w3_stops.T  # (P, U, B)
    # Eqn. (30b): readout of h and the mean preference.
    num_stops = z.shape[-1]
    cat = np.concatenate([x, z.sum(axis=-1, keepdims=True) / float(num_stops)], axis=-1)
    h_final = np.tanh(cat @ phi_u.weight.data + phi_u.bias.data)
    d = h_final.shape[-1]
    linears = [lin for layer in layers for lin in (layer.phi_m, layer.phi_h, layer.phi_g)]
    params = [p for lin in (*linears, w3, phi_u) for p in (lin.weight, lin.bias)
              if p is not None]
    out = h._make_child(np.concatenate([h_final, z, g], axis=-1), (h, *params),
                        op="ecomm_fused")

    def _backward(out: Tensor) -> None:
        grad, packed = out.grad, out.data
        g_final = packed[..., d + num_stops:]
        g_pre = grad[..., :d] * (1.0 - packed[..., :d] ** 2)
        _linear_grads(phi_u, cat, g_pre)
        wu = phi_u.weight.data
        g_x = g_pre @ wu[:d].T
        g_z = grad[..., d:d + num_stops] + (g_pre @ wu[d:].T) / float(num_stops)
        if w3.weight.requires_grad:
            w3.weight._accumulate(
                stops.T @ (g_z.reshape(-1, num_stops).T @ g_final.reshape(-1, 2)))
        g_g = grad[..., d + num_stops:] + g_z @ w3_stops
        for layer, kept in zip(reversed(layers), reversed(saved)):
            g_x, g_g = _layer_backward(layer, kept, g_x, g_g)
        if h.requires_grad:
            h._accumulate(g_x)

    out._backward = _backward if out.requires_grad else None
    return out


class EComm(Module):
    """Stacked E-Comm layers plus the stop-preference readout (Eqn. 30)."""

    def __init__(self, dim: int, config: GARLConfig, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(config.seed + 1)
        self.config = config
        self.layers = [ECommLayer(dim, config.ecomm_clip, rng,
                                  uniform_weights=config.ecomm_uniform_weights)
                       for _ in range(config.ecomm_layers)]
        self.w3 = Linear(2, 2, bias=False, rng=rng)  # W_3 in Eqn. (30a)
        self.phi_u = Linear(dim + 1, dim, rng=rng)  # final readout (Eqn. 30b)

    def forward(self, features: Tensor, positions: np.ndarray,
                stop_positions: np.ndarray) -> tuple[Tensor, Tensor, Tensor]:
        """Communicate among all UGVs.

        Parameters
        ----------
        features:
            ``(U, D)`` stacked MC-GCN features h̃ (Eqn. 24a).
        positions:
            ``(U, 2)`` UGV coordinates, initialising g (Eqn. 24b).
        stop_positions:
            ``(B, 2)`` stop coordinates for the preference readout.

        Returns
        -------
        (h, z, g):
            Final invariant features ``(U, D)``, per-stop preference
            scores ``(U, B)`` and final geometric targets ``(U, 2)``.
        """
        h = features
        g = Tensor(np.asarray(positions, dtype=features.dtype))
        for layer in self.layers:
            h, g = layer(h, g)

        # Eqn. (30a): z^u_b = x_b^T W_3 g_u — affinity of stop b to the
        # learned target position of UGV u.
        stops = Tensor(np.asarray(stop_positions, dtype=features.dtype))  # (B, 2)
        z = self.w3(stops) @ g.transpose()  # (B, U)
        z = z.transpose()  # (U, B)

        # Eqn. (30b): the readout combines invariant h with a pooled view
        # of the equivariant preference (its mean keeps dims fixed).
        z_summary = z.mean(axis=-1, keepdims=True)  # (U, 1)
        h_final = self.phi_u(Tensor.concat([h, z_summary], axis=-1)).tanh()
        return h_final, z, g

    def forward_batch(self, features: Tensor, positions: np.ndarray,
                      stop_positions: np.ndarray) -> tuple[Tensor, Tensor, Tensor]:
        """Communicate among all UGVs across P stacked replicas.

        Same contract as :meth:`forward` with a leading replica axis:
        ``features`` is ``(P, U, D)``, ``positions`` is ``(P, U, 2)`` and
        the returns are ``(P, U, D)`` / ``(P, U, B)`` / ``(P, U, 2)``,
        slices of the one :func:`ecomm_fused` node.
        """
        out = ecomm_fused(features, positions, stop_positions, self.layers,
                          self.w3, self.phi_u)
        d, num_stops = features.shape[-1], len(stop_positions)
        return out[..., :d], out[..., d:d + num_stops], out[..., d + num_stops:]
