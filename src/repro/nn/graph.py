"""Graph neural-network layers: GCN (Eqn. 1 of the paper) and GAT.

These operate on dense adjacency matrices, which is appropriate for the
stop graphs in this reproduction (a few hundred nodes).
"""

from __future__ import annotations

import numpy as np

from .anomaly import annotate
from .init import xavier_uniform, zeros
from .layers import Module, Parameter
from .tensor import Tensor, as_tensor

__all__ = ["normalized_laplacian", "GCNLayer", "GATLayer"]


def normalized_laplacian(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric-normalised adjacency with self loops (Eqn. 1b).

    ``L = D^{-1/2} (A + I) D^{-1/2}`` where ``D`` is the degree matrix of
    ``A + I``.  Isolated nodes keep a self-loop weight of 1.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got {a.shape}")
    a_tilde = a + np.eye(a.shape[0])
    degree = a_tilde.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(degree, 1e-12))
    return a_tilde * inv_sqrt[:, None] * inv_sqrt[None, :]


class GCNLayer(Module):
    """One graph-convolution layer ``X' = sigma(L X W)`` (Eqn. 1a)."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None, activation: str = "relu"):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.weight = Parameter(xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(zeros((out_features,)))
        self.activation = activation

    def forward(self, x: Tensor, laplacian: np.ndarray) -> Tensor:
        x = as_tensor(x)
        lap = Tensor(np.asarray(laplacian, dtype=self.weight.dtype))
        out = lap @ (x @ self.weight) + self.bias
        if self.activation == "relu":
            return out.relu()
        if self.activation == "tanh":
            return out.tanh()
        if self.activation == "none":
            return out
        raise ValueError(f"unknown activation {self.activation!r}")


class GATLayer(Module):
    """Graph attention layer (Velickovic et al., 2017), single head.

    Attention coefficients use the standard LeakyReLU( a^T [Wh_i || Wh_j] )
    form, masked to graph edges (plus self loops) and softmax-normalised.
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None, slope: float = 0.2):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.weight = Parameter(xavier_uniform((in_features, out_features), rng))
        self.attn_src = Parameter(xavier_uniform((out_features, 1), rng))
        self.attn_dst = Parameter(xavier_uniform((out_features, 1), rng))
        self.slope = slope

    def forward(self, x: Tensor, adjacency: np.ndarray) -> Tensor:
        x = as_tensor(x)
        h = x @ self.weight  # (N, F')
        src = h @ self.attn_src  # (N, 1)
        dst = h @ self.attn_dst  # (N, 1)
        # e_ij = leaky_relu(src_i + dst_j)
        logits = (src + dst.transpose()).leaky_relu(self.slope)  # (N, N)
        mask = np.asarray(adjacency, dtype=bool) | np.eye(len(adjacency), dtype=bool)
        alpha = annotate((logits + np.where(mask, 0.0, -1e9)).softmax(axis=-1),
                         "GATLayer.alpha")
        return (alpha @ h).tanh()
