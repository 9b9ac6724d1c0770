"""Dot-product attention blocks used by DGN and the MC-GCN module."""

from __future__ import annotations

import numpy as np

from .anomaly import annotate
from .init import xavier_uniform
from .layers import Module, Parameter
from .tensor import Tensor, as_tensor

__all__ = ["ScaledDotProductAttention", "SelfAttentionBlock", "MultiHeadAttention"]


class ScaledDotProductAttention(Module):
    """softmax(Q K^T / sqrt(d)) V with an optional boolean mask."""

    def __init__(self, dim: int, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.dim = dim
        self.w_q = Parameter(xavier_uniform((dim, dim), rng))
        self.w_k = Parameter(xavier_uniform((dim, dim), rng))
        self.w_v = Parameter(xavier_uniform((dim, dim), rng))

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        x = as_tensor(x)
        q = x @ self.w_q
        k = x @ self.w_k
        v = x @ self.w_v
        scores = (q @ k.swapaxes(-1, -2)) / np.sqrt(self.dim)
        if mask is not None:
            scores = scores + np.where(np.asarray(mask, dtype=bool), 0.0, -1e9)
        weights = annotate(scores.softmax(axis=-1), "ScaledDotProductAttention.weights")
        return weights @ v


class MultiHeadAttention(Module):
    """Multi-head self attention (the DGN paper's relational kernel).

    ``dim`` must be divisible by ``heads``; each head attends in its own
    ``dim / heads`` subspace and the concatenated result is re-projected.
    """

    def __init__(self, dim: int, heads: int = 2, rng: np.random.Generator | None = None):
        super().__init__()
        if dim % heads != 0:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        rng = rng or np.random.default_rng(0)
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.w_q = Parameter(xavier_uniform((dim, dim), rng))
        self.w_k = Parameter(xavier_uniform((dim, dim), rng))
        self.w_v = Parameter(xavier_uniform((dim, dim), rng))
        self.w_o = Parameter(xavier_uniform((dim, dim), rng))

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        x = as_tensor(x)
        n = x.shape[0]
        # (N, D) -> (heads, N, head_dim)
        def split(t: Tensor) -> Tensor:
            return t.reshape(n, self.heads, self.head_dim).transpose(1, 0, 2)

        q, k, v = split(x @ self.w_q), split(x @ self.w_k), split(x @ self.w_v)
        scores = (q @ k.swapaxes(-1, -2)) / np.sqrt(self.head_dim)  # (H, N, N)
        if mask is not None:
            bias = np.where(np.asarray(mask, dtype=bool), 0.0, -1e9)
            scores = scores + np.broadcast_to(bias, scores.shape)
        weights = annotate(scores.softmax(axis=-1), "MultiHeadAttention.weights")
        attended = weights @ v  # (H, N, head_dim)
        merged = attended.transpose(1, 0, 2).reshape(n, self.dim)
        return merged @ self.w_o


class SelfAttentionBlock(Module):
    """Attention followed by a residual projection (DGN-style block)."""

    def __init__(self, dim: int, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.attn = ScaledDotProductAttention(dim, rng)
        self.proj = Parameter(xavier_uniform((dim, dim), rng))

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        x = as_tensor(x)
        attended = self.attn(x, mask)
        return (x + attended @ self.proj).relu()
