"""Probability distributions for stochastic policies.

``Categorical`` drives the UGV release/next-stop head; ``DiagGaussian``
drives the UAV's continuous 2-D movement head.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .tensor import Tensor, as_tensor

__all__ = ["Categorical", "DiagGaussian", "sample_categorical"]

_LOG_2PI = float(np.log(2.0 * np.pi))


def sample_categorical(log_probs: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """Draw one index per row of ``log_probs`` (last axis = actions).

    Inverse-cdf sampling: one ``rng.random()`` per row, compared against
    the row's renormalised cumulative probabilities.  If rounding leaves
    the cdf's last entry below the draw, the index would be one past the
    end; such a draw takes the row's last action with positive
    probability instead.
    """
    p = np.exp(log_probs)
    flat = p.reshape(-1, p.shape[-1])
    # Guard against tiny numeric drift off the simplex.
    flat = flat / flat.sum(axis=-1, keepdims=True)
    cdf = np.cumsum(flat, axis=-1)
    u = rng.random((flat.shape[0], 1))
    idx = (u > cdf).sum(axis=-1)
    over = idx == flat.shape[1]
    if over.any():
        idx[over] = flat.shape[1] - 1 - (flat[over, ::-1] > 0).argmax(axis=-1)
    return idx.reshape(p.shape[:-1])


class Categorical:
    """Categorical distribution parameterised by raw logits (last axis)."""

    def __init__(self, logits: Tensor):
        self.logits = as_tensor(logits)
        self.log_probs_all = self.logits.log_softmax(axis=-1)

    @property
    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs_all.data)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Sample action indices; works on any batch shape."""
        return sample_categorical(self.log_probs_all.data, rng)

    def mode(self) -> np.ndarray:
        return self.log_probs_all.data.argmax(axis=-1)

    def log_prob(self, actions: np.ndarray) -> Tensor:
        return F.gather(self.log_probs_all, np.asarray(actions, dtype=np.int64), axis=-1)

    def entropy(self) -> Tensor:
        p = self.log_probs_all.exp()
        return -(p * self.log_probs_all).sum(axis=-1)


class DiagGaussian:
    """Diagonal Gaussian with state-independent log-std (PPO convention)."""

    def __init__(self, mean: Tensor, log_std: Tensor):
        self.mean = as_tensor(mean)
        self.log_std = as_tensor(log_std)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        std = np.exp(self.log_std.data)
        return self.mean.data + std * rng.standard_normal(self.mean.shape)

    def mode(self) -> np.ndarray:
        return self.mean.data.copy()

    def log_prob(self, actions: np.ndarray) -> Tensor:
        """Sum of per-dimension log densities (last axis)."""
        actions = np.asarray(actions, dtype=self.mean.dtype)
        var_inv = (-2.0 * self.log_std).exp()
        diff = Tensor(actions) - self.mean
        per_dim = diff * diff * var_inv * (-0.5) - self.log_std - 0.5 * _LOG_2PI
        return per_dim.sum(axis=-1)

    def entropy(self) -> Tensor:
        per_dim = self.log_std + 0.5 * (_LOG_2PI + 1.0)
        # Broadcast to the batch shape of the mean for consistent reduction.
        if self.mean.ndim > 1:
            batch = Tensor(np.zeros(self.mean.shape[:-1] + (self.log_std.shape[-1],),
                                    dtype=self.log_std.dtype))
            per_dim = per_dim + batch
        return per_dim.sum(axis=-1)
