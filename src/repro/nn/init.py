"""Weight initialisation schemes for the nn substrate.

Every scheme returns a :data:`DTYPE` array: parameters are created in
the model dtype.  The draws themselves are float64 (numpy's
generators), rounded once, so a seed gives the same weights as before
to float32 precision.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DTYPE", "xavier_uniform", "xavier_normal", "kaiming_uniform",
           "orthogonal", "zeros", "ones", "uniform"]

#: The one dtype of every policy's parameters, activations, gradients
#: and optimiser state (PyTorch's default).  The ops of ``repro.nn``
#: preserve whatever dtype they are given; this constant is where the
#: models choose float32.
DTYPE = np.float32


def _fan(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute fan-in / fan-out for dense or convolutional weights."""
    if len(shape) == 2:
        return shape[0], shape[1]
    if len(shape) == 4:  # (out, in, kh, kw)
        receptive = shape[2] * shape[3]
        return shape[1] * receptive, shape[0] * receptive
    size = int(np.prod(shape))
    return size, size


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    fan_in, fan_out = _fan(shape)
    limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(DTYPE)


def xavier_normal(shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    fan_in, fan_out = _fan(shape)
    std = gain * np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=shape).astype(DTYPE)


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    fan_in, _ = _fan(shape)
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(DTYPE)


def orthogonal(shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Orthogonal init (the PPO-standard choice for policy layers)."""
    if len(shape) < 2:
        return (rng.normal(0.0, 1.0, size=shape) * gain).astype(DTYPE)
    rows = shape[0]
    cols = int(np.prod(shape[1:]))
    flat = rng.normal(0.0, 1.0, size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return (gain * q[:rows, :cols]).reshape(shape).astype(DTYPE)


def zeros(shape: tuple[int, ...], rng: np.random.Generator | None = None) -> np.ndarray:
    return np.zeros(shape, dtype=DTYPE)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=DTYPE)


def uniform(shape: tuple[int, ...], rng: np.random.Generator, low: float = -0.1, high: float = 0.1) -> np.ndarray:
    return rng.uniform(low, high, size=shape).astype(DTYPE)
