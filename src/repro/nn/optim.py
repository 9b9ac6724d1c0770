"""Optimisers and gradient utilities."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .layers import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "RMSProp", "clip_grad_norm"]


class Optimizer:
    """Base optimiser over a fixed list of parameters.

    All optimisers support full-state (de)serialisation via
    :meth:`state_dict` / :meth:`load_state_dict`: scalar hyper-state
    (step counts, lr) plus every per-parameter slot array, keyed by the
    parameter's position — enough to make a resumed update sequence
    bit-identical to an uninterrupted one.
    """

    # Names of per-parameter slot-array lists (aligned with self.params)
    # that subclasses persist in their state dict.
    _slot_names: tuple[str, ...] = ()

    def __init__(self, params: Iterable[Parameter], lr: float):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = lr

    def zero_grad(self, set_to_none: bool = True) -> None:
        """Reset gradients of all parameters.

        With ``set_to_none=True`` (the default) gradients become ``None``,
        so a forgotten ``backward()`` or a stale retained graph raises
        under the anomaly sanitizer instead of silently accumulating;
        ``set_to_none=False`` keeps zero-filled arrays for code that reads
        ``p.grad`` unconditionally.
        """
        for p in self.params:
            p.zero_grad(set_to_none=set_to_none)

    def step(self) -> None:
        """Apply one update from the accumulated gradients (subclasses override)."""
        raise NotImplementedError

    # -- (de)serialisation ----------------------------------------------
    def _scalar_state(self) -> dict:
        """Scalar (JSON-able) state; subclasses extend."""
        return {"lr": float(self.lr)}

    def _load_scalar_state(self, state: dict) -> None:
        self.lr = float(state["lr"])

    def state_dict(self) -> dict:
        """Full optimiser state: scalars + per-parameter slot arrays."""
        state: dict = dict(self._scalar_state())
        for slot in self._slot_names:
            arrays = getattr(self, slot)
            for i, arr in enumerate(arrays):
                state[f"{slot}.{i}"] = arr.copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`.

        Slot arrays are validated against the parameter list (count,
        shape and dtype) before anything is mutated; each slot is kept
        in its parameter's dtype.
        """
        for slot in self._slot_names:
            for i, p in enumerate(self.params):
                key = f"{slot}.{i}"
                if key not in state:
                    raise KeyError(f"optimizer state missing slot {key!r}")
                arr = np.asarray(state[key])
                if arr.shape != p.data.shape:
                    raise ValueError(
                        f"optimizer slot {key!r} has shape {arr.shape}, "
                        f"parameter has shape {p.data.shape}")
                if arr.dtype != p.data.dtype:
                    raise ValueError(
                        f"optimizer slot {key!r} has dtype {arr.dtype}, "
                        f"parameter has dtype {p.data.dtype}")
        self._load_scalar_state(state)
        for slot in self._slot_names:
            arrays = getattr(self, slot)
            for i in range(len(self.params)):
                arrays[i] = np.array(state[f"{slot}.{i}"])


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    _slot_names = ("_velocity",)

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-2, momentum: float = 0.0):
        super().__init__(params, lr)
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def _scalar_state(self) -> dict:
        return {**super()._scalar_state(), "momentum": float(self.momentum)}

    def _load_scalar_state(self, state: dict) -> None:
        super()._load_scalar_state(state)
        self.momentum = float(state["momentum"])

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            if self.momentum:
                v *= self.momentum
                v += p.grad
                p.data = p.data - self.lr * v
            else:
                p.data = p.data - self.lr * p.grad
            p.bump_version()


class Adam(Optimizer):
    """Adam (Kingma & Ba) — the optimiser used by PPO implementations."""

    _slot_names = ("_m", "_v")

    def __init__(self, params: Iterable[Parameter], lr: float = 3e-4,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def _scalar_state(self) -> dict:
        return {**super()._scalar_state(), "t": int(self._t),
                "beta1": float(self.beta1), "beta2": float(self.beta2),
                "eps": float(self.eps), "weight_decay": float(self.weight_decay)}

    def _load_scalar_state(self, state: dict) -> None:
        super()._load_scalar_state(state)
        self._t = int(state["t"])
        self.beta1 = float(state["beta1"])
        self.beta2 = float(state["beta2"])
        self.eps = float(state["eps"])
        self.weight_decay = float(state["weight_decay"])

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.bump_version()


class RMSProp(Optimizer):
    """RMSProp, used by the MADDPG baseline's critics in some variants."""

    _slot_names = ("_sq",)

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 alpha: float = 0.99, eps: float = 1e-8):
        super().__init__(params, lr)
        self.alpha = alpha
        self.eps = eps
        self._sq = [np.zeros_like(p.data) for p in self.params]

    def _scalar_state(self) -> dict:
        return {**super()._scalar_state(), "alpha": float(self.alpha),
                "eps": float(self.eps)}

    def _load_scalar_state(self, state: dict) -> None:
        super()._load_scalar_state(state)
        self.alpha = float(state["alpha"])
        self.eps = float(state["eps"])

    def step(self) -> None:
        for p, sq in zip(self.params, self._sq):
            if p.grad is None:
                continue
            sq *= self.alpha
            sq += (1.0 - self.alpha) * p.grad * p.grad
            p.data = p.data - self.lr * p.grad / (np.sqrt(sq) + self.eps)
            p.bump_version()


def clip_grad_norm(params: Sequence[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= ``max_norm``.

    Returns the pre-clip norm (useful for logging).
    """
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad**2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm
