"""Recurrent cells (LSTM / GRU) used by the IC3Net and GAM baselines."""

from __future__ import annotations

import numpy as np

from .init import ones, orthogonal, xavier_uniform, zeros
from .layers import Module, Parameter
from .tensor import Tensor, as_tensor

__all__ = ["LSTMCell", "GRUCell"]


class LSTMCell(Module):
    """Single-step LSTM cell.

    Weights are packed gate-wise: input, forget, cell, output — each of
    shape (input+hidden, hidden).
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        total = input_size + hidden_size
        self.w_i = Parameter(xavier_uniform((total, hidden_size), rng))
        self.w_f = Parameter(xavier_uniform((total, hidden_size), rng))
        self.w_c = Parameter(xavier_uniform((total, hidden_size), rng))
        self.w_o = Parameter(xavier_uniform((total, hidden_size), rng))
        # Forget-gate bias starts at 1 so early training does not erase memory.
        self.b_i = Parameter(zeros((hidden_size,)))
        self.b_f = Parameter(ones((hidden_size,)))
        self.b_c = Parameter(zeros((hidden_size,)))
        self.b_o = Parameter(zeros((hidden_size,)))

    def init_state(self, batch: int) -> tuple[Tensor, Tensor]:
        zeros_like = np.zeros((batch, self.hidden_size), dtype=self.w_i.dtype)
        return Tensor(zeros_like), Tensor(zeros_like.copy())

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        h, c = state
        x = as_tensor(x)
        z = Tensor.concat([x, as_tensor(h)], axis=-1)
        i = (z @ self.w_i + self.b_i).sigmoid()
        f = (z @ self.w_f + self.b_f).sigmoid()
        g = (z @ self.w_c + self.b_c).tanh()
        o = (z @ self.w_o + self.b_o).sigmoid()
        c_new = f * c + i * g
        h_new = o * c_new.tanh()
        return h_new, (h_new, c_new)


class GRUCell(Module):
    """Single-step GRU cell."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        total = input_size + hidden_size
        self.w_r = Parameter(xavier_uniform((total, hidden_size), rng))
        self.w_z = Parameter(xavier_uniform((total, hidden_size), rng))
        self.w_h = Parameter(orthogonal((total, hidden_size), rng))
        self.b_r = Parameter(zeros((hidden_size,)))
        self.b_z = Parameter(zeros((hidden_size,)))
        self.b_h = Parameter(zeros((hidden_size,)))

    def init_state(self, batch: int) -> Tensor:
        return Tensor(np.zeros((batch, self.hidden_size), dtype=self.w_r.dtype))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        x = as_tensor(x)
        h = as_tensor(h)
        z_in = Tensor.concat([x, h], axis=-1)
        r = (z_in @ self.w_r + self.b_r).sigmoid()
        z = (z_in @ self.w_z + self.b_z).sigmoid()
        h_in = Tensor.concat([x, r * h], axis=-1)
        h_tilde = (h_in @ self.w_h + self.b_h).tanh()
        ones = Tensor(np.ones_like(z.data))
        return (ones - z) * h + z * h_tilde
