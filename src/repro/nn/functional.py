"""Functional operations built on :class:`repro.nn.tensor.Tensor`.

Contains the convolution/pooling kernels (im2col based), loss functions and
a few indexing helpers needed by policy networks (gathering log-probs of
sampled actions).
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _constant, as_tensor

__all__ = [
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "gather",
    "embedding_lookup",
    "mse_loss",
    "huber_loss",
    "cross_entropy",
    "nll_loss",
    "binary_cross_entropy_with_logits",
]


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int):
    """Unfold ``x`` (N, C, H, W) into column form for convolution.

    Returns the column tensor with shape (N, C*kh*kw, OH*OW) plus the
    output spatial dims.
    """
    n, c, h, w = x.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    strides = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, oh, ow, kh, kw),
        strides=(strides[0], strides[1], strides[2] * stride, strides[3] * stride, strides[2], strides[3]),
        writeable=False,
    )
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, oh * ow)
    return np.ascontiguousarray(cols), oh, ow


def _col2im(cols: np.ndarray, x_shape, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Fold column-form gradients back into input shape (adjoint of im2col)."""
    n, c, h, w = x_shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    # Loops over the kh x kw kernel taps (typically 3x3), not array
    # elements; each iteration is one strided block accumulate.
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += cols[:, :, i, j]
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1, padding: int = 0) -> Tensor:
    """2D convolution.

    Parameters
    ----------
    x : Tensor of shape (N, C_in, H, W)
    weight : Tensor of shape (C_out, C_in, KH, KW)
    bias : optional Tensor of shape (C_out,)
    """
    x = as_tensor(x)
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"conv2d channel mismatch: input {c_in} vs weight {c_in_w}")

    cols, oh, ow = _im2col(x.data, kh, kw, stride, padding)
    w_mat = weight.data.reshape(c_out, -1)
    # (o,k) @ (n,k,p): one BLAS gemm per image beats the naive einsum
    # contraction by a wide margin on these kernel sizes.
    out_data = np.matmul(w_mat, cols).reshape(n, c_out, oh, ow)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, c_out, 1, 1)

    parents = [x, weight] + ([bias] if bias is not None else [])
    out = x._make_child(out_data, parents, op="conv2d")

    def _backward(out: Tensor) -> None:
        grad = out.grad.reshape(n, c_out, oh * ow)
        if weight.requires_grad:
            gw = np.tensordot(grad, cols, axes=([0, 2], [0, 2]))
            weight._accumulate(gw.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(out.grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            gcols = np.matmul(w_mat.T, grad)
            x._accumulate(_col2im(gcols, x.shape, kh, kw, stride, padding))

    out._backward = _backward if out.requires_grad else None
    return out


def max_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """Max pooling over non-overlapping (by default) square windows."""
    stride = stride or kernel
    x = as_tensor(x)
    n, c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    cols, _, _ = _im2col(x.data.reshape(n * c, 1, h, w), kernel, kernel, stride, 0)
    cols = cols.reshape(n, c, kernel * kernel, oh * ow)
    argmax = cols.argmax(axis=2)
    out_data = np.take_along_axis(cols, argmax[:, :, None, :], axis=2).squeeze(2).reshape(n, c, oh, ow)
    out = x._make_child(out_data, (x,), op="max_pool2d")

    def _backward(out: Tensor) -> None:
        if not x.requires_grad:
            return
        gcols = np.zeros((n, c, kernel * kernel, oh * ow), dtype=x.data.dtype)
        np.put_along_axis(gcols, argmax[:, :, None, :], out.grad.reshape(n, c, 1, oh * ow), axis=2)
        gx = _col2im(gcols.reshape(n * c, kernel * kernel, oh * ow), (n * c, 1, h, w), kernel, kernel, stride, 0)
        x._accumulate(gx.reshape(n, c, h, w))

    out._backward = _backward if out.requires_grad else None
    return out


def avg_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """Average pooling over square windows."""
    stride = stride or kernel
    x = as_tensor(x)
    n, c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    cols, _, _ = _im2col(x.data.reshape(n * c, 1, h, w), kernel, kernel, stride, 0)
    cols = cols.reshape(n, c, kernel * kernel, oh * ow)
    out = x._make_child(cols.mean(axis=2).reshape(n, c, oh, ow), (x,), op="avg_pool2d")

    def _backward(out: Tensor) -> None:
        if not x.requires_grad:
            return
        g = out.grad.reshape(n, c, 1, oh * ow) / (kernel * kernel)
        gcols = np.broadcast_to(g, (n, c, kernel * kernel, oh * ow)).copy()
        gx = _col2im(gcols.reshape(n * c, kernel * kernel, oh * ow), (n * c, 1, h, w), kernel, kernel, stride, 0)
        x._accumulate(gx.reshape(n, c, h, w))

    out._backward = _backward if out.requires_grad else None
    return out


def gather(x: Tensor, indices: np.ndarray, axis: int = -1) -> Tensor:
    """Pick one element per row along ``axis`` (e.g. log-prob of an action).

    ``indices`` has the shape of ``x`` minus ``axis``.
    """
    x = as_tensor(x)
    idx = np.asarray(indices, dtype=np.int64)
    expanded = np.expand_dims(idx, axis)
    out_data = np.take_along_axis(x.data, expanded, axis=axis).squeeze(axis)
    out = x._make_child(out_data, (x,), op="gather")

    def _backward(out: Tensor) -> None:
        if not x.requires_grad:
            return
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, expanded, np.expand_dims(out.grad, axis), axis=axis)
        x._accumulate(gx)

    out._backward = _backward if out.requires_grad else None
    return out


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup into an embedding table with sparse gradient scatter."""
    idx = np.asarray(indices, dtype=np.int64)
    out = table._make_child(table.data[idx], (table,), op="embedding_lookup")

    def _backward(out: Tensor) -> None:
        if not table.requires_grad:
            return
        g = np.zeros_like(table.data)
        np.add.at(g, idx, out.grad)
        table._accumulate(g)

    out._backward = _backward if out.requires_grad else None
    return out


# ----------------------------------------------------------------------
# Losses
# ----------------------------------------------------------------------
def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean squared error."""
    target = _constant(target, pred).detach()
    diff = pred - target
    return (diff * diff).mean()


def huber_loss(pred: Tensor, target, delta: float = 1.0) -> Tensor:
    """Smooth-L1 / Huber loss, robust to outlier returns."""
    target = _constant(target, pred).detach()
    diff = (pred - target).abs()
    quadratic = Tensor.minimum(diff, delta)
    linear = diff - quadratic
    return (quadratic * quadratic * 0.5 + linear * delta).mean()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Cross entropy from raw logits against integer class targets."""
    logp = logits.log_softmax(axis=-1)
    picked = gather(logp, np.asarray(targets, dtype=np.int64), axis=-1)
    return -picked.mean()


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Negative log likelihood given log-probabilities."""
    picked = gather(log_probs, np.asarray(targets, dtype=np.int64), axis=-1)
    return -picked.mean()


def binary_cross_entropy_with_logits(logits: Tensor, targets) -> Tensor:
    """Numerically stable BCE-with-logits (used by AE-Comm's decoder)."""
    targets = _constant(targets, logits).detach()
    # max(x,0) - x*z + log(1 + exp(-|x|))
    relu_part = logits.relu()
    abs_part = logits.abs()
    log_part = ((-abs_part).exp() + 1.0).log()
    return (relu_part - logits * targets + log_part).mean()
