"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of the ``repro.nn`` substrate: a small but
complete autograd engine providing the same semantics PyTorch tensors would
give the original GARL implementation.  Every differentiable operation
records a backward closure; :meth:`Tensor.backward` runs a topological sort
over the recorded graph and accumulates gradients.

Design notes
------------
* Gradients are plain ``numpy.ndarray`` objects stored on ``Tensor.grad``.
* A backward closure receives its output node as an argument
  (``def _backward(out)``, called as ``node._backward(node)``) and must
  not capture it.  A closure over its own output would put every
  recorded node in a reference cycle, keeping a minibatch's arrays and
  gradients alive until the cyclic collector runs; without the cycle,
  reference counting frees the whole graph as soon as its loss is
  dropped.  ``tests/nn/test_tape_cycles.py`` checks every op.
* :meth:`Tensor.backward` frees the tape as it walks it.  Once an
  interior node's (a node with parents) closure has run, the node drops
  its gradient, its closure and its parent links, so each activation and
  interior gradient is released as soon as backward has consumed it, and
  a loss kept after ``backward()`` holds no graph.  Leaves (parameters
  and inputs created with ``requires_grad``) keep :attr:`Tensor.grad`.
  A freed node is marked; a later backward that reaches it (the same
  loss twice, or a new loss built on a freed node) raises
  ``RuntimeError`` naming the op before it touches any gradient.  There
  is no ``retain_graph``.  Under :func:`~repro.nn.detect_anomaly` the
  tape is kept whole, so the sanitizer can still report a second
  backward through a graph whose inputs an optimiser step has mutated.
* Broadcasting follows numpy rules; :func:`_unbroadcast` sums gradients
  back down to the shape of the input operand.
* The engine is eager and single-threaded, which is all the reproduction
  needs on CPU.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Sequence

import numpy as np

from . import anomaly as _anomaly
from . import tracer as _tracer

__all__ = ["Tensor", "no_grad", "enable_grad", "is_grad_enabled", "as_tensor"]

_GRAD_ENABLED = True


class _GradMode:
    """Shared machinery for :class:`no_grad` / :class:`enable_grad`.

    Instances work both as context managers::

        with no_grad():
            values = policy(obs)

    and as decorators (note the parentheses, as with ``torch.no_grad()``)::

        @no_grad()
        def evaluate(policy, obs): ...
    """

    _target = True

    def __enter__(self) -> "_GradMode":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = self._target
        return self

    def __exit__(self, *exc_info) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev

    def __call__(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.__class__():
                return fn(*args, **kwargs)

        return wrapper


class no_grad(_GradMode):
    """Disable graph recording, like ``torch.no_grad``."""

    _target = False


class enable_grad(_GradMode):
    """Re-enable graph recording inside a ``no_grad`` scope."""

    _target = True


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED


def _is_basic_index(index) -> bool:
    """True when ``index`` is numpy basic indexing: ints, slices,
    ``Ellipsis`` and ``None``, alone or in a tuple.  Bools and arrays
    (advanced indexing) can select an element more than once."""
    items = index if isinstance(index, tuple) else (index,)
    return all(item is None or item is Ellipsis or isinstance(item, slice)
               or (isinstance(item, (int, np.integer))
                   and not isinstance(item, bool))
               for item in items)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum away leading dimensions that broadcasting added.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were 1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def as_tensor(value, requires_grad: bool = False) -> "Tensor":
    """Coerce ``value`` (Tensor, array, scalar, nested list) to a Tensor."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


class _FreedBackward:
    """Marks an interior node whose closure has run and been released.

    Keeps only the closure's qualified name (e.g.
    ``Tensor.__mul__.<locals>._backward``), so the error can name the op.
    """

    __slots__ = ("qualname",)

    def __init__(self, qualname: str):
        self.qualname = qualname

    def error(self) -> RuntimeError:
        op = self.qualname.split(".<locals>")[0].rsplit(".", 1)[-1].strip("_")
        return RuntimeError(
            f"backward() reached the output of op '{op}', whose "
            f"graph an earlier backward() already freed; build a new "
            f"graph (rerun the forward) for each backward")


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts.  Stored as ``float64`` unless
        already a float dtype.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` when
        :meth:`backward` is called on a downstream tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name",
                 "_version", "_anomaly")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        # Fast path: a float ndarray (every op output) is kept as-is.
        # ``dtype.kind == "f"`` is ``np.issubdtype(dtype, np.floating)``.
        if type(data) is not np.ndarray or data.dtype.kind != "f":
            data = np.asarray(data)
            if data.dtype.kind != "f":
                data = data.astype(np.float64)
        self.data: np.ndarray = data
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Callable[[Tensor], None] | _FreedBackward | None = None
        self._prev: tuple[Tensor, ...] = ()
        self.name = name
        # In-place mutation counter; the anomaly mode compares it (plus a
        # data fingerprint) between forward and backward.
        self._version: int = 0
        self._anomaly = None

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        """The underlying array's shape."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of array dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def dtype(self):
        """The underlying numpy dtype."""
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        """Transpose (reverses all axes); alias for ``transpose()``."""
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """The single element as a Python float."""
        return float(self.data.item())

    def fingerprint(self) -> str:
        """Byte-exact digest of :attr:`data` (dtype + shape + contents).

        Used by the determinism bisector to compare op outputs between
        two runs: equal fingerprints certify bit-identical values.
        """
        from .serialize import array_digest

        return array_digest(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a graph-detached deep copy."""
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self, set_to_none: bool = True) -> None:
        """Reset the accumulated gradient.

        ``set_to_none=True`` (the default) drops the gradient entirely, so
        stale-gradient bugs surface as ``None`` errors instead of silent
        accumulation; ``set_to_none=False`` keeps a zero array, matching
        the legacy torch behaviour.
        """
        self.grad = None if set_to_none else np.zeros_like(self.data)

    def bump_version(self) -> None:
        """Declare an intentional in-place mutation of :attr:`data`.

        Engine-owned mutation sites (optimisers, ``load_state_dict``) call
        this; the anomaly mode uses it to report version drift when a
        stale graph is backpropagated.
        """
        self._version += 1

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    def _make_child(self, data: np.ndarray, parents: Sequence["Tensor"],
                    op: str | None = None) -> "Tensor":
        child = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            child.requires_grad = True
            child._prev = tuple(parents)
        if _anomaly._ENABLED:
            _anomaly.record_op(child, parents, op)
        if _tracer._ACTIVE is not None:
            _tracer._ACTIVE.record_op(child, parents, op)
        return child

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Frees the tape as it goes (see the module notes): after an
        interior node's closure has run, its gradient, closure and
        parent links are dropped, outside :func:`detect_anomaly`.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if type(node._backward) is _FreedBackward:
                raise node._backward.error()
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(np.asarray(grad))

        sanitize = _anomaly._ENABLED
        # Popping releases the list's reference, so a node is freed as
        # soon as its children (run before it) have let go of it.
        while topo:
            node = topo.pop()
            fn = node._backward
            if fn is not None and node.grad is not None:
                if sanitize:
                    _anomaly.check_before_backward(node)
                    fn(node)
                    _anomaly.check_after_backward(node)
                else:
                    fn(node)
                    node.grad = None
                    node._prev = ()
                    node._backward = _FreedBackward(fn.__qualname__)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = self._make_child(self.data + other.data, (self, other))

        def _backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad)
            if other.requires_grad:
                other._accumulate(out.grad)

        out._backward = _backward if out.requires_grad else None
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = self._make_child(-self.data, (self,))

        def _backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(-out.grad)

        out._backward = _backward if out.requires_grad else None
        return out

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = self._make_child(self.data * other.data, (self, other))

        def _backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * other.data)
            if other.requires_grad:
                other._accumulate(out.grad * self.data)

        out._backward = _backward if out.requires_grad else None
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = self._make_child(self.data / other.data, (self, other))

        def _backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad / other.data)
            if other.requires_grad:
                other._accumulate(-out.grad * self.data / (other.data**2))

        out._backward = _backward if out.requires_grad else None
        return out

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out = self._make_child(self.data**exponent, (self,))

        def _backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

        out._backward = _backward if out.requires_grad else None
        return out

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = self._make_child(self.data @ other.data, (self, other))

        def _backward(out: Tensor) -> None:
            grad = out.grad
            if self.requires_grad:
                if other.data.ndim == 1 and self.data.ndim == 1:
                    self._accumulate(grad * other.data)
                elif other.data.ndim == 1:
                    self._accumulate(np.expand_dims(grad, -1) * other.data)
                elif self.data.ndim == 1:
                    self._accumulate(grad @ np.swapaxes(other.data, -1, -2))
                else:
                    g = grad @ np.swapaxes(other.data, -1, -2)
                    self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                if self.data.ndim == 1 and other.data.ndim == 1:
                    other._accumulate(grad * self.data)
                elif self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad))
                elif other.data.ndim == 1:
                    g = np.swapaxes(self.data, -1, -2) @ np.expand_dims(grad, -1)
                    other._accumulate(_unbroadcast(g.squeeze(-1), other.data.shape))
                else:
                    g = np.swapaxes(self.data, -1, -2) @ grad
                    other._accumulate(_unbroadcast(g, other.data.shape))

        out._backward = _backward if out.requires_grad else None
        return out

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        """Elementwise ``e**x``."""
        out = self._make_child(np.exp(self.data), (self,))

        def _backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * out.data)

        out._backward = _backward if out.requires_grad else None
        return out

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        out = self._make_child(np.log(self.data), (self,))

        def _backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad / self.data)

        out._backward = _backward if out.requires_grad else None
        return out

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        return self**0.5

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        out = self._make_child(np.tanh(self.data), (self,))

        def _backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * (1.0 - out.data**2))

        out._backward = _backward if out.requires_grad else None
        return out

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid ``1 / (1 + e**-x)``."""
        sig = 1.0 / (1.0 + np.exp(-self.data))
        out = self._make_child(sig, (self,))

        def _backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * out.data * (1.0 - out.data))

        out._backward = _backward if out.requires_grad else None
        return out

    def relu(self) -> "Tensor":
        """Elementwise ``max(x, 0)``."""
        out = self._make_child(np.maximum(self.data, 0.0), (self,))

        def _backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * (self.data > 0))

        out._backward = _backward if out.requires_grad else None
        return out

    def leaky_relu(self, slope: float = 0.01) -> "Tensor":
        """Elementwise ``x if x > 0 else slope * x``."""
        out = self._make_child(np.where(self.data > 0, self.data, slope * self.data), (self,))

        def _backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * np.where(self.data > 0, 1.0, slope))

        out._backward = _backward if out.requires_grad else None
        return out

    def abs(self) -> "Tensor":
        """Elementwise absolute value."""
        out = self._make_child(np.abs(self.data), (self,))

        def _backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * np.sign(self.data))

        out._backward = _backward if out.requires_grad else None
        return out

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; gradient is passed through inside the active range."""
        out = self._make_child(np.clip(self.data, low, high), (self,))

        def _backward(out: Tensor) -> None:
            if self.requires_grad:
                mask = (self.data >= low) & (self.data <= high)
                self._accumulate(out.grad * mask)

        out._backward = _backward if out.requires_grad else None
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all elements when None)."""
        out = self._make_child(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def _backward(out: Tensor) -> None:
            if not self.requires_grad:
                return
            grad = out.grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.data.ndim for a in axes)
                for a in sorted(axes):
                    grad = np.expand_dims(grad, a)
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        out._backward = _backward if out.requires_grad else None
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over ``axis`` (all elements when None)."""
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum over ``axis``; gradient flows to the argmax elements."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        out = self._make_child(out_data, (self,))

        def _backward(out: Tensor) -> None:
            if not self.requires_grad:
                return
            grad = out.grad
            maxval = out.data
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.data.ndim for a in axes)
                for a in sorted(axes):
                    grad = np.expand_dims(grad, a)
                    maxval = np.expand_dims(maxval, a)
            mask = (self.data == maxval).astype(self.data.dtype)
            # Split gradient evenly among ties, matching subgradient choice.
            if axis is None:
                denom = mask.sum()
            else:
                denom = mask.sum(axis=axis, keepdims=True)
            self._accumulate(grad * mask / denom)

        out._backward = _backward if out.requires_grad else None
        return out

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Minimum over ``axis``; gradient flows to the argmin elements."""
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        """Same elements in a new shape (one dimension may be -1)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make_child(self.data.reshape(shape), (self,))

        def _backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad.reshape(self.data.shape))

        out._backward = _backward if out.requires_grad else None
        return out

    def flatten(self) -> "Tensor":
        """Reshape to one dimension."""
        return self.reshape(-1)

    def transpose(self, *axes) -> "Tensor":
        """Permute axes (reversed order when ``axes`` is empty)."""
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out = self._make_child(self.data.transpose(axes), (self,))
        inverse = np.argsort(axes)

        def _backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad.transpose(inverse))

        out._backward = _backward if out.requires_grad else None
        return out

    def swapaxes(self, a: int, b: int) -> "Tensor":
        """Exchange axes ``a`` and ``b``."""
        axes = list(range(self.data.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def __getitem__(self, index) -> "Tensor":
        out = self._make_child(self.data[index], (self,))
        basic = _is_basic_index(index)

        def _backward(out: Tensor) -> None:
            if self.requires_grad:
                grad = np.zeros_like(self.data)
                if basic:
                    # A basic index selects each element at most once, so
                    # adding through the view equals ``np.add.at`` byte
                    # for byte (0.0 + -0.0 is +0.0 either way).
                    grad[index] += out.grad
                else:
                    np.add.at(grad, index, out.grad)
                self._accumulate(grad)

        out._backward = _backward if out.requires_grad else None
        return out

    def expand_dims(self, axis: int) -> "Tensor":
        """Insert a length-1 axis at ``axis``."""
        out = self._make_child(np.expand_dims(self.data, axis), (self,))

        def _backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(np.squeeze(out.grad, axis=axis))

        out._backward = _backward if out.requires_grad else None
        return out

    def squeeze(self, axis: int | None = None) -> "Tensor":
        """Drop length-1 axes (all of them, or just ``axis``)."""
        out = self._make_child(np.squeeze(self.data, axis=axis), (self,))

        def _backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad.reshape(self.data.shape))

        out._backward = _backward if out.requires_grad else None
        return out

    # ------------------------------------------------------------------
    # Composite ops
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable softmax along ``axis``."""
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        soft = exp / exp.sum(axis=axis, keepdims=True)
        out = self._make_child(soft, (self,))

        def _backward(out: Tensor) -> None:
            if self.requires_grad:
                s = out.data
                g = out.grad
                inner = (g * s).sum(axis=axis, keepdims=True)
                self._accumulate(s * (g - inner))

        out._backward = _backward if out.requires_grad else None
        return out

    def log_softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable log-softmax along ``axis``."""
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out = self._make_child(shifted - logsumexp, (self,))

        def _backward(out: Tensor) -> None:
            if self.requires_grad:
                soft = np.exp(out.data)
                g = out.grad
                self._accumulate(g - soft * g.sum(axis=axis, keepdims=True))

        out._backward = _backward if out.requires_grad else None
        return out

    def norm(self, axis=None, keepdims: bool = False, eps: float = 1e-12) -> "Tensor":
        """L2 norm with a smooth epsilon to avoid NaN gradients at zero."""
        return ((self * self).sum(axis=axis, keepdims=keepdims) + eps).sqrt()

    # ------------------------------------------------------------------
    # Static constructors / combinators
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape, requires_grad: bool = False) -> "Tensor":
        """All-zeros tensor of the given shape."""
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape, requires_grad: bool = False) -> "Tensor":
        """All-ones tensor of the given shape."""
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def concat(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        """Concatenate tensors along an existing axis."""
        tensors = [as_tensor(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        out = tensors[0]._make_child(data, tensors)

        def _backward(out: Tensor) -> None:
            offset = 0
            ax = axis % data.ndim
            for t in tensors:
                width = t.data.shape[ax]
                slicer = [slice(None)] * data.ndim
                slicer[ax] = slice(offset, offset + width)
                if t.requires_grad:
                    t._accumulate(out.grad[tuple(slicer)])
                offset += width

        out._backward = _backward if out.requires_grad else None
        return out

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        """Stack tensors along a new axis."""
        tensors = [as_tensor(t) for t in tensors]
        data = np.stack([t.data for t in tensors], axis=axis)
        out = tensors[0]._make_child(data, tensors)

        def _backward(out: Tensor) -> None:
            grads = np.moveaxis(out.grad, axis, 0)
            for t, g in zip(tensors, grads):
                if t.requires_grad:
                    t._accumulate(g)

        out._backward = _backward if out.requires_grad else None
        return out

    @staticmethod
    def where(condition: np.ndarray, a: "Tensor", b: "Tensor") -> "Tensor":
        """Select from ``a`` where ``condition`` else ``b``."""
        a, b = as_tensor(a), as_tensor(b)
        cond = np.asarray(condition, dtype=bool)
        out = a._make_child(np.where(cond, a.data, b.data), (a, b))

        def _backward(out: Tensor) -> None:
            if a.requires_grad:
                a._accumulate(np.where(cond, out.grad, 0.0))
            if b.requires_grad:
                b._accumulate(np.where(cond, 0.0, out.grad))

        out._backward = _backward if out.requires_grad else None
        return out

    @staticmethod
    def maximum(a: "Tensor", b: "Tensor") -> "Tensor":
        """Elementwise maximum of two tensors.

        Ties take the gradient from ``a``, matching the historical
        ``where(a >= b, a, b)`` lowering bit-for-bit.
        """
        a, b = as_tensor(a), as_tensor(b)
        cond = a.data >= b.data
        out = a._make_child(np.where(cond, a.data, b.data), (a, b), op="maximum")

        def _backward(out: Tensor) -> None:
            if a.requires_grad:
                a._accumulate(np.where(cond, out.grad, 0.0))
            if b.requires_grad:
                b._accumulate(np.where(cond, 0.0, out.grad))

        out._backward = _backward if out.requires_grad else None
        return out

    @staticmethod
    def minimum(a: "Tensor", b: "Tensor") -> "Tensor":
        """Elementwise minimum of two tensors (ties favour ``a``)."""
        a, b = as_tensor(a), as_tensor(b)
        cond = a.data <= b.data
        out = a._make_child(np.where(cond, a.data, b.data), (a, b), op="minimum")

        def _backward(out: Tensor) -> None:
            if a.requires_grad:
                a._accumulate(np.where(cond, out.grad, 0.0))
            if b.requires_grad:
                b._accumulate(np.where(cond, 0.0, out.grad))

        out._backward = _backward if out.requires_grad else None
        return out
