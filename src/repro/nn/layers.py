"""Neural-network layers: Module base class plus the layers GARL needs.

The :class:`Module` protocol mirrors the familiar PyTorch one (parameters,
submodule discovery, state dicts) at the scale this reproduction requires.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from . import functional as F
from . import init as weight_init
from .tensor import Tensor, as_tensor

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "Flatten",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "LeakyReLU",
    "Sequential",
    "LayerNorm",
    "MLP",
]


class Parameter(Tensor):
    """A Tensor that is registered as a trainable parameter of a Module."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; they are discovered automatically for optimisation and
    (de)serialisation.
    """

    def __init__(self) -> None:
        self.training = True

    # -- discovery ------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth-first."""
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{full}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(f"{full}.{i}.")

    def parameters(self) -> list[Parameter]:
        """Every parameter of this module and its submodules."""
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module, then every registered submodule, depth-first."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # -- training state -------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively; returns ``self`` for chaining."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Shortcut for ``train(False)``."""
        return self.train(False)

    def zero_grad(self, set_to_none: bool = True) -> None:
        """Clear every parameter's gradient (dropped, or zero-filled)."""
        for p in self.parameters():
            p.zero_grad(set_to_none=set_to_none)

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the module's parameters (:data:`~repro.nn.init.DTYPE`
        for a module without any); forwards cast their inputs to it."""
        for _, p in self.named_parameters():
            return p.dtype
        return np.dtype(weight_init.DTYPE)

    def num_parameters(self) -> int:
        """Total count of scalar parameters."""
        return sum(p.size for p in self.parameters())

    # -- (de)serialisation ----------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Dotted-name -> copied-array snapshot of all parameters."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load a :meth:`state_dict` snapshot; strict on names, shapes and
        dtypes (a value is never cast)."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for name, p in own.items():
            value = np.asarray(state[name])
            if value.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {p.data.shape}")
            if value.dtype != p.data.dtype:
                raise ValueError(f"dtype mismatch for {name}: {value.dtype} vs {p.data.dtype}")
        for name, p in own.items():
            p.data = np.array(state[name])
            p.bump_version()

    # -- call protocol ----------------------------------------------------
    def forward(self, *args, **kwargs):
        """Compute the module's output (subclasses override)."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Fully connected layer ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None, init: str = "xavier_uniform",
                 gain: float = 1.0):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        initializer = getattr(weight_init, init)
        self.weight = Parameter(initializer((in_features, out_features), rng, gain=gain)
                                if init in ("xavier_uniform", "xavier_normal", "orthogonal")
                                else initializer((in_features, out_features), rng))
        self.bias = Parameter(weight_init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv2d(Module):
    """2D convolution layer over (N, C, H, W) inputs."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(weight_init.kaiming_uniform(shape, rng))
        self.bias = Parameter(weight_init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(as_tensor(x), self.weight, self.bias, stride=self.stride, padding=self.padding)


class MaxPool2d(Module):
    """Max pooling over ``kernel``-sized windows of (N, C, H, W) input."""
    def __init__(self, kernel: int = 2, stride: int | None = None):
        super().__init__()
        self.kernel = kernel
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(as_tensor(x), self.kernel, self.stride)


class Flatten(Module):
    """Flatten all but the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        return x.reshape(x.shape[0], -1)


class ReLU(Module):
    """Elementwise ``max(x, 0)`` activation."""
    def forward(self, x: Tensor) -> Tensor:
        return as_tensor(x).relu()


class Tanh(Module):
    """Elementwise hyperbolic-tangent activation."""
    def forward(self, x: Tensor) -> Tensor:
        return as_tensor(x).tanh()


class Sigmoid(Module):
    """Elementwise logistic-sigmoid activation."""
    def forward(self, x: Tensor) -> Tensor:
        return as_tensor(x).sigmoid()


class LeakyReLU(Module):
    """Leaky ReLU activation: ``x if x > 0 else slope * x``."""
    def __init__(self, slope: float = 0.01):
        super().__init__()
        self.slope = slope

    def forward(self, x: Tensor) -> Tensor:
        return as_tensor(x).leaky_relu(self.slope)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.weight = Parameter(weight_init.ones((dim,)))
        self.bias = Parameter(weight_init.zeros((dim,)))

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / (var + self.eps).sqrt()
        return normed * self.weight + self.bias


class MLP(Module):
    """Multi-layer perceptron with a configurable activation.

    ``sizes`` gives the full chain of layer widths, e.g. ``[64, 128, 5]``.
    The activation is applied between layers; ``output_activation`` (a
    Module factory or None) applies after the last layer.
    """

    def __init__(self, sizes: list[int], rng: np.random.Generator | None = None,
                 activation: Callable[[], Module] = Tanh,
                 output_activation: Callable[[], Module] | None = None,
                 init: str = "orthogonal", final_gain: float = 0.01):
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        rng = rng or np.random.default_rng(0)
        layers: list[Module] = []
        for i, (a, b) in enumerate(zip(sizes[:-1], sizes[1:])):
            last = i == len(sizes) - 2
            gain = final_gain if last else np.sqrt(2.0)
            layers.append(Linear(a, b, rng=rng, init=init, gain=gain))
            if not last:
                layers.append(activation())
            elif output_activation is not None:
                layers.append(output_activation())
        self.net = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)
