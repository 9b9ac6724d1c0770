"""``repro.nn`` — a from-scratch numpy neural-network substrate.

The paper trained GARL with PyTorch on GPUs; this package provides the
same building blocks (autograd tensors, dense/conv/recurrent/graph layers,
Adam, PPO-style distributions) so the whole system runs offline on CPU.
"""

from . import functional
from .anomaly import (
    AnomalyError,
    InplaceMutationError,
    annotate,
    detect_anomaly,
    is_anomaly_enabled,
)
from .attention import MultiHeadAttention, ScaledDotProductAttention, SelfAttentionBlock
from .distributions import Categorical, DiagGaussian
from .graph import GATLayer, GCNLayer, normalized_laplacian
from .init import DTYPE
from .layers import (
    MLP,
    Conv2d,
    Flatten,
    LayerNorm,
    LeakyReLU,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from .optim import SGD, Adam, Optimizer, RMSProp, clip_grad_norm
from .recurrent import GRUCell, LSTMCell
from .serialize import (
    CheckpointMismatchError,
    atomic_savez,
    atomic_write_bytes,
    load_checkpoint,
    rng_from_state,
    rng_state,
    save_checkpoint,
    set_rng_state,
    validate_state_dict,
)
from .tensor import Tensor, as_tensor, enable_grad, is_grad_enabled, no_grad
from .tracer import TapeRecord, active_trace, is_tracing, trace

__all__ = [
    "DTYPE",
    "functional",
    "Tensor",
    "as_tensor",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "detect_anomaly",
    "is_anomaly_enabled",
    "trace",
    "is_tracing",
    "active_trace",
    "TapeRecord",
    "annotate",
    "AnomalyError",
    "InplaceMutationError",
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
    "LSTMCell",
    "GRUCell",
    "GCNLayer",
    "GATLayer",
    "normalized_laplacian",
    "ScaledDotProductAttention",
    "MultiHeadAttention",
    "SelfAttentionBlock",
    "Categorical",
    "DiagGaussian",
    "Optimizer",
    "SGD",
    "Adam",
    "RMSProp",
    "clip_grad_norm",
    "save_checkpoint",
    "load_checkpoint",
    "validate_state_dict",
    "CheckpointMismatchError",
    "atomic_savez",
    "atomic_write_bytes",
    "rng_state",
    "rng_from_state",
    "set_rng_state",
]
