"""The autograd tape is freed by reference counting alone.

A backward closure that captured its own output tensor would put every
recorded node in a reference cycle, so a minibatch's graph — arrays,
gradients and all — would stay alive until Python's cyclic collector
happened to run.  Each test here disables the collector, builds and
backpropagates a graph, drops every reference, and requires that the
collector then finds nothing to free.
"""

from __future__ import annotations

import ast
import gc
import inspect
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import repro.core.ecomm as ecomm
import repro.core.mc_gcn as mc_gcn
import repro.nn.functional as F
import repro.nn.tensor as tensor_module
from repro.core.config import GARLConfig
from repro.core.garl import GARLAgent
from repro.env import AirGroundEnv
from repro.experiments.presets import get_preset
from repro.nn import GCNLayer, Parameter, Tensor


def _tape_ops() -> list[str]:
    """Every function in the engine or the fused MC-GCN and E-Comm nodes
    that records a backward closure."""
    found = []
    for prefix, module in (("Tensor.", tensor_module), ("F.", F),
                           ("mc_gcn.", mc_gcn), ("ecomm.", ecomm)):
        tree = ast.parse(inspect.getsource(module))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            if any(isinstance(t, ast.Attribute) and t.attr == "_backward"
                   for node in ast.walk(fn) if isinstance(node, ast.Assign)
                   for t in node.targets):
                found.append(prefix + fn.name)
    return sorted(found)


TAPE_OPS = _tape_ops()


def _leaf(*shape: int, low: float = -1.0, seed: int = 0) -> Tensor:
    data = np.random.default_rng(seed).uniform(low, 1.0, size=shape)
    return Tensor(data, requires_grad=True)


def _pos(*shape: int) -> Tensor:
    return _leaf(*shape, low=0.5, seed=1)


IDX = np.array([2, 0, 1])


def _mc_gcn_layer() -> Tensor:
    # Two centres on a 3-stop graph; one negative centre each, the
    # first on its own stop.
    return mc_gcn.mc_gcn_layer(
        _leaf(2, 3, 4), Parameter(np.eye(4)),
        GCNLayer(4, 2, rng=np.random.default_rng(0), activation="tanh"),
        np.full((3, 3), 1.0 / 3.0), _leaf(2, 3, seed=1).data,
        np.array([0, 2]), np.array([[0], [1]]))


def _ecomm_fused() -> Tensor:
    # Two replicas of three UGVs through two layers and the readout.
    config = GARLConfig(hidden_dim=4, ecomm_layers=2)
    module = ecomm.EComm(4, config, rng=np.random.default_rng(0))
    positions = np.random.default_rng(2).uniform(size=(2, 3, 2))
    return ecomm.ecomm_fused(_leaf(2, 3, 4), positions, np.eye(2), module.layers,
                             module.w3, module.phi_u)


def _diamond() -> Tensor:
    # ``h`` feeds two ops, so backward frees it only after both ran.
    h = _leaf(3).exp()
    return h * h + h


# One small graph per tape op; each returns the op's output.  Backward
# itself writes ``_backward`` when it frees the tape it walked.
CASES = {
    "Tensor.backward": _diamond,
    "Tensor.__add__": lambda: _leaf(3) + _leaf(3, seed=1),
    "Tensor.__neg__": lambda: -_leaf(3),
    "Tensor.__mul__": lambda: _leaf(3) * _leaf(3, seed=1),
    "Tensor.__truediv__": lambda: _leaf(3) / _pos(3),
    "Tensor.__pow__": lambda: _leaf(3) ** 2,
    "Tensor.__matmul__": lambda: _leaf(2, 3) @ _leaf(3, 4, seed=1),
    "Tensor.exp": lambda: _leaf(3).exp(),
    "Tensor.log": lambda: _pos(3).log(),
    "Tensor.tanh": lambda: _leaf(3).tanh(),
    "Tensor.sigmoid": lambda: _leaf(3).sigmoid(),
    "Tensor.relu": lambda: _leaf(3).relu(),
    "Tensor.leaky_relu": lambda: _leaf(3).leaky_relu(0.1),
    "Tensor.abs": lambda: _leaf(3).abs(),
    "Tensor.clip": lambda: _leaf(3).clip(-0.5, 0.5),
    "Tensor.sum": lambda: _leaf(2, 3).sum(axis=1),
    "Tensor.max": lambda: _leaf(2, 3).max(axis=1),
    "Tensor.reshape": lambda: _leaf(2, 3).reshape(3, 2),
    "Tensor.transpose": lambda: _leaf(2, 3).transpose(),
    "Tensor.__getitem__": lambda: _leaf(4)[1:],
    "Tensor.expand_dims": lambda: _leaf(3).expand_dims(0),
    "Tensor.squeeze": lambda: _leaf(1, 3).squeeze(0),
    "Tensor.softmax": lambda: _leaf(2, 3).softmax(axis=-1),
    "Tensor.log_softmax": lambda: _leaf(2, 3).log_softmax(axis=-1),
    "Tensor.concat": lambda: Tensor.concat([_leaf(2), _leaf(3, seed=1)]),
    "Tensor.stack": lambda: Tensor.stack([_leaf(3), _leaf(3, seed=1)]),
    "Tensor.where": lambda: Tensor.where(np.array([True, False, True]),
                                         _leaf(3), _leaf(3, seed=1)),
    "Tensor.maximum": lambda: Tensor.maximum(_leaf(3), _leaf(3, seed=1)),
    "Tensor.minimum": lambda: Tensor.minimum(_leaf(3), _leaf(3, seed=1)),
    "F.conv2d": lambda: F.conv2d(_leaf(1, 2, 4, 4), _leaf(3, 2, 3, 3, seed=1),
                                 _leaf(3, seed=2), padding=1),
    "F.max_pool2d": lambda: F.max_pool2d(_leaf(1, 2, 4, 4)),
    "F.avg_pool2d": lambda: F.avg_pool2d(_leaf(1, 2, 4, 4)),
    "F.gather": lambda: F.gather(_leaf(3, 4), IDX),
    "F.embedding_lookup": lambda: F.embedding_lookup(_leaf(5, 2), IDX),
    "mc_gcn.mc_gcn_layer": _mc_gcn_layer,
    "ecomm.ecomm_fused": _ecomm_fused,
}


def _cyclic_garbage(run) -> int:
    """Objects left in reference cycles by ``run()``, collector disabled."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def _backprop(out: Tensor) -> None:
    assert out._backward is not None, "the case recorded no tape"
    out.backward(np.ones_like(out.data))


def test_every_case_is_a_tape_op():
    assert sorted(CASES) == TAPE_OPS


@pytest.mark.parametrize("op", TAPE_OPS)
def test_op_tape_is_freed_by_reference_counting(op):
    case = CASES.get(op)
    assert case is not None, f"{op} records a backward closure: add a case"
    assert _cyclic_garbage(lambda: _backprop(case())) == 0


# ----------------------------------------------------------------------
# The real PPO losses on a smoke-preset GARL agent
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke_trainer(mini_kaist, kaist_stops):
    preset = get_preset("smoke")
    env = AirGroundEnv(mini_kaist, preset.env_config(num_ugvs=2, num_uavs_per_ugv=1),
                       stops=kaist_stops, seed=0)
    return GARLAgent(env, preset.garl_config()).trainer


@pytest.fixture(scope="module")
def smoke_batches(smoke_trainer):
    tr = smoke_trainer
    gamma, lam = tr.ppo.gamma, tr.ppo.gae_lambda
    ugv_roll, uav_roll, *_ = tr.collect_vec(1, num_envs=2)
    samples, *_ = tr.collect(episodes=2)
    return SimpleNamespace(ugv_roll=ugv_roll,
                           ugv=ugv_roll.flat_samples(gamma, lam),
                           uav=uav_roll.flat_samples(gamma, lam),
                           samples=samples)


def _ugv_loss_vec(tr, b):
    idx = np.arange(tr.ppo.minibatch_size)
    return tr._ugv_minibatch_loss_vec(b.ugv, idx, b.ugv.advantages)[0]


def _ugv_loss_seq(tr, b):
    idx = np.arange(tr.ppo.minibatch_size)
    adv = np.array([s.advantage for s in b.samples])
    return tr._ugv_minibatch_loss(b.samples, idx, adv)[0]


def _uav_loss(tr, b):
    f = b.uav
    i = np.arange(min(len(f), tr.ppo.minibatch_size))
    return tr._uav_loss_arrays(*f.crops(i), f.actions[i], f.log_probs[i],
                               f.advantages[i], f.values[i], f.returns[i],
                               np.asarray(tr.ppo.entropy_coef))[0]


@pytest.mark.parametrize("loss_fn", [_ugv_loss_vec, _ugv_loss_seq, _uav_loss],
                         ids=["ugv_vec", "ugv_seq", "uav"])
def test_ppo_loss_tape_is_freed_by_reference_counting(smoke_trainer, smoke_batches,
                                                      loss_fn):
    garbage = _cyclic_garbage(
        lambda: loss_fn(smoke_trainer, smoke_batches).backward())
    assert garbage == 0


@pytest.mark.parametrize("loss_fn", [_ugv_loss_vec, _ugv_loss_seq, _uav_loss],
                         ids=["ugv_vec", "ugv_seq", "uav"])
def test_ppo_loss_backward_frees_every_interior_node(smoke_trainer, smoke_batches,
                                                     loss_fn):
    loss = loss_fn(smoke_trainer, smoke_batches)
    interior, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if node._prev and id(node) not in interior:
            interior[id(node)] = node
            stack.extend(node._prev)
    interior = list(interior.values())
    assert len(interior) > 10
    policy = (smoke_trainer.uav_policy if loss_fn is _uav_loss
              else smoke_trainer.ugv_policy)
    policy.zero_grad()
    loss.backward()
    for node in interior:
        assert node.grad is None and node._prev == ()
        assert not callable(node._backward)
    assert all(p.grad is not None for p in policy.parameters())


def test_update_ugv_vec_memory_does_not_grow_per_minibatch(smoke_trainer, smoke_batches,
                                                          monkeypatch):
    """Peak traced memory over a whole update stays near one minibatch's.

    Backward frees each minibatch's graph before the next forward, so
    only one graph is ever alive: the whole update peaks 1.07x above
    the first step's peak.  Keeping the previous graph until the next
    forward had built its own read 1.25x.
    """
    optimizer = smoke_trainer.ugv_optimizer
    step = optimizer.step
    step_peaks = []

    def recording_step():
        step()
        step_peaks.append(tracemalloc.get_traced_memory()[1])

    monkeypatch.setattr(optimizer, "step", recording_step)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        smoke_trainer.update_ugv_vec(smoke_batches.ugv_roll)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    # Enough minibatches that a per-minibatch leak would exceed the bound.
    assert len(step_peaks) >= 6
    assert peak <= 1.15 * step_peaks[0], [p >> 10 for p in step_peaks]
