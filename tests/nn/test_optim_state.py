"""Property-based round-trip tests for optimiser state and rng capture.

The checkpoint subsystem's resume ≡ uninterrupted invariant rests on two
primitives being exact: (a) an optimiser restored from its state dict
continues the *identical* update sequence, and (b) a Generator rebuilt
from a captured bit-generator state continues the *identical* draw
sequence.  Hypothesis drives both across random seeds and split points.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import MLP, SGD, Adam, RMSProp, Tensor
from repro.nn.serialize import rng_from_state, rng_state, set_rng_state

SETTINGS = dict(max_examples=20, deadline=None)


def _make_pair(seed):
    """Two architecture-identical MLPs with *different* init weights."""
    a = MLP([3, 6, 2], rng=np.random.default_rng(seed))
    b = MLP([3, 6, 2], rng=np.random.default_rng(seed + 1))
    return a, b


def _train_steps(model, opt, steps, seed):
    """Run deterministic regression steps; data depends only on ``seed``."""
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        x = Tensor(rng.normal(size=(5, 3)))
        target = rng.normal(size=(5, 2))
        opt.zero_grad()
        loss = ((model(x) - Tensor(target)) ** 2).mean()
        loss.backward()
        opt.step()


def _params(model):
    return [p.data.copy() for p in model.parameters()]


OPTIMIZERS = {
    "adam": lambda params: Adam(params, lr=1e-2, betas=(0.9, 0.99),
                                weight_decay=1e-3),
    "sgd": lambda params: SGD(params, lr=1e-2, momentum=0.9),
    "rmsprop": lambda params: RMSProp(params, lr=1e-3),
}


@settings(**SETTINGS)
@given(seed=st.integers(0, 2**16), warm=st.integers(0, 6),
       cont=st.integers(1, 6),
       kind=st.sampled_from(sorted(OPTIMIZERS)))
def test_optimizer_state_round_trip_continues_identically(seed, warm, cont, kind):
    """split-at-``warm`` resume reproduces the uninterrupted trajectory.

    Model A trains ``warm + cont`` steps straight through.  Model B
    copies A's weights+optimiser state at step ``warm`` (via the state
    dicts only) and trains the remaining ``cont`` steps on the same
    data stream.  Final parameters must agree bit-for-bit.
    """
    a, b = _make_pair(seed)
    opt_a = OPTIMIZERS[kind](a.parameters())

    _train_steps(a, opt_a, warm, seed=seed)

    # Transfer *only* through the serialisable state dicts.
    for p_b, p_a in zip(b.parameters(), a.parameters()):
        p_b.data = p_a.data.copy()
    opt_b = OPTIMIZERS[kind](b.parameters())
    opt_b.load_state_dict(opt_a.state_dict())

    # Continue both on an identical data stream (fresh rng per phase so
    # A's and B's continuation draws coincide).
    _train_steps(a, opt_a, cont, seed=seed + 7)
    _train_steps(b, opt_b, cont, seed=seed + 7)

    for arr_a, arr_b in zip(_params(a), _params(b)):
        np.testing.assert_array_equal(arr_a, arr_b)


@settings(**SETTINGS)
@given(seed=st.integers(0, 2**16), warm=st.integers(1, 5))
def test_adam_state_dict_round_trips_exactly(seed, warm):
    """state_dict → load_state_dict is lossless for moments and step count."""
    model = MLP([3, 6, 2], rng=np.random.default_rng(seed))
    opt = Adam(model.parameters(), lr=3e-3)
    _train_steps(model, opt, warm, seed=seed)
    state = opt.state_dict()

    other = Adam(model.parameters(), lr=1.0)  # wrong lr, zero moments
    other.load_state_dict(state)
    assert other._t == opt._t
    assert other.lr == opt.lr
    assert (other.beta1, other.beta2) == (opt.beta1, opt.beta2)
    for m1, m2 in zip(opt._m, other._m):
        np.testing.assert_array_equal(m1, m2)
    for v1, v2 in zip(opt._v, other._v):
        np.testing.assert_array_equal(v1, v2)


def test_load_state_dict_rejects_wrong_shapes():
    big = MLP([3, 8, 2], rng=np.random.default_rng(0))
    small = MLP([3, 4, 2], rng=np.random.default_rng(0))
    state = Adam(big.parameters(), lr=1e-3).state_dict()
    with pytest.raises(ValueError, match="shape"):
        Adam(small.parameters(), lr=1e-3).load_state_dict(state)


def test_load_state_dict_rejects_missing_slots():
    model = MLP([3, 4, 2], rng=np.random.default_rng(0))
    opt = Adam(model.parameters(), lr=1e-3)
    state = opt.state_dict()
    del state["_m.0"]
    with pytest.raises(KeyError, match="_m.0"):
        opt.load_state_dict(state)


def test_load_state_dict_validates_before_mutating():
    """A bad state dict must leave the optimiser untouched."""
    model = MLP([3, 4, 2], rng=np.random.default_rng(0))
    opt = Adam(model.parameters(), lr=1e-3)
    _train_steps(model, opt, 2, seed=0)
    moments = [m.copy() for m in opt._m]
    bad = opt.state_dict()
    bad["_v.0"] = np.zeros((99, 99))
    with pytest.raises(ValueError):
        opt.load_state_dict(bad)
    for before, after in zip(moments, opt._m):
        np.testing.assert_array_equal(before, after)


# ----------------------------------------------------------------------
# rng stream capture
# ----------------------------------------------------------------------

@settings(**SETTINGS)
@given(seed=st.integers(0, 2**32 - 1), burn=st.integers(0, 40),
       draws=st.integers(1, 40))
def test_rng_capture_resumes_stream_exactly(seed, burn, draws):
    """A Generator rebuilt mid-stream continues the identical sequence."""
    rng = np.random.default_rng(seed)
    rng.normal(size=burn)
    state = rng_state(rng)

    resumed = rng_from_state(state)
    np.testing.assert_array_equal(rng.normal(size=draws),
                                  resumed.normal(size=draws))
    # And the mixed-draw tail stays aligned too.
    assert rng.integers(0, 1000, size=5).tolist() == \
        resumed.integers(0, 1000, size=5).tolist()


@settings(**SETTINGS)
@given(seed=st.integers(0, 2**32 - 1), burn=st.integers(0, 16))
def test_rng_state_survives_json(seed, burn):
    """The captured state is JSON-clean (128-bit counters included)."""
    import json

    rng = np.random.default_rng(seed)
    rng.random(size=burn)
    state = json.loads(json.dumps(rng_state(rng)))
    resumed = rng_from_state(state)
    np.testing.assert_array_equal(rng.random(size=8), resumed.random(size=8))


def test_set_rng_state_repositions_existing_generator():
    source = np.random.default_rng(3)
    source.normal(size=11)
    state = rng_state(source)
    target = np.random.default_rng(999)
    set_rng_state(target, state)
    np.testing.assert_array_equal(source.normal(size=6), target.normal(size=6))


def test_adam_slots_are_kept_saved_and_restored_in_the_parameter_dtype():
    model = MLP([3, 6, 2], rng=np.random.default_rng(0))
    opt = Adam(model.parameters(), lr=1e-2)
    _train_steps(model, opt, 3, seed=1)
    state = opt.state_dict()
    slots = {k: v for k, v in state.items() if isinstance(v, np.ndarray)}
    assert slots and all(v.dtype == np.float32 for v in slots.values())

    restored = Adam(model.parameters(), lr=1e-2)
    restored.load_state_dict(state)
    for key, value in restored.state_dict().items():
        if key in slots:
            assert value.dtype == np.float32
            assert value.tobytes() == slots[key].tobytes()

    # A float64 slot (a float64-era checkpoint) is refused, not cast.
    key = sorted(slots)[0]
    with pytest.raises(ValueError, match="dtype float64"):
        Adam(model.parameters(), lr=1e-2).load_state_dict(
            {**state, key: slots[key].astype(np.float64)})
