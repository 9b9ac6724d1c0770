"""Property-based gradient checks for the autograd engine (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays, basic_indices

from repro.nn import Tensor

from .gradcheck import check_gradient

SETTINGS = dict(max_examples=25, deadline=None)


def finite_arrays(min_dims=1, max_dims=2, min_side=1, max_side=4,
                  min_value=-3.0, max_value=3.0):
    return arrays(
        dtype=np.float64,
        shape=array_shapes(min_dims=min_dims, max_dims=max_dims,
                           min_side=min_side, max_side=max_side),
        elements=st.floats(min_value=min_value, max_value=max_value,
                           allow_nan=False, allow_infinity=False),
    )


@settings(**SETTINGS)
@given(finite_arrays())
def test_add_gradient(x):
    check_gradient(lambda t: t + t * 0.5, x)


@settings(**SETTINGS)
@given(finite_arrays())
def test_mul_gradient(x):
    check_gradient(lambda t: t * t, x)


@settings(**SETTINGS)
@given(finite_arrays())
def test_tanh_gradient(x):
    check_gradient(lambda t: t.tanh(), x)


@settings(**SETTINGS)
@given(finite_arrays())
def test_sigmoid_gradient(x):
    check_gradient(lambda t: t.sigmoid(), x)


@settings(**SETTINGS)
@given(finite_arrays())
def test_exp_gradient(x):
    check_gradient(lambda t: t.exp(), x)


@settings(**SETTINGS)
@given(finite_arrays(min_value=0.1, max_value=5.0))
def test_log_gradient(x):
    check_gradient(lambda t: t.log(), x)


@settings(**SETTINGS)
@given(finite_arrays(min_dims=2, max_dims=2))
def test_softmax_gradient(x):
    check_gradient(lambda t: t.softmax(axis=-1), x, atol=1e-4)


@settings(**SETTINGS)
@given(finite_arrays(min_dims=2, max_dims=2))
def test_log_softmax_gradient(x):
    check_gradient(lambda t: t.log_softmax(axis=-1), x, atol=1e-4)


@settings(**SETTINGS)
@given(finite_arrays())
def test_sum_gradient(x):
    check_gradient(lambda t: t.sum(), x)


@settings(**SETTINGS)
@given(finite_arrays())
def test_mean_gradient(x):
    check_gradient(lambda t: t.mean(), x)


@settings(**SETTINGS)
@given(finite_arrays(min_dims=2, max_dims=2, min_side=2))
def test_matmul_gradient(x):
    w = np.random.default_rng(0).normal(size=(x.shape[-1], 3))
    check_gradient(lambda t: t @ Tensor(w), x)


@settings(**SETTINGS)
@given(finite_arrays(min_dims=2, max_dims=2))
def test_norm_gradient(x):
    # Shift away from zero where the norm is non-differentiable.
    check_gradient(lambda t: t.norm(axis=-1), x + 5.0)


@settings(**SETTINGS)
@given(finite_arrays())
def test_softmax_is_simplex(x):
    soft = Tensor(x).softmax(axis=-1).numpy()
    assert (soft >= 0).all()
    np.testing.assert_allclose(soft.sum(axis=-1), np.ones(x.shape[:-1]), atol=1e-9)


@settings(**SETTINGS)
@given(finite_arrays())
def test_detach_breaks_gradient_flow(x):
    t = Tensor(x, requires_grad=True)
    out = (t.detach() * 2.0).sum() + (t * 3.0).sum()
    out.backward()
    np.testing.assert_allclose(t.grad, np.full_like(x, 3.0))


@settings(**SETTINGS)
@given(finite_arrays(min_dims=2, max_dims=2))
def test_transpose_involution(x):
    np.testing.assert_array_equal(Tensor(x).transpose().transpose().numpy(), x)


@settings(**SETTINGS)
@given(finite_arrays(), st.floats(min_value=-1.0, max_value=0.0),
       st.floats(min_value=0.1, max_value=1.5))
def test_clip_bounds_hold(x, low, high):
    clipped = Tensor(x).clip(low, high).numpy()
    assert (clipped >= low - 1e-12).all()
    assert (clipped <= high + 1e-12).all()


# Upstream gradients: finite values, with -0.0 drawn often on purpose.
_UPSTREAM = st.one_of(st.just(-0.0), st.floats(
    min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False))


@st.composite
def _basic_slicing(draw):
    shape = draw(array_shapes(min_dims=1, max_dims=3, max_side=5))
    index = draw(basic_indices(shape, allow_newaxis=True,
                               allow_ellipsis=True))
    return shape, index


@settings(**SETTINGS)
@given(_basic_slicing(), st.data())
def test_basic_index_backward_bytes_match_add_at(case, data):
    """The view fast path for ints, slices (negative steps too), Ellipsis
    and None gives the same gradient bytes as ``np.add.at``."""
    shape, index = case
    t = Tensor(np.zeros(shape), requires_grad=True)
    out = t[index]
    upstream = data.draw(arrays(np.float64, out.shape, elements=_UPSTREAM))
    out.backward(upstream)
    expected = np.zeros(shape)
    np.add.at(expected, index, upstream)
    assert t.grad.tobytes() == expected.tobytes()


@settings(**SETTINGS)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.integers(min_value=-n, max_value=n - 1), min_size=1, max_size=12))))
def test_duplicate_advanced_indices_accumulate(case):
    n, picks = case
    t = Tensor(np.zeros(n), requires_grad=True)
    t[np.array(picks)].sum().backward()
    expected = np.bincount(np.array(picks) % n, minlength=n).astype(float)
    np.testing.assert_array_equal(t.grad, expected)
