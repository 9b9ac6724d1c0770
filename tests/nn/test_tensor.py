"""Unit tests for the autograd Tensor: forward math and backward passes."""

import numpy as np
import pytest

from repro.nn import Tensor, as_tensor, no_grad

from .gradcheck import check_gradient


class TestConstruction:
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_float_arrays_are_kept_not_copied(self, dtype):
        arr = np.arange(6, dtype=dtype).reshape(2, 3)
        t = Tensor(arr)
        assert t.data is arr
        assert t.dtype == dtype

    @pytest.mark.parametrize("value", [
        np.arange(3), np.array([True, False]), 3, 2.5, True, [1, 2, 3],
        [[1.0, 2.0]]])
    def test_everything_else_becomes_float64(self, value):
        t = Tensor(value)
        assert t.dtype == np.float64
        np.testing.assert_array_equal(t.data, np.asarray(value, dtype=np.float64))

    def test_non_float_arrays_are_not_aliased(self):
        arr = np.arange(3)
        t = Tensor(arr)
        arr[0] = 7
        assert t.data[0] == 0.0


class TestForwardMath:
    def test_add_matches_numpy(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([10.0, 20.0])
        np.testing.assert_allclose((Tensor(a) + Tensor(b)).numpy(), a + b)

    def test_sub_mul_div(self):
        a, b = np.array([3.0, 8.0]), np.array([2.0, 4.0])
        np.testing.assert_allclose((Tensor(a) - Tensor(b)).numpy(), a - b)
        np.testing.assert_allclose((Tensor(a) * Tensor(b)).numpy(), a * b)
        np.testing.assert_allclose((Tensor(a) / Tensor(b)).numpy(), a / b)

    def test_scalar_operands(self):
        a = np.array([1.0, 2.0])
        np.testing.assert_allclose((2.0 + Tensor(a)).numpy(), a + 2.0)
        np.testing.assert_allclose((3.0 * Tensor(a)).numpy(), 3.0 * a)
        np.testing.assert_allclose((1.0 - Tensor(a)).numpy(), 1.0 - a)
        np.testing.assert_allclose((6.0 / Tensor(a)).numpy(), 6.0 / a)

    def test_matmul_shapes(self):
        a = Tensor(np.ones((3, 4)))
        b = Tensor(np.ones((4, 5)))
        assert (a @ b).shape == (3, 5)

    def test_matmul_vector_cases(self):
        m = np.arange(6.0).reshape(2, 3)
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose((Tensor(m) @ Tensor(v)).numpy(), m @ v)
        np.testing.assert_allclose((Tensor(v) @ Tensor(m.T)).numpy(), v @ m.T)
        np.testing.assert_allclose((Tensor(v) @ Tensor(v)).numpy(), v @ v)

    def test_pow_and_sqrt(self):
        a = np.array([1.0, 4.0, 9.0])
        np.testing.assert_allclose((Tensor(a) ** 2).numpy(), a**2)
        np.testing.assert_allclose(Tensor(a).sqrt().numpy(), np.sqrt(a))

    def test_reductions(self):
        a = np.arange(12.0).reshape(3, 4)
        t = Tensor(a)
        assert t.sum().item() == a.sum()
        np.testing.assert_allclose(t.sum(axis=0).numpy(), a.sum(axis=0))
        np.testing.assert_allclose(t.mean(axis=1, keepdims=True).numpy(),
                                   a.mean(axis=1, keepdims=True))
        np.testing.assert_allclose(t.max(axis=1).numpy(), a.max(axis=1))
        np.testing.assert_allclose(t.min().numpy(), a.min())

    def test_softmax_rows_sum_to_one(self):
        t = Tensor(np.random.default_rng(0).normal(size=(5, 7)))
        rows = t.softmax(axis=-1).numpy().sum(axis=-1)
        np.testing.assert_allclose(rows, np.ones(5), atol=1e-12)

    def test_log_softmax_consistency(self):
        x = np.random.default_rng(1).normal(size=(4, 6))
        np.testing.assert_allclose(Tensor(x).log_softmax().numpy(),
                                   np.log(Tensor(x).softmax().numpy()), atol=1e-10)

    def test_shape_ops(self):
        t = Tensor(np.arange(24.0).reshape(2, 3, 4))
        assert t.reshape(6, 4).shape == (6, 4)
        assert t.flatten().shape == (24,)
        assert t.transpose().shape == (4, 3, 2)
        assert t.swapaxes(0, 1).shape == (3, 2, 4)
        assert t.expand_dims(1).shape == (2, 1, 3, 4)
        assert t.expand_dims(1).squeeze(1).shape == (2, 3, 4)

    def test_getitem(self):
        a = np.arange(12.0).reshape(3, 4)
        np.testing.assert_allclose(Tensor(a)[1].numpy(), a[1])
        np.testing.assert_allclose(Tensor(a)[:, 2].numpy(), a[:, 2])
        idx = np.array([0, 2])
        np.testing.assert_allclose(Tensor(a)[idx].numpy(), a[idx])

    def test_concat_stack(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 3)))
        assert Tensor.concat([a, b], axis=0).shape == (4, 3)
        assert Tensor.concat([a, b], axis=1).shape == (2, 6)
        assert Tensor.stack([a, b], axis=0).shape == (2, 2, 3)

    def test_where_maximum_minimum(self):
        a, b = np.array([1.0, 5.0]), np.array([4.0, 2.0])
        np.testing.assert_allclose(Tensor.maximum(Tensor(a), Tensor(b)).numpy(), [4.0, 5.0])
        np.testing.assert_allclose(Tensor.minimum(Tensor(a), Tensor(b)).numpy(), [1.0, 2.0])
        np.testing.assert_allclose(
            Tensor.where(a > b, Tensor(a), Tensor(b)).numpy(), [4.0, 5.0])

    def test_clip(self):
        t = Tensor(np.array([-2.0, 0.5, 3.0]))
        np.testing.assert_allclose(t.clip(-1.0, 1.0).numpy(), [-1.0, 0.5, 1.0])

    def test_norm(self):
        v = np.array([3.0, 4.0])
        assert Tensor(v).norm().item() == pytest.approx(5.0, abs=1e-6)

    def test_int_input_promoted_to_float(self):
        t = Tensor([1, 2, 3])
        assert np.issubdtype(t.dtype, np.floating)


class TestBackward:
    def test_add_backward_broadcast(self):
        check_gradient(lambda t: t + Tensor(np.ones(3)), np.random.default_rng(0).normal(size=(2, 3)))

    def test_mul_backward(self):
        other = Tensor(np.array([2.0, -1.0, 0.5]))
        check_gradient(lambda t: t * other, np.random.default_rng(1).normal(size=(4, 3)))

    def test_div_backward_both_sides(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 3)) + 3.0
        check_gradient(lambda t: Tensor(np.ones((3, 3))) / t, x)
        check_gradient(lambda t: t / Tensor(x), rng.normal(size=(3, 3)))

    def test_matmul_backward(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.normal(size=(4, 5)))
        check_gradient(lambda t: t @ w, rng.normal(size=(3, 4)))
        x = Tensor(rng.normal(size=(3, 4)))
        check_gradient(lambda t: x @ t, rng.normal(size=(4, 5)))

    def test_matmul_vector_backward(self):
        rng = np.random.default_rng(4)
        v = Tensor(rng.normal(size=4))
        check_gradient(lambda t: t @ v, rng.normal(size=(3, 4)))

    @pytest.mark.parametrize("op_name", ["exp", "log", "tanh", "sigmoid", "relu", "abs"])
    def test_unary_backward(self, op_name):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 4))
        if op_name == "log":
            x = np.abs(x) + 0.5
        if op_name in ("relu", "abs"):
            x = x + np.sign(x) * 0.05  # keep away from the kink
        check_gradient(lambda t: getattr(t, op_name)(), x)

    def test_softmax_backward(self):
        check_gradient(lambda t: t.softmax(axis=-1), np.random.default_rng(6).normal(size=(3, 5)))

    def test_log_softmax_backward(self):
        check_gradient(lambda t: t.log_softmax(axis=-1), np.random.default_rng(7).normal(size=(3, 5)))

    def test_sum_mean_backward(self):
        rng = np.random.default_rng(8)
        check_gradient(lambda t: t.sum(axis=0), rng.normal(size=(3, 4)))
        check_gradient(lambda t: t.mean(axis=1, keepdims=True), rng.normal(size=(3, 4)))

    def test_max_backward_unique(self):
        x = np.array([[1.0, 5.0, 2.0], [7.0, 0.0, 3.0]])
        check_gradient(lambda t: t.max(axis=1), x)

    def test_max_backward_splits_ties(self):
        t = Tensor(np.array([2.0, 2.0]), requires_grad=True)
        t.max().backward()
        np.testing.assert_allclose(t.grad, [0.5, 0.5])

    def test_getitem_backward(self):
        idx = np.array([0, 2, 2])
        check_gradient(lambda t: t[idx], np.random.default_rng(9).normal(size=(4, 3)))

    def test_getitem_duplicate_index_accumulates(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        out = t[np.array([1, 1])]
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 2.0, 0.0])

    def test_reshape_transpose_backward(self):
        rng = np.random.default_rng(10)
        check_gradient(lambda t: t.reshape(6, 2), rng.normal(size=(3, 4)))
        check_gradient(lambda t: t.transpose(), rng.normal(size=(3, 4)))

    def test_concat_backward(self):
        rng = np.random.default_rng(11)
        other = Tensor(rng.normal(size=(2, 3)))
        check_gradient(lambda t: Tensor.concat([t, other], axis=0), rng.normal(size=(2, 3)))

    def test_stack_backward(self):
        rng = np.random.default_rng(12)
        other = Tensor(rng.normal(size=(2, 3)))
        check_gradient(lambda t: Tensor.stack([t, other], axis=1), rng.normal(size=(2, 3)))

    def test_clip_backward_passthrough_region(self):
        x = np.array([-0.5, 0.2, 0.9])
        check_gradient(lambda t: t.clip(-1.0, 1.0), x)

    def test_clip_blocks_gradient_outside(self):
        t = Tensor(np.array([5.0]), requires_grad=True)
        t.clip(-1.0, 1.0).backward(np.array([1.0]))
        np.testing.assert_allclose(t.grad, [0.0])

    def test_norm_backward(self):
        check_gradient(lambda t: t.norm(axis=-1), np.random.default_rng(13).normal(size=(3, 4)) + 2.0)

    def test_diamond_graph_accumulates(self):
        # y = x*x + x*x must give dy/dx = 4x, requiring accumulation.
        t = Tensor(np.array([3.0]), requires_grad=True)
        y = t * t + t * t
        y.backward(np.array([1.0]))
        np.testing.assert_allclose(t.grad, [12.0])

    def test_deep_chain(self):
        t = Tensor(np.array([0.5]), requires_grad=True)
        out = t
        for _ in range(50):
            out = out * 1.01
        out.backward(np.array([1.0]))
        np.testing.assert_allclose(t.grad, [1.01**50], rtol=1e-10)


class TestGraphSemantics:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(2)).backward()

    def test_backward_nonscalar_needs_grad_argument(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_no_grad_blocks_graph(self):
        t = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            out = t * 2
        assert not out.requires_grad
        assert out._backward is None

    def test_no_grad_restores(self):
        with no_grad():
            pass
        t = Tensor(np.ones(1), requires_grad=True)
        assert (t * 2).requires_grad

    def test_detach(self):
        t = Tensor(np.ones(2), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.numpy() is t.numpy()  # shares storage

    def test_copy_is_independent(self):
        t = Tensor(np.ones(2))
        c = t.copy()
        c.data[0] = 99.0
        assert t.data[0] == 1.0

    def test_zero_grad(self):
        t = Tensor(np.ones(1), requires_grad=True)
        (t * 3).backward(np.array([1.0]))
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None

    def test_as_tensor_passthrough(self):
        t = Tensor(np.ones(2))
        assert as_tensor(t) is t
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor(np.ones(2)) ** Tensor(np.ones(2))

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor(np.ones(1), requires_grad=True))

    def test_constructors(self):
        assert Tensor.zeros(2, 3).shape == (2, 3)
        assert Tensor.ones(4).numpy().sum() == 4.0


def test_constants_take_the_tensor_operand_dtype():
    """A non-Tensor operand is a constant in the Tensor's dtype, so a
    float32 graph stays float32 and a float64 one float64; two Tensors
    follow numpy's promotion."""
    mask = np.array([True, False, True])
    for dtype in (np.float32, np.float64):
        x = Tensor(np.arange(1.0, 4.0, dtype=dtype), requires_grad=True)
        other = np.ones(3, dtype=np.float64 if dtype == np.float32 else np.float32)
        outs = [x + 1.0, 2.0 * x, x - other, 1.0 - x, 1.0 / x, x / np.float64(3.0),
                x @ other, Tensor.maximum(x, 0.5), Tensor.minimum(0.5, x),
                Tensor.where(mask, x, 0.0), x.leaky_relu(0.1)]
        for out in outs:
            assert out.dtype == dtype
        sum(out.sum() for out in outs).backward()
        assert x.grad.dtype == dtype
    mixed = Tensor(np.ones(2, dtype=np.float32)) + Tensor(np.ones(2))
    assert mixed.dtype == np.float64
