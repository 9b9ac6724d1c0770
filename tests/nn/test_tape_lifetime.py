"""Backward frees the tape it walks.

Once an interior node's closure has run, the node drops its gradient,
closure and parent links; leaves keep their gradients.  A later backward
that reaches a freed node raises before it touches any gradient.  Under
``detect_anomaly()`` the tape is kept whole.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Parameter, Tensor, detect_anomaly


def _graph():
    """A small graph over a parameter, a grad input and a constant.

    ``h`` feeds two ops, so the walk must run both before freeing it.
    Returns the loss, its interior nodes and its grad-requiring leaves.
    """
    w = Parameter(np.array([0.5, -1.0, 2.0]))
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    c = Tensor(np.array([3.0, 1.0, 2.0]))
    wx = w * x
    h = wx.tanh()
    hc = h * c
    e = h.exp()
    y = hc + e
    loss = y.sum()
    return loss, [wx, h, hc, e, y, loss], [w, x]


def test_backward_frees_interior_nodes_and_keeps_leaf_grads():
    loss, interior, leaves = _graph()
    loss.backward()
    for node in interior:
        assert node.grad is None
        assert node._prev == ()
        assert not callable(node._backward)
        assert node.requires_grad
    for leaf in leaves:
        assert leaf.grad is not None and leaf.grad.shape == (3,)
    # Forward values stay readable.
    assert np.isfinite(loss.item())


def test_freed_gradients_match_the_kept_tape():
    loss, _, (w, x) = _graph()
    loss.backward()
    with detect_anomaly():
        kept, _, (w_kept, x_kept) = _graph()
        kept.backward()
    assert w.grad.tobytes() == w_kept.grad.tobytes()
    assert x.grad.tobytes() == x_kept.grad.tobytes()


def test_second_backward_of_the_same_loss_raises():
    loss, _, (w, _) = _graph()
    loss.backward()
    before = w.grad.copy()
    with pytest.raises(RuntimeError, match="'sum'.*already freed"):
        loss.backward()
    np.testing.assert_array_equal(w.grad, before)


def test_second_loss_on_a_freed_node_raises_before_any_gradient():
    w = Parameter(np.array([1.0, 2.0]))
    v = Parameter(np.array([3.0, 4.0]))
    h = (w * 2.0).exp()
    h.sum().backward()
    w_grad = w.grad.copy()
    # ``mul``'s closure would give ``v`` a gradient before the walk got
    # to ``h``: the freed node must be found before any closure runs.
    second = (h * v).sum()
    with pytest.raises(RuntimeError, match="'exp'.*already freed"):
        second.backward()
    assert v.grad is None
    np.testing.assert_array_equal(w.grad, w_grad)


def test_leaf_backward_only_accumulates():
    w = Parameter(np.array([1.0, 2.0]))
    w.backward(np.ones(2))
    w.backward(np.ones(2))
    np.testing.assert_array_equal(w.grad, [2.0, 2.0])


def test_anomaly_mode_keeps_the_tape():
    with detect_anomaly():
        loss, interior, (w, _) = _graph()
        loss.backward()
        for node in interior:
            assert node.grad is not None
            assert callable(node._backward)
        assert all(node._prev for node in interior)
        # A second backward walks the kept tape again (and, as it always
        # has, re-adds the interior gradients the first one left).
        first = w.grad.copy()
        loss.backward()
    assert not np.array_equal(w.grad, first)

