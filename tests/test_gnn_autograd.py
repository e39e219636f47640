"""Autograd engine: gradients checked against finite differences."""

import numpy as np
import pytest

from repro.gnn import (
    Tensor,
    add,
    cross_entropy,
    dropout,
    log_softmax,
    matmul,
    nll_loss,
    relu,
)


def numerical_grad(f, x, eps=1e-3):
    """Central finite differences of scalar-valued f at x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + eps
        hi = f()
        x[i] = orig - eps
        lo = f()
        x[i] = orig
        g[i] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


def test_matmul_gradients():
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    out = matmul(a, b)
    seed = rng.standard_normal(out.shape).astype(np.float32)
    out.backward(seed)

    def f_a():
        return float(((a.data @ b.data) * seed).sum())

    np.testing.assert_allclose(
        a.grad, numerical_grad(f_a, a.data), rtol=1e-2, atol=1e-2
    )
    np.testing.assert_allclose(b.grad, a.data.T @ seed, rtol=1e-5)


def test_add_broadcast_gradient():
    a = Tensor(np.zeros((3, 4), np.float32), requires_grad=True)
    bias = Tensor(np.zeros((1, 4), np.float32), requires_grad=True)
    out = add(a, bias)
    out.backward(np.ones((3, 4), np.float32))
    np.testing.assert_allclose(a.grad, 1.0)
    np.testing.assert_allclose(bias.grad, 3.0)  # summed over broadcast dim


def test_relu_gradient_masks_negative():
    a = Tensor(np.array([[-1.0, 2.0]], np.float32), requires_grad=True)
    out = relu(a)
    out.backward(np.ones_like(a.data))
    np.testing.assert_allclose(a.grad, [[0.0, 1.0]])
    np.testing.assert_allclose(out.data, [[0.0, 2.0]])


def test_log_softmax_rows_sum_to_one():
    a = Tensor(np.random.default_rng(1).standard_normal((5, 7)))
    out = log_softmax(a)
    np.testing.assert_allclose(
        np.exp(out.data).sum(axis=1), 1.0, rtol=1e-5
    )


def test_log_softmax_gradient_vs_numeric():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 3)).astype(np.float32)
    a = Tensor(x.copy(), requires_grad=True)
    seed = rng.standard_normal((2, 3)).astype(np.float32)
    log_softmax(a).backward(seed)

    def f():
        z = a.data - a.data.max(axis=1, keepdims=True)
        ls = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        return float((ls * seed).sum())

    np.testing.assert_allclose(
        a.grad, numerical_grad(f, a.data), rtol=2e-2, atol=2e-2
    )


def test_cross_entropy_gradient_vs_numeric():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 5)).astype(np.float32)
    labels = np.array([0, 2, 4, 1])
    a = Tensor(x.copy(), requires_grad=True)
    loss = cross_entropy(a, labels)
    loss.backward()

    def f():
        z = a.data - a.data.max(axis=1, keepdims=True)
        ls = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        return float(-np.mean(ls[np.arange(4), labels]))

    np.testing.assert_allclose(
        a.grad, numerical_grad(f, a.data), rtol=2e-2, atol=2e-2
    )


def test_nll_loss_weights():
    logp = Tensor(
        np.log(np.full((2, 2), 0.5, np.float32)), requires_grad=True
    )
    loss_uniform = nll_loss(logp, np.array([0, 1]))
    loss_weighted = nll_loss(
        logp, np.array([0, 1]), weights=np.array([1.0, 3.0])
    )
    # Both rows carry the same -log(0.5); weighting keeps the mean.
    np.testing.assert_allclose(loss_uniform.data, np.log(2), rtol=1e-5)
    np.testing.assert_allclose(loss_weighted.data, np.log(2), rtol=1e-5)


def test_dropout_modes():
    rng = np.random.default_rng(4)
    a = Tensor(np.ones((100, 10), np.float32), requires_grad=True)
    out_eval = dropout(a, 0.5, rng, training=False)
    assert out_eval is a  # identity when not training
    out_train = dropout(a, 0.5, rng, training=True)
    zeros = np.count_nonzero(out_train.data == 0)
    assert 300 < zeros < 700  # about half
    # Kept entries are scaled by 1/(1-p).
    kept = out_train.data[out_train.data != 0]
    np.testing.assert_allclose(kept, 2.0)


def test_gradient_accumulates_over_reuse():
    a = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
    out = add(a, a)
    out.backward(np.ones((2, 2), np.float32))
    np.testing.assert_allclose(a.grad, 2.0)


def test_backward_through_chain():
    a = Tensor(np.full((1, 4), 2.0, np.float32), requires_grad=True)
    w = Tensor(np.eye(4, dtype=np.float32), requires_grad=True)
    out = relu(matmul(a, w))
    out.backward(np.ones((1, 4), np.float32))
    np.testing.assert_allclose(a.grad, 1.0)


def test_backward_leaves_no_reference_cycle():
    """The graph is freed by reference counting alone once dropped, so
    peak memory never waits on the cyclic garbage collector."""
    import gc

    gc.collect()
    gc.disable()
    try:
        a = Tensor(np.full((3, 4), 2.0, np.float32), requires_grad=True)
        w = Tensor(np.eye(4, dtype=np.float32), requires_grad=True)
        out = relu(add(matmul(a, w), a))
        out.backward(np.ones((3, 4), np.float32))
        np.testing.assert_allclose(a.grad, 2.0)
        del a, w, out
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_detach_blocks_gradient():
    a = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
    d = a.detach()
    assert not d.requires_grad
    np.testing.assert_array_equal(d.data, a.data)
