"""Minimal reverse-mode autograd over NumPy arrays.

This is the neural-network substrate replacing PyTorch underneath the
DGL / PyG integrations of paper Section IV-G.  It implements exactly the
operator set GCN / GraphSAINT training needs: dense matmul, sparse-dense
matmul (dispatching to the library's SpMM kernels for *timing* while
computing numerics exactly), elementwise ops, dropout and softmax
cross-entropy.

Every operation optionally records its simulated GPU cost into a
:class:`~repro.gnn.timing.TimingContext`, so end-to-end training time is
a deterministic composition of kernel-model times — which is what Table V
compares.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    """A NumPy array with gradient tracking.

    Gradients accumulate in ``grad`` after :meth:`backward`.  The graph
    is built eagerly: each Tensor keeps its parents and a backward
    closure.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward = None
        self.name = name

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def detach(self) -> "Tensor":
        """A new leaf tensor sharing data, outside the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.astype(np.float32, copy=True)
        else:
            self.grad += g

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Reverse-mode sweep from this tensor.

        ``grad`` defaults to ones (for scalar losses, the usual seed).
        """
        if grad is None:
            grad = np.ones_like(self.data)
        # Iterative post-order DFS (parents before children, first-visit
        # order).  Not a recursive nested closure: one that calls itself
        # is a reference cycle, which would keep the whole graph — every
        # activation and gradient — alive until the cyclic GC happens to
        # run, making peak memory depend on when it does.
        topo: list[Tensor] = []
        seen = {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            t, parents = stack[-1]
            for p in parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    break
            else:
                stack.pop()
                topo.append(t)
        self._accumulate(np.asarray(grad, dtype=np.float32))
        for t in reversed(topo):
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)

    # ------------------------------------------------------------------
    # Operator sugar
    # ------------------------------------------------------------------
    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _make(
    data: np.ndarray, parents: tuple, backward, requires_grad: bool
) -> Tensor:
    out = Tensor(data, requires_grad=requires_grad)
    if requires_grad:
        out._parents = parents
        out._backward = backward
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (broadcast) addition."""
    req = a.requires_grad or b.requires_grad

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(a.data + b.data, (a, b), backward, req)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Dense matrix product with gradient."""
    req = a.requires_grad or b.requires_grad

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _make(a.data @ b.data, (a, b), backward, req)


def relu(a: Tensor) -> Tensor:
    """Rectified linear unit."""
    mask = a.data > 0

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g * mask)

    return _make(a.data * mask, (a,), backward, a.requires_grad)


def dropout(a: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return a
    keep = (rng.random(a.data.shape) >= p).astype(np.float32) / (1.0 - p)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g * keep)

    return _make(a.data * keep, (a,), backward, a.requires_grad)


def log_softmax(a: Tensor) -> Tensor:
    """Row-wise log-softmax (numerically stable)."""
    z = a.data - a.data.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(z).sum(axis=1, keepdims=True))
    out_data = z - logsum

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            softmax = np.exp(out_data)
            a._accumulate(g - softmax * g.sum(axis=1, keepdims=True))

    return _make(out_data, (a,), backward, a.requires_grad)


def nll_loss(logp: Tensor, labels: np.ndarray, weights: np.ndarray | None = None) -> Tensor:
    """Mean negative log-likelihood; optional per-sample weights
    (GraphSAINT's normalization coefficients)."""
    n = logp.data.shape[0]
    idx = (np.arange(n), np.asarray(labels))
    w = np.ones(n, dtype=np.float32) if weights is None else np.asarray(
        weights, dtype=np.float32
    )
    denom = float(w.sum()) or 1.0
    loss_val = -(logp.data[idx] * w).sum() / denom

    def backward(g: np.ndarray) -> None:
        if logp.requires_grad:
            grad = np.zeros_like(logp.data)
            grad[idx] = -w / denom
            logp._accumulate(grad * g)

    return _make(np.float32(loss_val), (logp,), backward, logp.requires_grad)


def cross_entropy(logits: Tensor, labels: np.ndarray, weights=None) -> Tensor:
    """Softmax cross-entropy = log_softmax + NLL."""
    return nll_loss(log_softmax(logits), labels, weights)
