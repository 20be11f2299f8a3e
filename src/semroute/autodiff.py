"""Minimal reverse-mode tape over float64 numpy arrays.

Only the operations the routing/loss graph actually needs are provided.
Gradients are checked against `numerics.finite_difference_gradient` in the
test suite; the tape is confined to one training step on one thread.

Only tensors on the tape (parameters and op results with a tape parent)
carry a `grad` buffer; constants carry `grad = None`, and a backward pass
writes no term for them. A forward over constants alone therefore keeps
no closures and no gradient buffers. Each backward closure receives its
output's gradient as an argument instead of holding the output tensor, so
the tape has no reference cycles and is freed as soon as the loss is
dropped, without waiting for the cyclic garbage collector.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, ShapeError
from .numerics import PROB_EPS, sigmoid


class Tensor:
    """A value on the tape. `grad` is zero until `backward()` runs, and
    None for a tensor that can never receive a gradient."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, requires_grad=False, parents=(), backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value) if requires_grad or parents else None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def detach(self) -> "Tensor":
        return Tensor(self.value.copy())

    def backward(self):
        if self.value.size != 1:
            raise InvalidInputError("backward() requires a scalar output")
        order = []
        _topological(self, set(), order)
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)


def _topological(node, seen, order):
    """Append `node` after everything it depends on. A module-level
    function, because a nested one that calls itself is a reference cycle
    that would keep the whole tape alive until the garbage collector runs."""
    if id(node) in seen:
        return
    seen.add(id(node))
    for p in node._parents:
        _topological(p, seen, order)
    order.append(node)


def constant(x) -> Tensor:
    return Tensor(x)


def parameter(x) -> Tensor:
    return Tensor(x, requires_grad=True)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _needs(*tensors):
    return any(t.grad is not None for t in tensors)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.value + b.value)

    def backward(g):
        if a.grad is not None:
            a.grad += _unbroadcast(g, a.value.shape)
        if b.grad is not None:
            b.grad += _unbroadcast(g, b.value.shape)

    return _attach(out, (a, b), backward)


def _attach(out, parents, backward):
    if _needs(*parents):
        out.grad = np.zeros_like(out.value)
        out._parents = tuple(parents)
        out._backward = backward
    return out


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.value - b.value)

    def backward(g):
        if a.grad is not None:
            a.grad += _unbroadcast(g, a.value.shape)
        if b.grad is not None:
            b.grad -= _unbroadcast(g, b.value.shape)

    return _attach(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.value * b.value)

    def backward(g):
        if a.grad is not None:
            a.grad += _unbroadcast(g * b.value, a.value.shape)
        if b.grad is not None:
            b.grad += _unbroadcast(g * a.value, b.value.shape)

    return _attach(out, (a, b), backward)


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.value * c)

    def backward(g):
        a.grad += g * c

    return _attach(out, (a,), backward)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ShapeError("matmul expects 2-D operands")
    out = Tensor(a.value @ b.value)

    def backward(g):
        if a.grad is not None:
            a.grad += g @ b.value.T
        if b.grad is not None:
            b.grad += a.value.T @ g

    return _attach(out, (a, b), backward)


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    y = np.tanh(a.value)
    out = Tensor(y)

    def backward(g):
        a.grad += g * (1.0 - y * y)

    return _attach(out, (a,), backward)


def softmax_rows(z) -> Tensor:
    """Row-wise max-subtracted softmax over the last axis."""
    z = _as_tensor(z)
    e = np.exp(z.value - z.value.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def backward(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        z.grad += y * (g - inner)

    return _attach(out, (z,), backward)


def masked_softmax_rows(z, mask) -> Tensor:
    """Softmax restricted to `mask` entries per row; zeros elsewhere."""
    z = _as_tensor(z)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != z.value.shape:
        raise ShapeError("mask shape must match logits")
    if not mask.any(axis=-1).all():
        raise InvalidInputError("every row needs at least one unmasked entry")
    neg = np.where(mask, z.value, -np.inf)
    e = np.exp(neg - neg.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def backward(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        z.grad += y * (g - inner)  # y is zero off-mask, so grad is too

    return _attach(out, (z,), backward)


def mix(weights, outputs, stacked=None) -> Tensor:
    """Weighted sum of stacked vectors: (B,E) weights x list of E (B,d).

    `stacked` may pass the outputs' values already stacked to (B,E,d), so
    that a forward mixing the same outputs for every option stacks once.
    """
    weights = _as_tensor(weights)
    outputs = [_as_tensor(o) for o in outputs]
    if weights.value.shape[-1] != len(outputs):
        raise ShapeError("one weight column per mixed tensor required")
    stackv = np.stack([o.value for o in outputs], axis=1) if stacked is None else stacked
    out = Tensor(np.einsum("be,bed->bd", weights.value, stackv))

    def backward(g):
        if weights.grad is not None:
            weights.grad += np.einsum("bd,bed->be", g, stackv)
        for i, o in enumerate(outputs):
            if o.grad is not None:
                o.grad += weights.value[:, i, None] * g

    return _attach(out, (weights, *outputs), backward)


def cosine_rows(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    na = np.linalg.norm(a.value, axis=-1)
    nb = np.linalg.norm(b.value, axis=-1)
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise InvalidInputError("cosine of a zero-norm row")
    dots = np.einsum("bd,bd->b", a.value, b.value)
    c = dots / (na * nb)
    out = Tensor(c)

    def backward(g):
        g = g[:, None]
        if a.grad is not None:
            a.grad += g * (b.value / (na * nb)[:, None] - c[:, None] * a.value / (na * na)[:, None])
        if b.grad is not None:
            b.grad += g * (a.value / (na * nb)[:, None] - c[:, None] * b.value / (nb * nb)[:, None])

    return _attach(out, (a, b), backward)


def bce_logistic(scores, labels, temperature: float) -> Tensor:
    """Elementwise BCE on sigmoid(temperature * score); log args clamped."""
    if temperature <= 0.0:
        raise InvalidInputError("temperature must be positive")
    scores = _as_tensor(scores)
    y = np.asarray(labels, dtype=np.float64)
    p_raw = sigmoid(temperature * scores.value)
    p = np.clip(p_raw, PROB_EPS, 1.0 - PROB_EPS)
    out = Tensor(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))

    def backward(g):
        scores.grad += g * temperature * (p_raw - y)

    return _attach(out, (scores,), backward)


def kl_rows(p, q) -> Tensor:
    """Row-wise KL(p || q); p is a constant target, grad flows to q only."""
    p = np.asarray(p.value if isinstance(p, Tensor) else p, dtype=np.float64)
    q = _as_tensor(q)
    if np.any(q.value <= 0.0):
        raise InvalidInputError("q must be strictly positive")
    terms = np.where(p > 0.0, p * (np.log(np.maximum(p, PROB_EPS)) - np.log(q.value)), 0.0)
    out = Tensor(terms.sum(axis=-1))

    def backward(g):
        q.grad += g[..., None] * (-p / q.value)

    return _attach(out, (q,), backward)


def stack_cols(cols) -> Tensor:
    """Stack a list of (B,) tensors into a (B, J) matrix."""
    cols = [_as_tensor(c) for c in cols]
    out = Tensor(np.stack([c.value for c in cols], axis=1))

    def backward(g):
        for i, c in enumerate(cols):
            if c.grad is not None:
                c.grad += g[:, i]

    return _attach(out, tuple(cols), backward)


def sum_all(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.value.sum())

    def backward(g):
        a.grad += g  # broadcasts the scalar

    return _attach(out, (a,), backward)


def mean_all(a) -> Tensor:
    a = _as_tensor(a)
    n = a.value.size
    out = Tensor(a.value.mean())

    def backward(g):
        a.grad += g / n

    return _attach(out, (a,), backward)
