"""Minimal reverse-mode tape over float64 numpy arrays.

`graph` puts its whole forward on the tape as one `fused` node over the
`parameter` blocks. The other ops compose the op-by-op reference loss in
the tests and acceptance criterion 4's per-option BCE. Gradients are
checked against `numerics.finite_difference_gradient` in the test suite;
the tape is confined to one training step on one thread.

Only parameters and op results that depend on one carry a `grad` and are
on the tape; operands given as plain arrays (or `constant`s) never become
tape parents. An op result's buffer is made by the first gradient term
that reaches it, so a forward keeps no gradient buffers, and one over
constants alone no closures. Each backward closure receives its output's
gradient as an argument instead of holding the output tensor, so the tape
has no reference cycles and is freed as soon as the loss is dropped,
without waiting for the cyclic garbage collector.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, ShapeError
from .numerics import PROB_EPS, sigmoid


# The `grad` of an op result that no term has reached. `+=` and `-=` replace
# it with a new array, 0.0 + term or 0.0 - term: the bits a zero buffer would
# hold. A float object of its own, so `is` tells it apart.
NO_GRAD_YET = float(0)


class Tensor:
    """A value in the graph. `grad` is None if it can never receive a gradient,
    else zero (a parameter) or NO_GRAD_YET (an op result) until `backward()`."""

    __slots__ = ("value", "grad", "_parents", "_backward")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.value.shape

    def backward(self):
        if self.value.size != 1:
            raise InvalidInputError("backward() requires a scalar output")
        order = []
        _topological(self, set(), order)
        self.grad = np.ones_like(self.value)
        for node in reversed(order):  # a node no gradient reached passes none on
            if node._backward is not None and node.grad is not NO_GRAD_YET:
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


def parameter(x, grad=None) -> Tensor:
    """A tape leaf that receives a gradient: into `grad`, an array of its
    shape (for example a view into one flat gradient vector), if given."""
    t = Tensor(x)
    t.grad = np.zeros_like(t.value) if grad is None else grad
    return t


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


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


def _attach(out, operands, backward):
    parents = tuple(t for t in operands if t.grad is not None)
    if parents:
        out.grad = NO_GRAD_YET
        out._parents = parents
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
    """(..., n) @ (n, m): a 2-D right operand under any leading axes."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.value.ndim < 2 or b.value.ndim != 2:
        raise ShapeError("matmul expects an N-D left and a 2-D right operand")
    out = Tensor(a.value @ b.value)

    def backward(g):
        if a.grad is not None:
            a.grad += g @ b.value.T
        if b.grad is not None:
            b.grad += a.value.reshape(-1, b.value.shape[0]).T @ g.reshape(-1, b.value.shape[1])

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
    return _softmax(z, z.value)


def masked_softmax_rows(z, mask) -> Tensor:
    """Softmax restricted to `mask` entries per row; zeros elsewhere."""
    z = _as_tensor(z)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != z.value.shape:
        raise ShapeError("mask shape must match logits")
    if not mask.any(axis=-1).all():
        raise InvalidInputError("every row needs at least one unmasked entry")
    return _softmax(z, np.where(mask, z.value, -np.inf))


def _softmax(z, logits):
    """Softmax of z's `logits`, masked entries at -inf; the gradient flows
    back to z."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def backward(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        z.grad += y * (g - inner)  # y is zero off-mask, so grad is too

    return _attach(out, (z,), backward)


def mix(weights, values) -> Tensor:
    """Weighted sums of the rows of `values` (..., E, d): (..., E) weights
    give (..., d), and (..., J, E) weights give J mixtures, (..., J, d)."""
    w, v = _as_tensor(weights), _as_tensor(values)
    wv = w.value if w.value.ndim == v.value.ndim else w.value[..., None, :]
    if wv.shape[:-2] != v.value.shape[:-2] or wv.shape[-1] != v.value.shape[-2]:
        raise ShapeError("one weight per mixed row required")
    out = Tensor((wv @ v.value).reshape(w.value.shape[:-1] + v.value.shape[-1:]))

    def backward(g):
        g = g.reshape(wv.shape[:-1] + g.shape[-1:])
        if w.grad is not None:
            w.grad += (g @ np.swapaxes(v.value, -1, -2)).reshape(w.value.shape)
        if v.grad is not None:
            v.grad += np.swapaxes(wv, -1, -2) @ g

    return _attach(out, (w, v), backward)


def cosine_rows(a, b) -> Tensor:
    """Cosine similarity over the last axis, under any leading axes."""
    a, b = _as_tensor(a), _as_tensor(b)
    na = np.linalg.norm(a.value, axis=-1, keepdims=True)
    nb = np.linalg.norm(b.value, axis=-1, keepdims=True)
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise InvalidInputError("cosine of a zero-norm row")
    c = np.einsum("...d,...d->...", a.value, b.value)[..., None] / (na * nb)
    out = Tensor(c[..., 0])

    def backward(g):
        g = g[..., None]
        if a.grad is not None:
            a.grad += g * (b.value / (na * nb) - c * a.value / (na * na))
        if b.grad is not None:
            b.grad += g * (a.value / (na * nb) - c * b.value / (nb * nb))

    return _attach(out, (a, b), backward)


def bce_logistic(scores, labels, temperature: float) -> Tensor:
    """Elementwise BCE on sigmoid(temperature * score), computed on the
    logits as log(1 + exp(∓logit)), so its gradient is exact everywhere."""
    if temperature <= 0.0:
        raise InvalidInputError("temperature must be positive")
    scores = _as_tensor(scores)
    y = np.asarray(labels, dtype=np.float64)
    logits = temperature * scores.value
    p_raw = sigmoid(logits)
    with np.errstate(invalid="ignore"):  # a NaN score gives a NaN loss, silently
        out = Tensor(np.logaddexp(0.0, (1.0 - 2.0 * y) * logits))

    def backward(g):
        scores.grad += g * temperature * (p_raw - y)

    return _attach(out, (scores,), backward)


def kl_rows(p, q) -> Tensor:
    """Row-wise KL(p || q); p is the target array, and grad flows to q only.
    Where q has underflowed to zero and p has not, the KL is infinite: a
    non-finite loss, which training reports as divergence."""
    p = np.asarray(p, dtype=np.float64)
    q = _as_tensor(q)
    if np.any(q.value < 0.0):
        raise InvalidInputError("q must be non-negative")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * (np.log(np.maximum(p, PROB_EPS)) - np.log(q.value)), 0.0)
    out = Tensor(terms.sum(axis=-1))

    def backward(g):
        # entries with p = 0 contribute nothing, even where q underflowed
        with np.errstate(divide="ignore", invalid="ignore"):
            q.grad += g[..., None] * np.where(p > 0.0, -p / q.value, 0.0)

    return _attach(out, (q,), backward)


def fused(value, operands, backward) -> Tensor:
    """One node for a whole stage of numpy code: `value` over the tensors
    (or plain arrays) `operands`, and `backward(g)`, which returns one
    gradient term per operand, None where it has none. Each term is added
    to its operand's gradient, in operand order."""
    operands = tuple(_as_tensor(t) for t in operands)

    def add_terms(g):
        for t, term in zip(operands, backward(g), strict=True):
            if term is not None and t.grad is not None:
                t.grad += term

    return _attach(Tensor(value), operands, add_terms)


def stack_cols(cols) -> Tensor:
    """Stack a list of n (B, ...) tensors along a new axis 1: (B, n, ...)."""
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
        a.grad += np.broadcast_to(g, a.value.shape)

    return _attach(out, (a,), backward)


def mean_all(a) -> Tensor:
    a = _as_tensor(a)
    n = a.value.size
    out = Tensor(a.value.mean())

    def backward(g):
        a.grad += np.broadcast_to(g / n, a.value.shape)

    return _attach(out, (a,), backward)
